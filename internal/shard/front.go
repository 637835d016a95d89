package shard

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// FrontConfig shapes the HTTP front.
type FrontConfig struct {
	FrontDoor FrontDoorConfig
	// Confidence is the SLO confidence the predictive shed compares
	// against when a submission does not carry one; 0 selects 0.5, and
	// anything else outside (0, 1) is an error.
	Confidence float64
}

// Front is the HTTP routing tier: it owns the Directory and FrontDoor
// and forwards tenant traffic to the registered shard processes. The
// front holds no tenant state of its own beyond verdict counters and
// the set of tenants it has routed — all serving state lives in the
// shards.
type Front struct {
	dir    *Directory
	addrs  map[string]string
	fd     *FrontDoor
	cfg    FrontConfig
	client *http.Client
	start  time.Time

	mu          sync.Mutex
	forwarded   map[string]uint64 // completed forwards per shard
	tenantShard map[string]string // distinct tenants seen → placed shard

	panics atomic.Uint64 // handler panics serve.Recover caught
}

// hopIdleConnsPerHost is the front's idle-connection pool per shard,
// sized past the clients a front has in flight: net/http's default of 2
// made most hops dial (8 clients × 30 /predict opened 81 connections).
const hopIdleConnsPerHost = 64

// NewFront builds the routing tier from a directory file.
func NewFront(file *File, cfg FrontConfig) (*Front, error) {
	dir, err := file.Directory()
	if err != nil {
		return nil, err
	}
	cfg.Confidence = cmp.Or(cfg.Confidence, 0.5)
	if !(cfg.Confidence > 0 && cfg.Confidence < 1) {
		return nil, fmt.Errorf("shard: front confidence %g out of (0, 1)", cfg.Confidence)
	}
	hop := http.DefaultTransport.(*http.Transport).Clone()
	hop.MaxIdleConnsPerHost = hopIdleConnsPerHost
	return &Front{
		dir:         dir,
		addrs:       file.addrs(),
		fd:          NewFrontDoor(cfg.FrontDoor),
		cfg:         cfg,
		client:      &http.Client{Timeout: 60 * time.Second, Transport: hop},
		start:       time.Now(),
		forwarded:   make(map[string]uint64),
		tenantShard: make(map[string]string),
	}, nil
}

// Directory exposes the front's directory (the `uaqp front` process
// also answers placement queries with it).
func (f *Front) Directory() *Directory { return f.dir }

// Handler returns the front's HTTP surface:
//
//	GET  /healthz   liveness + shard roster
//	POST /predict   {"tenant", "query"}                       -> forwarded to the tenant's shard
//	POST /submit    {"tenant", "query", "deadline", "class", "confidence"}
//	                -> a token, then the shard's /submit with "shed_below" (when predictive);
//	                   a shard's "verdict": "shed-predictive" returns the token
//	GET  /place     ?tenant=name                              -> the shard owning the tenant
//	GET  /metrics   directory + front-door counters (Prometheus text)
//
// The front decodes only the envelope, answering its errors before any
// token or hop. The query goes to the shard undecoded, only compacted:
// the shard alone decodes and validates it, its error answer is relayed
// verbatim, and a refused submit's token comes back.
func (f *Front) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", f.handleHealthz)
	mux.HandleFunc("POST /predict", f.handlePredict)
	mux.HandleFunc("POST /submit", f.handleSubmit)
	mux.HandleFunc("GET /place", f.handlePlace)
	mux.HandleFunc("GET /metrics", f.handleMetrics)
	return serve.Recover(mux, &f.panics)
}

func (f *Front) handleHealthz(w http.ResponseWriter, r *http.Request) {
	shards := f.dir.Shards()
	roster := make([]FileShard, 0, len(shards))
	for _, s := range shards {
		roster = append(roster, FileShard{Name: s, Addr: f.addrs[s]})
	}
	serve.WriteJSON(w, http.StatusOK, struct {
		Status string      `json:"status"`
		Shards []FileShard `json:"shards"`
	}{Status: "ok", Shards: roster})
}

func (f *Front) handlePlace(w http.ResponseWriter, r *http.Request) {
	tenant := r.URL.Query().Get("tenant")
	if tenant == "" {
		serve.WriteError(w, http.StatusBadRequest, "missing tenant parameter")
		return
	}
	s := f.dir.Place(tenant)
	serve.WriteJSON(w, http.StatusOK, struct {
		Tenant string `json:"tenant"`
		Shard  string `json:"shard"`
		Addr   string `json:"addr"`
	}{Tenant: tenant, Shard: s, Addr: f.addrs[s]})
}

// hopBody encodes req as the hop's body. The shard reads at most
// serve.MaxBodyBytes, the limit the front decoded the client's body
// under, and the hop can outgrow the client's body: shed_below is added
// and the tenant and deadline are re-encoded. A hop body over the limit
// is answered 413 here, before any token or hop, so no body the front
// forwards is refused by the shard for its size; ok is false once it
// has answered.
func hopBody(w http.ResponseWriter, req hopRequest) (body *bytes.Buffer, ok bool) {
	// Unescaped, so the query keeps the client's characters: escaping <,
	// > and & would grow it sixfold. Encode cannot fail on a query the
	// decoder has validated.
	body = new(bytes.Buffer)
	enc := json.NewEncoder(body)
	enc.SetEscapeHTML(false)
	enc.Encode(req)
	if body.Len() > serve.MaxBodyBytes {
		serve.WriteError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf(
			"bad request body: forwarded, it would be %d bytes, over the shards' limit of %d", body.Len(), serve.MaxBodyBytes))
		return nil, false
	}
	return body, true
}

// post sends a hop body to the placed shard's endpoint under the client
// request's context, so a client that disconnects cancels the hop and,
// through the shard's own request context, the shard's prediction work.
// When the shard cannot be reached it answers 502 itself and returns
// nil; the caller closes a non-nil response's body.
func (f *Front) post(w http.ResponseWriter, r *http.Request, shard, path string, body *bytes.Buffer) *http.Response {
	addr, ok := f.addrs[shard]
	if !ok || addr == "" {
		serve.WriteError(w, http.StatusBadGateway, fmt.Sprintf("shard %q has no registered address", shard))
		return nil
	}
	hop, err := http.NewRequestWithContext(r.Context(), http.MethodPost, addr+path, body)
	if err != nil {
		serve.WriteError(w, http.StatusBadGateway, fmt.Sprintf("shard %q: %v", shard, err))
		return nil
	}
	hop.Header.Set("Content-Type", "application/json")
	resp, err := f.client.Do(hop)
	if err != nil {
		serve.WriteError(w, http.StatusBadGateway, fmt.Sprintf("shard %q: %v", shard, err))
		return nil
	}
	return resp
}

// relay counts the forward, then copies a shard's answer through
// verbatim: a client that has its reply finds it on /metrics.
func (f *Front) relay(w http.ResponseWriter, shard string, status int, body io.Reader) {
	f.mu.Lock()
	f.forwarded[shard]++
	f.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	io.Copy(w, body)
}

// frontRequest is the client's /predict or /submit body. Query stays
// undecoded: the front forwards it and never reads it.
type frontRequest struct {
	Tenant   string          `json:"tenant"`
	Query    json.RawMessage `json:"query"`
	Deadline float64         `json:"deadline,omitempty"`
	// Class labels the submission's SLO class in the front-door
	// counters; empty selects the tenant name.
	Class string `json:"class,omitempty"`
	// Confidence, in (0, 1), overrides the front's predictive-shed
	// confidence for this submission; 0 keeps the front's.
	Confidence float64 `json:"confidence,omitempty"`
}

// hopRequest is the body of both hops (serve.PredictRequest and
// serve.Request); a /predict hop leaves Deadline and ShedBelow zero.
type hopRequest struct {
	Tenant    string          `json:"tenant"`
	Query     json.RawMessage `json:"query"`
	Deadline  float64         `json:"deadline,omitempty"`
	ShedBelow float64         `json:"shed_below,omitempty"`
}

// maxTrackedTenants bounds the distinct-tenant tally of a long-lived
// front: tenant names come from request bodies, so without a bound a
// client sending unique names grows the map (and every /metrics walk
// over it) forever. Requests beyond the cap are still placed and
// forwarded, just not tallied.
const maxTrackedTenants = 4096

func (f *Front) place(tenant string) string {
	s := f.dir.Place(tenant)
	f.mu.Lock()
	if _, tracked := f.tenantShard[tenant]; tracked || len(f.tenantShard) < maxTrackedTenants {
		f.tenantShard[tenant] = s
	}
	f.mu.Unlock()
	return s
}

// decodeRequest decodes a /predict or /submit body under the shards' own
// limit and strictness (serve.DecodeBody), so the front buffers no more
// than a shard accepts, and answers 400 for a body that names no tenant;
// ok is false once it has answered.
func decodeRequest(w http.ResponseWriter, r *http.Request) (req frontRequest, ok bool) {
	if !serve.DecodeBody(w, r, &req) {
		return req, false
	}
	if req.Tenant == "" {
		serve.WriteError(w, http.StatusBadRequest, "missing tenant")
		return req, false
	}
	return req, true
}

func (f *Front) handlePredict(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeRequest(w, r)
	if !ok {
		return
	}
	body, ok := hopBody(w, hopRequest{Tenant: req.Tenant, Query: req.Query})
	if !ok {
		return
	}
	shardName := f.place(req.Tenant)
	if resp := f.post(w, r, shardName, "/predict", body); resp != nil {
		defer resp.Body.Close()
		f.relay(w, shardName, resp.StatusCode, resp.Body)
	}
}

// shedResponse is the front's refusal body; its verdict vocabulary
// matches the simulator's trace verdicts.
type shedResponse struct {
	Verdict Verdict `json:"verdict"`
	Reason  string  `json:"reason"`
	Shard   string  `json:"shard"`
	PMeet   float64 `json:"p_meet,omitempty"`
}

func (f *Front) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeRequest(w, r)
	if !ok {
		return
	}
	if !(req.Deadline >= 0 && req.Confidence >= 0 && req.Confidence < 1) {
		serve.WriteError(w, http.StatusBadRequest, fmt.Sprintf(
			"deadline %g must not be negative, confidence %g must be in (0, 1) or 0", req.Deadline, req.Confidence))
		return
	}
	class := cmp.Or(req.Class, req.Tenant)
	confidence := cmp.Or(req.Confidence, f.cfg.Confidence)
	hreq := hopRequest{Tenant: req.Tenant, Query: req.Query, Deadline: req.Deadline}
	if f.fd.Predictive() && req.Deadline > 0 {
		hreq.ShedBelow = confidence
	}
	body, ok := hopBody(w, hreq)
	if !ok {
		return
	}
	shardName := f.place(req.Tenant)

	// A token is reserved before the one shard hop. The predictive bound
	// is optimistic, P(T_q <= d) with zero queue wait, so the shard checks
	// it on its own (cached) prediction inside /submit: if even that is
	// below the confidence, no queue state anywhere can save the request,
	// and the token comes back. Without a deadline there is no bound.
	if f.fd.Admit(class, time.Since(f.start).Seconds(), 1, confidence) != VerdictAdmit {
		serve.WriteJSON(w, http.StatusTooManyRequests, shedResponse{
			Verdict: VerdictShedThrottle, Reason: "token bucket empty", Shard: shardName,
		})
		return
	}
	resp := f.post(w, r, shardName, "/submit", body)
	if resp == nil {
		f.fd.refund(class, "")
		return
	}
	defer resp.Body.Close()
	var reply io.Reader = resp.Body
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests:
		data, _ := io.ReadAll(resp.Body) // a short read is relayed as read, as relay's io.Copy does
		var d serve.Decision
		if json.Unmarshal(data, &d) == nil && d.Verdict == string(VerdictShedPredictive) {
			f.fd.refund(class, VerdictShedPredictive)
			serve.WriteJSON(w, http.StatusTooManyRequests, shedResponse{
				Verdict: VerdictShedPredictive, Reason: d.Reason, Shard: shardName, PMeet: d.PMeet,
			})
			return
		}
		reply = bytes.NewReader(data)
	default:
		// No shard accepted the request (unknown tenant, bad query).
		f.fd.refund(class, "")
	}
	f.relay(w, shardName, resp.StatusCode, reply)
}

func (f *Front) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	tenants := make(map[string]int)
	f.mu.Lock()
	for _, s := range f.tenantShard {
		tenants[s]++
	}
	forwarded := maps.Clone(f.forwarded)
	f.mu.Unlock()

	shards := f.dir.Shards()
	fmt.Fprintf(w, "# HELP uaqp_front_shards Serving shards in the directory.\n# TYPE uaqp_front_shards gauge\nuaqp_front_shards %d\n", len(shards))
	fmt.Fprintf(w, "# HELP uaqp_front_shard_tenants Distinct tenants routed, by shard.\n# TYPE uaqp_front_shard_tenants gauge\n")
	for _, s := range shards {
		fmt.Fprintf(w, "uaqp_front_shard_tenants{shard=%s} %d\n", serve.LabelValue(s), tenants[s])
	}
	fmt.Fprintf(w, "# HELP uaqp_front_recovered_panics_total Handler panics recovered (answered 500 unless the response had started).\n# TYPE uaqp_front_recovered_panics_total counter\nuaqp_front_recovered_panics_total %d\n", f.panics.Load())
	fmt.Fprintf(w, "# HELP uaqp_front_forwarded_total Requests forwarded, by shard.\n# TYPE uaqp_front_forwarded_total counter\n")
	for _, s := range shards {
		fmt.Fprintf(w, "uaqp_front_forwarded_total{shard=%s} %d\n", serve.LabelValue(s), forwarded[s])
	}

	classes := f.fd.Counters()
	fmt.Fprintf(w, "# HELP uaqp_front_admitted_total Front-door admissions, by SLO class.\n# TYPE uaqp_front_admitted_total counter\n")
	for _, c := range classes {
		fmt.Fprintf(w, "uaqp_front_admitted_total{class=%s} %d\n", serve.LabelValue(c.Class), c.Admitted)
	}
	fmt.Fprintf(w, "# HELP uaqp_front_shed_total Front-door sheds, by SLO class and reason.\n# TYPE uaqp_front_shed_total counter\n")
	for _, c := range classes {
		class := serve.LabelValue(c.Class)
		fmt.Fprintf(w, "uaqp_front_shed_total{class=%s,reason=\"predictive\"} %d\n", class, c.ShedPredictive)
		fmt.Fprintf(w, "uaqp_front_shed_total{class=%s,reason=\"throttle\"} %d\n", class, c.ShedThrottled)
	}
	fmt.Fprintf(w, "# HELP uaqp_front_admission_fairness Jain fairness index over per-class admission rates.\n# TYPE uaqp_front_admission_fairness gauge\n")
	fmt.Fprintf(w, "uaqp_front_admission_fairness %s\n", strconv.FormatFloat(AdmissionFairness(classes), 'g', -1, 64))
}
