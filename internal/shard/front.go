package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	uaqetp "repro"
	"repro/internal/serve"
	"repro/internal/stats"
)

// FrontConfig shapes the HTTP front.
type FrontConfig struct {
	FrontDoor FrontDoorConfig
	// Confidence is the SLO confidence the predictive shed compares
	// against when a submission does not carry one; 0 selects 0.5.
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
}

// NewFront builds the routing tier from a directory file.
func NewFront(file *File, cfg FrontConfig) (*Front, error) {
	dir, err := file.Directory()
	if err != nil {
		return nil, err
	}
	if cfg.Confidence <= 0 {
		cfg.Confidence = 0.5
	}
	return &Front{
		dir:         dir,
		addrs:       file.Addrs(),
		fd:          NewFrontDoor(cfg.FrontDoor),
		cfg:         cfg,
		client:      &http.Client{Timeout: 60 * time.Second},
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
//	POST /submit    {"tenant", "query", "deadline", "class"}  -> front-door verdict, then forwarded
//	GET  /place     ?tenant=name                              -> the shard owning the tenant
//	GET  /metrics   directory + front-door counters (Prometheus text)
func (f *Front) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", f.handleHealthz)
	mux.HandleFunc("POST /predict", f.handlePredict)
	mux.HandleFunc("POST /submit", f.handleSubmit)
	mux.HandleFunc("GET /place", f.handlePlace)
	mux.HandleFunc("GET /metrics", f.handleMetrics)
	return mux
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

// forward relays body to the placed shard's endpoint and copies the
// response through verbatim.
func (f *Front) forward(w http.ResponseWriter, shard, path string, body []byte) {
	addr, ok := f.addrs[shard]
	if !ok || addr == "" {
		serve.WriteError(w, http.StatusBadGateway, fmt.Sprintf("shard %q has no registered address", shard))
		return
	}
	resp, err := f.client.Post(addr+path, "application/json", bytes.NewReader(body))
	if err != nil {
		serve.WriteError(w, http.StatusBadGateway, fmt.Sprintf("shard %q: %v", shard, err))
		return
	}
	defer resp.Body.Close()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	f.mu.Lock()
	f.forwarded[shard]++
	f.mu.Unlock()
}

type frontRequest struct {
	Tenant   string        `json:"tenant"`
	Query    *uaqetp.Query `json:"query"`
	Deadline float64       `json:"deadline,omitempty"`
	// Class labels the submission's SLO class in the front-door
	// counters; empty selects the tenant name.
	Class string `json:"class,omitempty"`
	// Confidence overrides the front's predictive-shed confidence for
	// this submission.
	Confidence float64 `json:"confidence,omitempty"`
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
	body, _ := json.Marshal(serve.PredictRequest{Tenant: req.Tenant, Query: req.Query})
	f.forward(w, f.place(req.Tenant), "/predict", body)
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
	shardName := f.place(req.Tenant)
	class := req.Class
	if class == "" {
		class = req.Tenant
	}
	confidence := req.Confidence
	if confidence <= 0 {
		confidence = f.cfg.Confidence
	}

	// The front's predictive bound is optimistic: P(T_q <= d) with
	// zero queue wait, from the shard's own (cached) prediction. If
	// even that is below the confidence, no queue state anywhere in
	// the fleet can save the request. Without a deadline there is no
	// bound to check, so bestP saturates.
	bestP := 1.0
	if f.fd.Predictive() && req.Deadline > 0 {
		if pred, err := f.predictOn(shardName, req); err == nil {
			total := stats.Normal{Mu: pred.Mean, Sigma: pred.Sigma}
			bestP = total.CDF(req.Deadline)
		}
	}
	now := time.Since(f.start).Seconds()
	verdict := f.fd.Admit(class, now, bestP, confidence)
	if verdict != VerdictAdmit {
		reason := "token bucket empty"
		if verdict == VerdictShedPredictive {
			reason = fmt.Sprintf("P(T_q <= %.4g) = %.4f below confidence %.4f with zero wait", req.Deadline, bestP, confidence)
		}
		serve.WriteJSON(w, http.StatusTooManyRequests, shedResponse{
			Verdict: verdict, Reason: reason, Shard: shardName, PMeet: bestP,
		})
		return
	}
	body, _ := json.Marshal(serve.Request{Tenant: req.Tenant, Query: req.Query, Deadline: req.Deadline})
	f.forward(w, shardName, "/submit", body)
}

// predictedCost is the slice of the shard /predict response the
// front's predictive check needs.
type predictedCost struct {
	Mean  float64 `json:"mean"`
	Sigma float64 `json:"sigma"`
}

func (f *Front) predictOn(shard string, req frontRequest) (*predictedCost, error) {
	addr, ok := f.addrs[shard]
	if !ok || addr == "" {
		return nil, fmt.Errorf("shard %q has no registered address", shard)
	}
	body, _ := json.Marshal(serve.PredictRequest{Tenant: req.Tenant, Query: req.Query})
	resp, err := f.client.Post(addr+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("shard %q predict: status %d", shard, resp.StatusCode)
	}
	var pc predictedCost
	if err := json.NewDecoder(resp.Body).Decode(&pc); err != nil {
		return nil, err
	}
	if pc.Sigma <= 0 || math.IsNaN(pc.Mean) {
		return nil, fmt.Errorf("shard %q predict: degenerate prediction", shard)
	}
	return &pc, nil
}

func (f *Front) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	f.mu.Lock()
	tenants := make(map[string]int)
	for _, s := range f.dir.Shards() {
		tenants[s] = 0
	}
	for _, s := range f.tenantShard {
		tenants[s]++
	}
	forwarded := make(map[string]uint64, len(f.forwarded))
	for k, v := range f.forwarded {
		forwarded[k] = v
	}
	f.mu.Unlock()

	shards := f.dir.Shards()
	fmt.Fprintf(w, "# HELP uaqp_front_shards Serving shards in the directory.\n# TYPE uaqp_front_shards gauge\nuaqp_front_shards %d\n", len(shards))
	fmt.Fprintf(w, "# HELP uaqp_front_shard_tenants Distinct tenants routed, by shard.\n# TYPE uaqp_front_shard_tenants gauge\n")
	for _, s := range shards {
		fmt.Fprintf(w, "uaqp_front_shard_tenants{shard=%q} %d\n", s, tenants[s])
	}
	fmt.Fprintf(w, "# HELP uaqp_front_forwarded_total Requests forwarded, by shard.\n# TYPE uaqp_front_forwarded_total counter\n")
	for _, s := range shards {
		fmt.Fprintf(w, "uaqp_front_forwarded_total{shard=%q} %d\n", s, forwarded[s])
	}

	counters := f.fd.Counters()
	classes := make([]string, 0, len(counters))
	for c := range counters {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	fmt.Fprintf(w, "# HELP uaqp_front_admitted_total Front-door admissions, by SLO class.\n# TYPE uaqp_front_admitted_total counter\n")
	for _, c := range classes {
		fmt.Fprintf(w, "uaqp_front_admitted_total{class=%q} %d\n", c, counters[c].Admitted)
	}
	fmt.Fprintf(w, "# HELP uaqp_front_shed_total Front-door sheds, by SLO class and reason.\n# TYPE uaqp_front_shed_total counter\n")
	for _, c := range classes {
		fmt.Fprintf(w, "uaqp_front_shed_total{class=%q,reason=\"predictive\"} %d\n", c, counters[c].ShedPredictive)
		fmt.Fprintf(w, "uaqp_front_shed_total{class=%q,reason=\"throttle\"} %d\n", c, counters[c].ShedThrottled)
	}
	var rates []float64
	for _, c := range classes {
		ct := counters[c]
		if total := ct.Admitted + ct.ShedPredictive + ct.ShedThrottled; total > 0 {
			rates = append(rates, float64(ct.Admitted)/float64(total))
		}
	}
	fmt.Fprintf(w, "# HELP uaqp_front_admission_fairness Jain fairness index over per-class admission rates.\n# TYPE uaqp_front_admission_fairness gauge\n")
	fmt.Fprintf(w, "uaqp_front_admission_fairness %s\n", strconv.FormatFloat(stats.JainIndex(rates), 'g', -1, 64))
}
