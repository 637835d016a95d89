package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"sync/atomic"

	uaqetp "repro"
)

// Handler returns the HTTP/JSON front end:
//
//	GET  /healthz      liveness + tenant roster
//	POST /predict      {"tenant", "query"}              -> prediction
//	POST /submit       {"tenant", "query", "deadline", "shed_below"}
//	                   -> admission decision (429 when refused; "verdict":
//	                   "shed-predictive" when shed under shed_below)
//	POST /drain        execute queued work in priority order -> outcomes
//	POST /recalibrate  {"tenant", "seed", "force"}      -> recalibration report
//	GET  /stats        cache/queue/tenant/drift snapshot
//	GET  /metrics      the same counters in Prometheus text format
//
// Queries use the uaqetp.Query JSON shape (see the README for the
// predicate operator codes). Request contexts propagate into the
// prediction pipeline: a client that disconnects mid-request cancels
// its own prediction work.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("POST /predict", s.handlePredict)
	mux.HandleFunc("POST /submit", s.handleSubmit)
	mux.HandleFunc("POST /drain", s.handleDrain)
	mux.HandleFunc("POST /recalibrate", s.handleRecalibrate)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return Recover(mux, &s.panics)
}

// The JSON edge — response writer, error body, body limit and strict
// decode — is shared with the routing tier (internal/shard), so a shard
// and the front in front of it answer malformed input identically.

type httpError struct {
	Error string `json:"error"`
}

// WriteJSON answers status with v as indented JSON.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// WriteError answers status with the {"error": msg} body every endpoint
// of both tiers uses.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, httpError{Error: msg})
}

// Recover wraps h so that a handler panic answers 500 with the JSON
// error body instead of dropping the connection, which a client (or the
// front relaying a shard's reply) would read as EOF. It logs the panic
// with its stack; when the handler had already started its response,
// logging is all it can do. Either way the panic is counted in panics,
// which /metrics exposes. http.ErrAbortHandler, net/http's own way to
// abort a response, is re-panicked and not counted.
func Recover(h http.Handler, panics *atomic.Uint64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tw := &trackingWriter{ResponseWriter: w}
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler {
				panic(v)
			}
			panics.Add(1)
			log.Printf("serve: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
			if !tw.wrote {
				WriteError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", v))
			}
		}()
		h.ServeHTTP(tw, r)
	})
}

// trackingWriter records whether a response has started. It forwards
// ReadFrom, so a body the front relays still copies through the
// server's pooled buffers instead of a fresh 32 KiB one per request.
type trackingWriter struct {
	http.ResponseWriter
	wrote bool
}

func (w *trackingWriter) WriteHeader(status int) {
	w.wrote = true
	w.ResponseWriter.WriteHeader(status)
}

func (w *trackingWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

func (w *trackingWriter) ReadFrom(src io.Reader) (int64, error) {
	w.wrote = true
	return io.Copy(w.ResponseWriter, src)
}

// errStatus maps a service error onto an HTTP status: unknown tenants
// are 404, everything else a client error.
func errStatus(err error) int {
	if errors.Is(err, errUnknownTenant) {
		return http.StatusNotFound
	}
	return http.StatusBadRequest
}

// MaxBodyBytes bounds how much of a request body a handler reads: a
// query is a few hundred bytes of JSON, so 1 MiB refuses nothing real
// while keeping one request from buffering an arbitrarily large document.
const MaxBodyBytes = 1 << 20

// DecodeBody decodes the JSON request body into v, rejecting unknown
// fields; it answers 413 for a body over MaxBodyBytes and 400 for
// anything else that does not decode, and reports whether it decoded.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		WriteError(w, status, "bad request body: "+err.Error())
		return false
	}
	return true
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, struct {
		Status  string   `json:"status"`
		Tenants []string `json:"tenants"`
	}{Status: "ok", Tenants: s.tenantNames()})
}

// PredictRequest is the /predict body.
type PredictRequest struct {
	Tenant string        `json:"tenant"`
	Query  *uaqetp.Query `json:"query"`
}

type predictResponse struct {
	Tenant       string  `json:"tenant"`
	Query        string  `json:"query"`
	Mean         float64 `json:"mean"`
	Sigma        float64 `json:"sigma"`
	P50          float64 `json:"p50"`
	P90          float64 `json:"p90"`
	P95          float64 `json:"p95"`
	P99          float64 `json:"p99"`
	DominantUnit string  `json:"dominant_unit"`
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req PredictRequest
	if !DecodeBody(w, r, &req) {
		return
	}
	pred, err := s.Predict(r.Context(), req.Tenant, req.Query)
	if err != nil {
		WriteError(w, errStatus(err), err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, predictResponse{
		Tenant:       req.Tenant,
		Query:        req.Query.Name,
		Mean:         pred.Mean(),
		Sigma:        pred.Sigma(),
		P50:          pred.Dist.Quantile(0.5),
		P90:          pred.Dist.Quantile(0.9),
		P95:          pred.Dist.Quantile(0.95),
		P99:          pred.Dist.Quantile(0.99),
		DominantUnit: pred.DominantUnit().String(),
	})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	if !DecodeBody(w, r, &req) {
		return
	}
	d, err := s.Submit(r.Context(), req)
	if err != nil {
		WriteError(w, errStatus(err), err.Error())
		return
	}
	status := http.StatusOK
	if !d.Admitted {
		// The request was understood but refused admission.
		status = http.StatusTooManyRequests
		d.Reason = d.explain()
	}
	WriteJSON(w, status, d)
}

type drainResponse struct {
	Executed int       `json:"executed"`
	Outcomes []Outcome `json:"outcomes"`
	// Error reports a mid-drain execution failure; the outcomes that
	// completed before it are still included.
	Error string `json:"error,omitempty"`
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	outs, err := s.Drain()
	if outs == nil {
		outs = []Outcome{}
	}
	resp := drainResponse{Executed: len(outs), Outcomes: outs}
	status := http.StatusOK
	if err != nil {
		resp.Error = err.Error()
		status = http.StatusInternalServerError
	}
	WriteJSON(w, status, resp)
}

func (s *Server) handleRecalibrate(w http.ResponseWriter, r *http.Request) {
	var req RecalibrateRequest
	if !DecodeBody(w, r, &req) {
		return
	}
	resp, err := s.Recalibrate(r.Context(), req)
	if err != nil {
		WriteError(w, errStatus(err), err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Stats())
}
