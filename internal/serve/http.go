package serve

import (
	"encoding/json"
	"errors"
	"net/http"

	uaqetp "repro"
)

// Handler returns the HTTP/JSON front end:
//
//	GET  /healthz      liveness + tenant roster
//	POST /predict      {"tenant", "query"}              -> prediction
//	POST /submit       {"tenant", "query", "deadline"}  -> admission decision
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
	return mux
}

type httpError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// errStatus maps a service error onto an HTTP status: unknown tenants
// are 404, everything else a client error.
func errStatus(err error) int {
	if errors.Is(err, ErrUnknownTenant) {
		return http.StatusNotFound
	}
	return http.StatusBadRequest
}

// maxBodyBytes bounds how much of a request body a handler reads: a
// query is a few hundred bytes of JSON, so 1 MiB refuses nothing real
// while keeping one request from buffering an arbitrarily large document.
const maxBodyBytes = 1 << 20

// decodeBody decodes the JSON request body into v, answering 413 for a
// body over maxBodyBytes and 400 for anything else that does not decode.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, httpError{Error: "bad request body: " + err.Error()})
		return false
	}
	return true
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status  string   `json:"status"`
		Tenants []string `json:"tenants"`
	}{Status: "ok", Tenants: s.TenantNames()})
}

type predictRequest struct {
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
	var req predictRequest
	if !decodeBody(w, r, &req) {
		return
	}
	pred, err := s.Predict(r.Context(), req.Tenant, req.Query)
	if err != nil {
		writeJSON(w, errStatus(err), httpError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, predictResponse{
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
	if !decodeBody(w, r, &req) {
		return
	}
	d, err := s.Submit(r.Context(), req)
	if err != nil {
		writeJSON(w, errStatus(err), httpError{Error: err.Error()})
		return
	}
	status := http.StatusOK
	if !d.Admitted {
		// The request was understood but refused admission.
		status = http.StatusTooManyRequests
	}
	writeJSON(w, status, d)
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
	writeJSON(w, status, resp)
}

func (s *Server) handleRecalibrate(w http.ResponseWriter, r *http.Request) {
	var req RecalibrateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	resp, err := s.Recalibrate(r.Context(), req)
	if err != nil {
		writeJSON(w, errStatus(err), httpError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
