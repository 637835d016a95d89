package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	uaqetp "repro"
	"repro/internal/workload"
)

// FuzzPredictBody posts arbitrary bytes to /predict against one tenant
// opened once: whatever the body, the answer is a client error or a
// prediction, never a 5xx, and always a JSON body.
func FuzzPredictBody(f *testing.F) {
	sys, err := uaqetp.Open(uaqetp.DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	qs, err := sys.GenerateWorkload(workload.SelJoin, 1)
	if err != nil {
		f.Fatal(err)
	}
	srv := New(Config{})
	if _, err := srv.AddTenantSystem("alpha", sys, SLO{}); err != nil {
		f.Fatal(err)
	}
	valid, err := json.Marshal(PredictRequest{Tenant: "alpha", Query: qs[0]})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(bytes.Replace(valid, []byte(`"alpha"`), []byte(`"nobody"`), 1))
	f.Add(bytes.Replace(valid, []byte(`"tenant"`), []byte(`"tenant_id"`), 1))
	f.Add(valid[:len(valid)/2])

	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("body %q answered %d: %s", body, rec.Code, rec.Body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("body %q answered %d with a non-JSON body %q", body, rec.Code, rec.Body)
		}
	})
}
