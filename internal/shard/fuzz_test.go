package shard

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	uaqetp "repro"
	"repro/internal/serve"
	"repro/internal/workload"
)

// FuzzFrontBody posts arbitrary bytes to the front's /submit and
// /predict, with one real shard serving one tenant, opened once, behind
// it: whatever the body, the answer is below 500 and JSON, and a body
// refused with 400, 404 or 413 — by the front or by the shard — leaves
// the front door's admitted total as it was, so no refused body keeps a
// token.
func FuzzFrontBody(f *testing.F) {
	sys, err := uaqetp.Open(uaqetp.DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	qs, err := sys.GenerateWorkload(workload.SelJoin, 1)
	if err != nil {
		f.Fatal(err)
	}
	srv := serve.New(serve.Config{})
	if _, err := srv.AddTenantSystem("alpha", sys, serve.SLO{}); err != nil {
		f.Fatal(err)
	}
	shard := httptest.NewServer(srv.Handler())
	defer shard.Close()
	file := &File{Seed: 42}
	file.Register("shard-0", shard.URL)
	front, err := NewFront(file, FrontConfig{FrontDoor: FrontDoorConfig{Predictive: true}})
	if err != nil {
		f.Fatal(err)
	}

	query, err := json.Marshal(qs[0])
	if err != nil {
		f.Fatal(err)
	}
	submit := []byte(`{"tenant":"alpha","query":` + string(query) + `,"deadline":1,"class":"gold","confidence":0.5}`)
	f.Add(submit)
	f.Add([]byte(`{"tenant":"alpha","query":` + string(query) + `}`))
	f.Add(bytes.Replace(submit, []byte(`"class"`), []byte(`"klass"`), 1))
	f.Add(bytes.Replace(submit, []byte(`"Name"`), []byte(`"Nome"`), 1))
	f.Add([]byte(`{"tenant":"alpha","query":[1,2]}`))
	f.Add(submit[:len(submit)/2])
	f.Add([]byte{})

	admitted := func() (n uint64) {
		for _, c := range front.fd.Counters() {
			n += c.Admitted
		}
		return n
	}
	h := front.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/submit", "/predict"} {
			before := admitted()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if rec.Code >= 500 {
				t.Fatalf("%s %q answered %d: %s", path, body, rec.Code, rec.Body)
			}
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("%s %q answered %d with a non-JSON body %q", path, body, rec.Code, rec.Body)
			}
			switch rec.Code {
			case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge:
				if after := admitted(); after != before {
					t.Fatalf("%s %q answered %d but the front door's admitted total went %d -> %d",
						path, body, rec.Code, before, after)
				}
			}
		}
		// The shard's queue bounds what an admitted submit can leave
		// behind; drain it so admissions keep being tried.
		if _, err := srv.Drain(); err != nil {
			t.Fatal(err)
		}
	})
}
