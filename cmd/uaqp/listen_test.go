package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"testing"
	"time"

	uaqetp "repro"
	"repro/internal/serve"
	"repro/internal/workload"
)

// TestServeUntilDoneDrainsOnShutdown: a request admitted while the
// dispatcher is between ticks is still executed when the serving context
// ends — the shutdown path runs the caller's cleanup (the dispatcher's
// final drain) and returns nil, and the listener is closed.
func TestServeUntilDoneDrainsOnShutdown(t *testing.T) {
	srv := serve.New(serve.Config{})
	tenant, err := srv.AddTenant("alpha", uaqetp.DefaultConfig(), serve.SLO{Confidence: 0.9, DefaultDeadline: 100})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := tenant.System().GenerateWorkload(workload.SelJoin, 1)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// An hour between ticks: only the final drain can execute the work.
	stop := srv.StartDispatcher(time.Hour)
	cleaned := false
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- serveUntilDone(ctx, ln, srv.Handler(), func() { stop(); cleaned = true })
	}()

	url := "http://" + ln.Addr().String()
	body, err := json.Marshal(serve.Request{Tenant: "alpha", Query: qs[0]})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if st := srv.Stats(); st.QueueLen != 1 || st.Tenants[0].Executed != 0 {
		t.Fatalf("before shutdown: queue %d, executed %d; want the admitted request still queued", st.QueueLen, st.Tenants[0].Executed)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("serveUntilDone returned %v, want nil", err)
	}
	if !cleaned {
		t.Error("cleanup did not run")
	}
	if st := srv.Stats(); st.QueueLen != 0 || st.Tenants[0].Executed != 1 {
		t.Errorf("after shutdown: queue %d, executed %d; want the final drain to have run the request", st.QueueLen, st.Tenants[0].Executed)
	}
	if resp, err := http.Get(url + "/healthz"); err == nil {
		resp.Body.Close()
		t.Error("listener still answers after shutdown")
	}
}
