package shard

import (
	"bytes"
	"encoding/json"
	"io"
	"maps"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
)

// hopBody is the last body the fixture's shard received, split into its
// fields as raw JSON.
func (fx *hopFixture) hopBody(t *testing.T) map[string]json.RawMessage {
	t.Helper()
	fx.mu.Lock()
	body := fx.lastBody
	fx.mu.Unlock()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("hop body %q: %v", body, err)
	}
	return m
}

// postRaw posts body as it is and returns the status and reply bytes.
func postRaw(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, reply
}

// TestFrontForwardsTheClientsQuery: the front forwards a compact query
// as the client's bytes, without decoding and re-encoding it. The hand-written
// query uses lowercase keys in an order of its own, leaves out zero
// fields and has <, > and & in its name, all of which a decode and
// re-encode would rewrite; the generated ones are compact JSON. Both hops carry only tenant and
// query, plus deadline and shed_below on a predictive /submit.
func TestFrontForwardsTheClientsQuery(t *testing.T) {
	fx := newHopFixture(t, FrontConfig{FrontDoor: FrontDoorConfig{Predictive: true}, Confidence: 0.9})
	queries := []string{`{"tables":["customer"],"preds":[{"op":1,"lo":2000,"col":"c_acctbal"}],"name":"<hand & written>"}`}
	for _, q := range fx.qs {
		b, err := json.Marshal(q)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, string(b))
	}
	for _, q := range queries {
		for _, c := range []struct {
			path, extra string
			fields      []string
		}{
			{"/predict", ``, []string{"query", "tenant"}},
			{"/submit", `,"deadline":100`, []string{"deadline", "query", "shed_below", "tenant"}},
		} {
			hops := fx.hops.Load()
			status, reply := postRaw(t, fx.url+c.path, `{"tenant":"alpha","query":`+q+c.extra+`}`)
			if status != http.StatusOK {
				t.Fatalf("%s %s: status %d: %s", c.path, q, status, reply)
			}
			if n := fx.hops.Load() - hops; n != 1 {
				t.Errorf("%s: %d hops, want 1", c.path, n)
			}
			hop := fx.hopBody(t)
			if got := string(hop["query"]); got != q {
				t.Errorf("%s: the shard received query\n%s\nwant the client's bytes\n%s", c.path, got, q)
			}
			if fields := slices.Sorted(maps.Keys(hop)); !slices.Equal(fields, c.fields) {
				t.Errorf("%s: hop fields %v, want %v", c.path, fields, c.fields)
			}
		}
		if _, err := fx.srv.Drain(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFrontRelaysQueryErrors: a body whose envelope is valid but whose
// query the shard refuses — an unknown field inside it, a field of the
// wrong type, a query that is not an object — makes exactly one hop,
// and the front's reply is byte-equal to the shard's own reply to the
// same body. On /submit the refused body's token comes back: the front
// door's admitted count does not move.
func TestFrontRelaysQueryErrors(t *testing.T) {
	fx := newHopFixture(t, FrontConfig{FrontDoor: FrontDoorConfig{Rate: 1e-9, Burst: 1, Predictive: true}})
	for _, c := range []struct{ query, want string }{
		{`{"Name":"q","Tables":["orders"],"Bogus":1}`, `unknown field \"Bogus\"`},
		{`{"Name":"q","Tables":["orders"],"Preds":[{"Col":"o_totalprice","Op":1,"Lo":5,"Typo":0}]}`, `unknown field \"Typo\"`},
		{`{"Name":"q","Tables":"orders"}`, `Tables of type []string`},
		{`7`, `.query of type`},
	} {
		for _, path := range []string{"/predict", "/submit"} {
			body := `{"tenant":"alpha","query":` + c.query + `,"deadline":1}`
			if path == "/predict" {
				body = `{"tenant":"alpha","query":` + c.query + `}`
			}
			direct, want := postRaw(t, fx.shardURL+path, body)
			hops, admitted := fx.hops.Load(), fx.counters("alpha").Admitted
			status, got := postRaw(t, fx.url+path, body)
			if status != http.StatusBadRequest || direct != status || !bytes.Equal(got, want) {
				t.Errorf("%s %s: front answered %d %s, shard %d %s; want the shard's 400 verbatim", path, c.query, status, got, direct, want)
			}
			if !bytes.Contains(got, []byte(c.want)) {
				t.Errorf("%s %s: reply %s does not name %s", path, c.query, got, c.want)
			}
			if n := fx.hops.Load() - hops; n != 1 {
				t.Errorf("%s %s: %d hops, want 1", path, c.query, n)
			}
			if a := fx.counters("alpha").Admitted; a != admitted {
				t.Errorf("%s %s: front door admitted %d -> %d, want the token returned", path, c.query, admitted, a)
			}
		}
	}
	// The one token is still in the bucket.
	if status, r := fx.submit(t, "alpha", fx.qs[0], 100, 0); status != http.StatusOK || !r.Admitted {
		t.Errorf("a valid submit after the refused ones: status %d %+v", status, r)
	}
}

// TestFrontReusesShardConnections: the front keeps its shard
// connections open between hops, so one client on its own opens one
// shard connection, and n clients in flight at once open at most n.
// The n clients' first requests are held at the shard until all n have
// arrived, so the n connections are dialed while none is idle; from
// then on every request finds one idle.
func TestFrontReusesShardConnections(t *testing.T) {
	fx := newHopFixture(t, FrontConfig{})
	body, err := json.Marshal(map[string]any{"tenant": "alpha", "query": fx.qs[0]})
	if err != nil {
		t.Fatal(err)
	}
	predict := func() {
		resp, err := http.Post(fx.url+"/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("predict: status %d", resp.StatusCode)
		}
	}
	const each = 30
	for range each {
		predict()
	}
	if n := fx.conns.Load(); n != 1 {
		t.Errorf("one client making %d requests: the shard accepted %d connections, want 1", each, n)
	}

	const clients = 8
	var arrived sync.WaitGroup
	arrived.Add(clients)
	fx.mu.Lock()
	fx.hold = func() { arrived.Done(); arrived.Wait() }
	fx.mu.Unlock()
	run := func(requests int) {
		var wg sync.WaitGroup
		for range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range requests {
					predict()
				}
			}()
		}
		wg.Wait()
	}
	run(1)
	fx.mu.Lock()
	fx.hold = nil
	fx.mu.Unlock()
	run(each)
	if n := fx.conns.Load(); n > clients {
		t.Errorf("%d clients making %d requests each: the shard accepted %d connections, want at most %d",
			clients, each+1, n, clients)
	}
}
