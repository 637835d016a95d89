// Command shard demonstrates the sharded serving topology over real
// HTTP: three `uaqp serve`-style shard processes (separate listeners on
// loopback ports, each its own serve.Server) register in a static
// directory file, a front process builds the consistent-hash directory
// from that file and routes tenant traffic to the owning shard — and
// the front door sheds hopeless work: when the optimistic zero-wait
// bound P(T_q <= d), checked by the shard inside the one /submit hop,
// already rules the deadline out, the request is shed and its token is
// returned. The demo checks its own outcome and exits 1 when a feasible
// submit is not admitted, the hopeless one is not shed predictively, or
// the front's /metrics does not count that shed.
//
// The same topology runs as genuinely separate OS processes with:
//
//	uaqp serve -addr :8101 -shard shard-0 -dir dir.json
//	uaqp serve -addr :8102 -shard shard-1 -dir dir.json
//	uaqp front -addr :8090 -dir dir.json -rate 100 -predictive
//
// (see run.sh next to this file).
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	uaqetp "repro"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/workload"
)

func main() {
	fmt.Println("Sharded serving demo (3 shards + front door over HTTP)")
	fmt.Println()

	dir, err := os.MkdirTemp("", "uaqp-shard-demo")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	dirFile := filepath.Join(dir, "dir.json")

	// Start three shard servers on loopback ports and register each in
	// the directory file — exactly what `uaqp serve -shard NAME -dir
	// FILE` does per process.
	file := &shard.File{Seed: 42}
	servers := make(map[string]*serve.Server, 3)
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("shard-%d", i)
		srv := serve.New(serve.Config{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		go http.Serve(ln, srv.Handler())
		file.Register(name, "http://"+ln.Addr().String())
		servers[name] = srv
		fmt.Printf("  %s listening on %s\n", name, ln.Addr())
	}
	if err := file.Save(dirFile); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  directory file: %s\n\n", dirFile)

	// The front builds the consistent-hash directory from the file: a
	// token bucket plus predictive shedding guard the whole fleet.
	front, err := shard.NewFront(file, shard.FrontConfig{
		FrontDoor:  shard.FrontDoorConfig{Rate: 100, Burst: 10, Predictive: true},
		Confidence: 0.9,
	})
	if err != nil {
		log.Fatal(err)
	}
	fln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(fln, front.Handler())
	frontURL := "http://" + fln.Addr().String()
	fmt.Printf("front listening on %s\n\n", fln.Addr())

	// Tenants live only on the shard the directory places them on: ask
	// the front where each belongs, then create it there — the serving
	// state never spans shards.
	slo := serve.SLO{Confidence: 0.9, DefaultDeadline: 1.0}
	tenants := []string{"alpha", "beta", "gamma", "delta"}
	var queries []*uaqetp.Query
	for _, name := range tenants {
		placed := front.Directory().Place(name)
		t, err := servers[placed].AddTenant(name, uaqetp.DefaultConfig(), slo)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("tenant %-6s -> %s\n", name, placed)
		if queries == nil {
			if queries, err = t.System().GenerateWorkload(workload.SelJoin, 4); err != nil {
				log.Fatal(err)
			}
		}
	}
	fmt.Println()

	// Submit through the front: feasible deadlines forward to the
	// owning shard; a hopeless deadline is shed for the front door and
	// its token is returned. submit answers the outcome it printed.
	submit := func(tenant string, q *uaqetp.Query, deadline float64) string {
		body, _ := json.Marshal(map[string]any{
			"tenant": tenant, "query": q, "deadline": deadline,
		})
		resp, err := http.Post(frontURL+"/submit", "application/json", bytes.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		var v struct {
			Verdict  string  `json:"verdict"`
			Admitted bool    `json:"admitted"`
			Shard    string  `json:"shard"`
			PMeet    float64 `json:"p_meet"`
		}
		json.Unmarshal(out, &v)
		fmt.Printf("  %-6s %-14s d=%-8g -> ", tenant, q.Name, deadline)
		switch {
		case resp.StatusCode == http.StatusTooManyRequests && v.Verdict != "":
			fmt.Printf("%s (front door, shard %s, P=%.4f)\n", v.Verdict, v.Shard, v.PMeet)
			return v.Verdict
		case resp.StatusCode == http.StatusOK && v.Admitted:
			fmt.Println("admitted by its shard")
			return "admitted"
		}
		fmt.Printf("status %d: %s\n", resp.StatusCode, out)
		return fmt.Sprint("status ", resp.StatusCode)
	}
	failed := false
	expect := func(ok bool, what string) {
		if !ok {
			failed = true
			fmt.Println("FAIL:", what)
		}
	}

	fmt.Println("submissions through the front:")
	for i, tenant := range tenants {
		expect(submit(tenant, queries[i%len(queries)], 1.0) == "admitted", tenant+": feasible submit not admitted by its shard")
	}
	// The flash-flood shape: a deadline no machine can meet is shed
	// predictively, and the token it reserved goes back to the bucket.
	expect(submit("alpha", queries[0], 0.0001) == string(shard.VerdictShedPredictive), "hopeless submit not shed predictively")
	fmt.Println()

	// Drain the admitted work shard-side and show the front's counters.
	for name, srv := range servers {
		if outs, err := srv.Drain(); err == nil && len(outs) > 0 {
			fmt.Printf("%s drained %d request(s)\n", name, len(outs))
		}
	}
	resp, err := http.Get(frontURL + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	metrics, _ := io.ReadAll(resp.Body)
	fmt.Println("\nfront /metrics:")
	fmt.Println(string(metrics))
	line := `uaqp_front_shed_total{class="alpha",reason="predictive"} 1` + "\n"
	expect(strings.Contains(string(metrics), line), "front /metrics does not count one predictive shed")
	if failed {
		os.RemoveAll(dir)
		os.Exit(1)
	}
}
