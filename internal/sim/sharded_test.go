package sim

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/internal/trace"
)

// shardedScenario is the sharded determinism workhorse: 10k tenants in
// one Count group placed by the directory over 4 shards of one machine
// each, with the front door and the modeled cache tier on. Per-member
// rates are tiny, so the offered load stays a few thousand arrivals.
func shardedScenario() Scenario {
	return Scenario{
		Name:     "sharded-test",
		Seed:     7,
		Horizon:  20,
		Machines: FleetOf(4),
		Router:   RouterLeastRisk,
		DB:       "uniform-1G",
		Shards: &ShardsSpec{
			Count:     4,
			FrontDoor: &FrontDoorSpec{Rate: 200, Burst: 50, Predictive: true},
			CacheTier: &CacheTierSpec{LocalFraction: 0.75, RemoteLatency: 0.002},
		},
		Tenants: []TenantSpec{{
			Name:     "grid",
			Count:    10000,
			Bench:    "seljoin",
			Queries:  8,
			Deadline: 1.2,
			SLO:      serve.SLO{Confidence: 0.9, DefaultDeadline: 1.2, Quantile: 0.9},
			Arrivals: ArrivalSpec{Process: processPoisson, Rate: 0.02},
		}},
	}
}

// TestSharded10kTenantsDeterministic is the tentpole's determinism
// acceptance: a 10k-tenant sharded scenario produces byte-identical
// reports and traces per (scenario, seed) across repeated runs and
// GOMAXPROCS settings.
func TestSharded10kTenantsDeterministic(t *testing.T) {
	sc := shardedScenario()
	r1, ev1, err := runRecorded(sc, trace.Decisions)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Arrivals < 2000 {
		t.Fatalf("scenario too small to mean anything: %d arrivals", r1.Arrivals)
	}
	if r1.Shards == nil || len(r1.Shards.PerShard) != 4 {
		t.Fatalf("report shards section missing or wrong size: %+v", r1.Shards)
	}
	total := 0
	for _, sr := range r1.Shards.PerShard {
		if sr.Tenants == 0 {
			t.Fatalf("shard %d got no tenants out of 10000", sr.Shard)
		}
		total += sr.Tenants
	}
	if total != 10000 {
		t.Fatalf("per-shard tenant counts sum to %d, want 10000", total)
	}
	if r1.Shards.CacheTier == nil || r1.Shards.CacheTier.RemoteLookups == 0 {
		t.Fatalf("cache tier not modeled: %+v", r1.Shards.CacheTier)
	}

	j1, err := r1.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var t1 bytes.Buffer
	if err := trace.WriteJSONL(&t1, ev1); err != nil {
		t.Fatal(err)
	}

	check := func(label string, sc Scenario) {
		t.Helper()
		r, ev, err := runRecorded(sc, trace.Decisions)
		if err != nil {
			t.Fatal(err)
		}
		j, err := r.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(j1, j) {
			t.Fatalf("%s: report not byte-identical", label)
		}
		var tb bytes.Buffer
		if err := trace.WriteJSONL(&tb, ev); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(t1.Bytes(), tb.Bytes()) {
			t.Fatalf("%s: trace not byte-identical", label)
		}
	}

	check("repeat run", sc)

	prev := runtime.GOMAXPROCS(1)
	check("GOMAXPROCS=1", sc)
	runtime.GOMAXPROCS(prev)
}

// TestShardedSingleShardDegeneratesToFlat pins the degenerate topology:
// all tenants on one shard of the whole fleet is the flat fleet — the
// report matches the unsharded run exactly, minus the shards section.
func TestShardedSingleShardDegeneratesToFlat(t *testing.T) {
	flat := testScenario()
	sharded := testScenario()
	sharded.Shards = &ShardsSpec{Count: 1}

	fr, err := Run(flat)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := Run(sharded)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Shards == nil || sr.Shards.Count != 1 {
		t.Fatalf("sharded run lost its shards section: %+v", sr.Shards)
	}
	sr.Shards = nil
	if !reflect.DeepEqual(fr, sr) {
		fj, _ := fr.JSON()
		sj, _ := sr.JSON()
		t.Fatalf("single-shard report differs from flat report:\n%s\nvs\n%s", fj, sj)
	}
}

// TestPredictiveSheddingBeatsTokenOnly is the pinned acceptance
// comparison: under flash load — a storm tenant whose deadline no
// machine can meet, competing for front-door tokens with a feasible
// gold tenant — predictive admission sheds the hopeless storm *without
// spending tokens*, so the gold tenant keeps its token budget and the
// fleet attains strictly more SLOs than with the token bucket alone.
func TestPredictiveSheddingBeatsTokenOnly(t *testing.T) {
	base := Scenario{
		Name:     "flash",
		Seed:     5,
		Horizon:  20,
		Machines: FleetOf(2),
		Router:   RouterLeastRisk,
		DB:       "uniform-1G",
		Shards: &ShardsSpec{
			Count:     1,
			FrontDoor: &FrontDoorSpec{Rate: 8, Burst: 8},
		},
		Tenants: []TenantSpec{
			{
				Name:     "gold",
				Bench:    "seljoin",
				Queries:  8,
				Deadline: 1.2,
				SLO:      serve.SLO{Confidence: 0.9, DefaultDeadline: 1.2, Quantile: 0.9},
				Arrivals: ArrivalSpec{Process: processPoisson, Rate: 6},
			},
			{
				// The flash flood: four times the gold rate, with a deadline
				// no machine can meet — every admitted token is wasted.
				Name:     "storm",
				Bench:    "seljoin",
				Queries:  8,
				Deadline: 0.0001,
				SLO:      serve.SLO{Confidence: 0.99, DefaultDeadline: 0.0001, Quantile: 0.9},
				Arrivals: ArrivalSpec{Process: processPoisson, Rate: 24},
			},
		},
	}

	tokenOnly, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	pred := base
	pred.Shards = &ShardsSpec{Count: 1, FrontDoor: &FrontDoorSpec{Rate: 8, Burst: 8, Predictive: true}}
	predictive, err := Run(pred)
	if err != nil {
		t.Fatal(err)
	}

	if predictive.Arrivals != tokenOnly.Arrivals {
		t.Fatalf("front door changed the offered load: %d vs %d arrivals",
			predictive.Arrivals, tokenOnly.Arrivals)
	}
	if predictive.SLOAttainment <= tokenOnly.SLOAttainment {
		t.Fatalf("predictive front-door attainment %.4f not above token-only %.4f",
			predictive.SLOAttainment, tokenOnly.SLOAttainment)
	}

	// The mechanism, pinned through the per-class counters: predictive
	// sheds the storm class predictively, and the token-only run throttled
	// requests the predictive run did not.
	classes := func(r *Report) map[string]ClassReport {
		if r.Shards == nil || r.Shards.FrontDoor == nil {
			t.Fatalf("report missing front-door section")
		}
		out := make(map[string]ClassReport)
		for _, c := range r.Shards.FrontDoor.Classes {
			out[c.Class] = c
		}
		return out
	}
	pc, tc := classes(predictive), classes(tokenOnly)
	if pc["storm"].ShedPredictive == 0 {
		t.Fatalf("predictive run shed no storm traffic predictively: %+v", pc)
	}
	if tc["storm"].ShedPredictive != 0 || tc["gold"].ShedPredictive != 0 {
		t.Fatalf("token-only run shed predictively: %+v", tc)
	}
	if pc["gold"].ShedThrottled >= tc["gold"].ShedThrottled {
		t.Fatalf("predictive run throttled gold %d times, token-only %d — tokens were not preserved",
			pc["gold"].ShedThrottled, tc["gold"].ShedThrottled)
	}

	// Per-tenant sheds surface in the report and count into Submitted.
	for _, r := range []*Report{predictive, tokenOnly} {
		for _, tr := range r.Tenants {
			if tr.Submitted != tr.Admitted+tr.Rejected+tr.Shed {
				t.Fatalf("tenant %s: submitted %d != admitted %d + rejected %d + shed %d",
					tr.Name, tr.Submitted, tr.Admitted, tr.Rejected, tr.Shed)
			}
		}
	}
}

// TestShardedValidation rejects malformed shards blocks and tenant
// groups with clear errors.
func TestShardedValidation(t *testing.T) {
	cases := []struct {
		mutate func(*Scenario)
		want   string
	}{
		{func(sc *Scenario) { sc.Shards = &ShardsSpec{Count: 0} }, "at least 1"},
		{func(sc *Scenario) { sc.Shards = &ShardsSpec{Count: 5} }, "cannot form"},
		// The vnodes rule is the directory's own, checked at resolve.
		{func(sc *Scenario) { sc.Shards = &ShardsSpec{Count: 2, VNodes: -1} }, "vnodes -1"},
		{func(sc *Scenario) { sc.Shards = &ShardsSpec{Count: 2, VNodes: 4097} }, "vnodes 4097 out of [0, 4096]"},
		{func(sc *Scenario) { sc.Shards = &ShardsSpec{Count: 2, FrontDoor: &FrontDoorSpec{Rate: -1}} }, "front_door"},
		{func(sc *Scenario) { sc.Shards = &ShardsSpec{Count: 2, CacheTier: &CacheTierSpec{LocalFraction: 1.5}} }, "local_fraction"},
		{func(sc *Scenario) {
			sc.Shards = &ShardsSpec{Count: 2, CacheTier: &CacheTierSpec{LocalFraction: 0.5, RemoteLatency: -1}}
		}, "remote_latency"},
		{func(sc *Scenario) { sc.Tenants[0].Count = -1 }, "negative count"},
		// Zero selects a default; a negative knob is rejected by name.
		{func(sc *Scenario) { sc.Machines = FleetOf(-3) }, "machines: negative count -3"},
		{func(sc *Scenario) { sc.Tenants[0].Queries = -1 }, "queries -1"},
		{func(sc *Scenario) { sc.CacheCapacity = -1 }, "cache_capacity -1"},
		{func(sc *Scenario) { sc.MaxQueue = -1 }, "max_queue -1"},
		{func(sc *Scenario) { sc.RecalEvery = -1 }, "recal_every -1"},
		{func(sc *Scenario) { sc.SamplingRatio = -0.1 }, "sampling_ratio -0.1"},
	}
	for i, c := range cases {
		sc := testScenario()
		c.mutate(&sc)
		_, err := sc.resolve()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: error %v does not contain %q", i, err, c.want)
		}
	}
}

// TestFrontDoorReportsResolvedBurst: a front door whose scenario omits
// burst reports the capacity its bucket holds, max(rate, 1), not the
// zero it was given.
func TestFrontDoorReportsResolvedBurst(t *testing.T) {
	for _, c := range []struct{ rate, want float64 }{{300, 300}, {0.5, 1}} {
		sc := shardedScenario()
		sc.Horizon = 2
		sc.Shards.FrontDoor = &FrontDoorSpec{Rate: c.rate, Predictive: true}
		rep, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Shards.FrontDoor.Burst; got != c.want {
			t.Errorf("rate %g with burst omitted: report says burst %g, want %g", c.rate, got, c.want)
		}
	}
}

// TestFrontDoorEventsNameTheArrival: a request shed at the front door
// never reaches a server, yet its trace event names it exactly as an
// admitted arrival's execution is named, member/template#ordinal, and
// no two arrivals share a name across front-door and placement events.
func TestFrontDoorEventsNameTheArrival(t *testing.T) {
	sc := shardedScenario()
	sc.Horizon = 5
	_, events, err := runRecorded(sc, trace.Decisions)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	var shed int
	for _, ev := range events {
		frontDoor := ev.Kind == trace.KindAdmission && ev.Reason == "front-door"
		if !frontDoor && ev.Kind != trace.KindPlacement {
			continue
		}
		if frontDoor {
			shed++
		}
		rest, ok := strings.CutPrefix(ev.Query, ev.Tenant+"/")
		_, ord, hash := strings.Cut(rest, "#")
		if !ok || !hash || len(ord) < 5 || strings.Trim(ord, "0123456789") != "" {
			t.Fatalf("%s event names %q for member %q, want member/template#ordinal", ev.Kind, ev.Query, ev.Tenant)
		}
		if seen[ev.Query] {
			t.Fatalf("two arrivals named %q", ev.Query)
		}
		seen[ev.Query] = true
	}
	if shed == 0 {
		t.Fatal("nothing shed at the front door: the check is vacuous")
	}
}
