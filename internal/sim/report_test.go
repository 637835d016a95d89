package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/stats"
)

// TestReportCountersMatchServerStats holds the report's tenant counters
// to an independent oracle: on short runs of the shipped bursty,
// heterogeneous and sharded scenarios, each machine serves exactly one
// tenant per group, named after the group; each group's counters equal
// the sums over every machine's serve.Stats() entries, matched by name;
// and each machine's clock equals its Stats().Clock. The fleet latency equals a summary of the groups'
// concatenated samples, also where one group's summary stands in for it.
func TestReportCountersMatchServerStats(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, tc := range []struct {
		file    string
		horizon float64
	}{
		{"scenario.json", 20},
		{"scenario-hetero.json", 20},
		{"scenario-sharded.json", 5},
	} {
		t.Run(tc.file, func(t *testing.T) {
			sc := loadShipped(t, tc.file)
			sc.Horizon = tc.horizon
			rs, sys, cache := openScenario(t, sc)
			s, err := newRun(rs, sys, cache, runSinks{})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.loop(); err != nil {
				t.Fatal(err)
			}
			rep := s.report()

			groupOf := make(map[string]int, len(s.sc.Tenants))
			for gi, spec := range s.sc.Tenants {
				groupOf[spec.Name] = gi
			}
			want := make(map[string]TenantReport, len(s.sc.Tenants))
			var registered int
			for m, ms := range s.machines {
				st := ms.srv.Stats()
				if rep.PerMachine[m].Clock != st.Clock {
					t.Errorf("machine %d: clock %g, Stats says %g", m, rep.PerMachine[m].Clock, st.Clock)
				}
				if len(st.Tenants) != len(s.sc.Tenants) {
					t.Errorf("machine %d serves %d tenants, want one per group (%d)", m, len(st.Tenants), len(s.sc.Tenants))
				}
				for _, ts := range st.Tenants {
					if _, ok := groupOf[ts.Name]; !ok {
						t.Fatalf("machine %d serves %q, which names no tenant group", m, ts.Name)
					}
					registered++
					name := ts.Name
					tr := want[name]
					tr.Admitted += int(ts.Admitted)
					tr.Rejected += int(ts.Rejected)
					tr.Executed += int(ts.Executed)
					tr.ExecFailed += int(ts.ExecFailed)
					tr.DeadlinesMet += int(ts.DeadlinesMet)
					tr.DeadlinesMissed += int(ts.DeadlinesMissed)
					tr.Recalibrations += ts.Recalibrations
					tr.AutoRecalibrations += ts.AutoRecalibrations
					want[name] = tr
				}
			}
			if registered == 0 || len(rep.Tenants) != len(s.sc.Tenants) {
				t.Fatalf("%d registered tenants, %d report rows for %d groups", registered, len(rep.Tenants), len(s.sc.Tenants))
			}
			var executed int
			for _, got := range rep.Tenants {
				w := want[got.Name]
				executed += got.Executed
				if got.Admitted != w.Admitted || got.Rejected != w.Rejected || got.Executed != w.Executed ||
					got.ExecFailed != w.ExecFailed || got.DeadlinesMet != w.DeadlinesMet ||
					got.DeadlinesMissed != w.DeadlinesMissed || got.Recalibrations != w.Recalibrations ||
					got.AutoRecalibrations != w.AutoRecalibrations {
					t.Errorf("group %s: report %+v, machines' Stats sum to %+v", got.Name, got, w)
				}
			}
			if executed == 0 {
				t.Fatal("nothing executed: the oracle compares zeros")
			}

			if want, _ := summarize(slices.Concat(s.groupLat...), nil); rep.Latency != want {
				t.Errorf("fleet latency %+v, summary of the concatenated samples %+v", rep.Latency, want)
			}
		})
	}
}

// summarizeReference is summarize as it was before the radix kernel:
// slices.Sort, then the same ranks and ascending sum.
func summarizeReference(xs []float64) Quantiles {
	slices.Sort(xs)
	q := Quantiles{N: len(xs)}
	if len(xs) == 0 {
		return q
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	rank := func(p float64) float64 {
		return xs[max(int(math.Ceil(p*float64(len(xs))))-1, 0)]
	}
	q.Mean = sum / float64(len(xs))
	q.P50, q.P90, q.P95, q.P99 = rank(0.50), rank(0.90), rank(0.95), rank(0.99)
	q.Max = xs[len(xs)-1]
	return q
}

// TestSummarizeMatchesReference holds summarize, and the order it
// leaves its sample in, to the slices.Sort reference on latency-like
// samples below and above the radix kernel's cutoff, one scratch buffer
// reused across them as the report does.
func TestSummarizeMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var scratch []uint64
	for _, n := range []int{0, 1, 2, 7, 1000, 2047, 2048, 2049, 60000} {
		for _, dup := range []bool{false, true} {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = r.ExpFloat64() * 0.4
				if dup {
					xs[i] = float64(r.Intn(20)) * 0.125
				}
			}
			ref := slices.Clone(xs)
			var got Quantiles
			got, scratch = summarize(xs, scratch)
			if want := summarizeReference(ref); got != want || !slices.Equal(xs, ref) {
				t.Errorf("n=%d dup=%v: summarize %+v, reference %+v", n, dup, got, want)
			}
		}
	}
}

// TestMachinesKeepNoDriftFeedbackWithoutCadence checks who keeps the
// calibration record. Without recal_every no machine's server feeds its
// drift loop, since nothing would read it, while the report's
// calibration section, the simulator's own, counts every execution.
// With recal_every set, the servers record again for their cadence.
func TestMachinesKeepNoDriftFeedbackWithoutCadence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	observations := func(sc Scenario) (drift, executed int, calibrated int64) {
		rs, sys, cache := openScenario(t, sc)
		s, err := newRun(rs, sys, cache, runSinks{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.loop(); err != nil {
			t.Fatal(err)
		}
		for _, ms := range s.machines {
			for _, ts := range ms.srv.Stats().Tenants {
				drift += ts.Drift.Observations
			}
		}
		rep := s.report()
		for _, tr := range rep.Tenants {
			executed += tr.Executed
		}
		if rep.Calibration != nil {
			calibrated = rep.Calibration.Overall.N
		}
		return drift, executed, calibrated
	}

	sc := testScenario()
	sc.Horizon = 5
	drift, executed, calibrated := observations(sc)
	if executed == 0 {
		t.Fatal("nothing executed")
	}
	if drift != 0 {
		t.Errorf("without recal_every the servers recorded %d drift observations, want 0", drift)
	}
	if calibrated != int64(executed) {
		t.Errorf("report calibration counts %d observations, want one per execution (%d)", calibrated, executed)
	}

	sc.RecalEvery = 1e9
	if drift, executed, _ := observations(sc); drift != executed {
		t.Errorf("under recal_every the servers recorded %d drift observations, want one per execution (%d)", drift, executed)
	}
}

func TestJainIndexEdges(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty is fair", nil, 1},
		{"all zero is fair", []float64{0, 0, 0}, 1},
		{"equal is fair", []float64{0.7, 0.7, 0.7, 0.7}, 1},
		{"single taker is 1/n", []float64{1, 0, 0, 0}, 0.25},
		// (1+0.5)^2 / (2 * (1 + 0.25)) = 2.25/2.5.
		{"known two-point value", []float64{1, 0.5}, 0.9},
	}
	for _, c := range cases {
		if got := stats.JainIndex(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: stats.JainIndex(%v) = %v, want %v", c.name, c.xs, got, c.want)
		}
	}
	// The index is scale-invariant: doubling every allocation changes
	// nothing about its fairness.
	a := stats.JainIndex([]float64{0.2, 0.4, 0.8})
	b := stats.JainIndex([]float64{0.4, 0.8, 1.6})
	if math.Abs(a-b) > 1e-12 {
		t.Errorf("JainIndex not scale-invariant: %v vs %v", a, b)
	}
	if a <= 1.0/3 || a >= 1 {
		t.Errorf("unequal allocation index %v outside (1/n, 1)", a)
	}
}
