package uaqetp

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/workload"
)

// TestMeasureMatchesExecute holds the execute/measure split on a v1 and
// a v2 System: ExecuteContext is one run of the per-call measurement
// stream, and Measure(q).Actual is the mean of five runs
// of that same stream, so the execution is, bit for bit, the first run
// the measurement averages (internal/hardware's
// TestRunIsFirstMeasuredRun holds the stream's side). The plan is run
// here apart from the run cache.
func TestMeasureMatchesExecute(t *testing.T) {
	ctx := context.Background()
	for _, v := range []RNGVersion{RNGv1, RNGv2} {
		cfg := DefaultConfig()
		cfg.RNG = v
		sys, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		qs, err := sys.GenerateWorkload(workload.SelJoin, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range qs {
			actual, err := sys.ExecuteContext(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			m, err := sys.Measure(q)
			if err != nil {
				t.Fatal(err)
			}
			p, err := sys.planner.BuildPlan(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			res, err := engine.Run(sys.db, p.root)
			if err != nil {
				t.Fatal(err)
			}
			key := rng.ExecKey(cfg.Seed, q.Name, p.root.Sig)
			if first := sys.profile.RunPlanSeeded(res, v, key); actual != first {
				t.Errorf("rng %v, %s: Execute=%v, first run of its stream=%v", v, q.Name, actual, first)
			}
			if mean := sys.profile.MeasurePlanSeeded(res, v, key); m.Actual != mean {
				t.Errorf("rng %v, %s: Measure.Actual=%v, mean of its stream's runs=%v", v, q.Name, m.Actual, mean)
			}
			if m.SampleCost <= 0 || m.FullCost <= 0 || m.SampleCost >= m.FullCost {
				t.Errorf("rng %v, %s: implausible costs sample=%v full=%v", v, q.Name, m.SampleCost, m.FullCost)
			}
			if len(m.Ops) == 0 {
				t.Errorf("rng %v, %s: no selectivity observations", v, q.Name)
			}
		}
	}
}

// measureReadingsSHA256 pins Measure(q).Actual, bit for bit, per
// measurement-stream version. The literals were captured when the
// default Executor still returned the five-run mean; Measure keeps that
// protocol, so they must never move with a change to execution.
var measureReadingsSHA256 = map[RNGVersion]string{
	RNGv1: "e7615949b1225f4ab0086e0bbb936bfbc0693dc6511e217715fe2caf4a610a3e",
	RNGv2: "42af52909cb59375018e4e6ec709b6ab3666e4251d7d52a1a257ea0f3f712576",
}

// TestMeasureReadingsPinned hashes the float bits of Measure(q).Actual
// over a fixed generated SelJoin + TPCH set on a v1 and a v2 System.
// Measure is the paper's measurement protocol, read by the benchmark's
// fidelity phase and internal/exper; this is the machine check that it
// stays unchanged.
func TestMeasureReadingsPinned(t *testing.T) {
	for _, v := range []RNGVersion{RNGv1, RNGv2} {
		cfg := DefaultConfig()
		cfg.RNG = v
		sys, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var n int
		for _, b := range []workload.Benchmark{workload.SelJoin, workload.TPCH} {
			qs, err := sys.GenerateWorkload(b, 32)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range qs {
				m, err := sys.Measure(q)
				if err != nil {
					t.Fatalf("%s: %v", q.Name, err)
				}
				h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(m.Actual)))
				n++
			}
		}
		if got, want := hex.EncodeToString(h.Sum(nil)), measureReadingsSHA256[v]; got != want {
			t.Errorf("rng %v: Measure readings over %d queries hash %s, want %s", v, n, got, want)
		}
	}
}
