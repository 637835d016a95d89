// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation (Section 6 and Appendix C). Each target regenerates
// the corresponding artifact and prints it to stdout on its first
// iteration, so `go test -bench=. -benchmem` leaves a full reproduction
// transcript. Results are memoized inside the shared Lab, so the grid
// tables (4-9) reuse the runs the figures already triggered.
package uaqetp_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	uaqetp "repro"
	"repro/internal/exper"
)

var (
	benchLab     = exper.NewLab()
	benchPrinted sync.Map // report id -> struct{}: print each table once
)

// benchSizing balances fidelity against harness runtime; raise
// QueriesPerCell (e.g. via cmd/uaqp experiment -queries) for
// publication-grade grids.
func benchSizing() exper.Sizing {
	return exper.Sizing{QueriesPerCell: 32, Seed: 1}
}

func runReport(b *testing.B, id string) {
	b.Helper()
	rep, err := exper.ReportByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := rep.Gen(&buf, benchLab, benchSizing()); err != nil {
			b.Fatal(err)
		}
		if _, done := benchPrinted.LoadOrStore(id, struct{}{}); !done {
			fmt.Fprintf(os.Stdout, "\n===== %s =====\n%s\n", id, buf.String())
		}
	}
}

// BenchmarkTable1CostUnits regenerates Table 1: the five cost units as
// calibrated on both simulated machines.
func BenchmarkTable1CostUnits(b *testing.B) { runReport(b, "table1") }

// BenchmarkFigure2Correlation regenerates Figure 2: r_s and r_p versus
// sampling ratio for the three benchmark panels.
func BenchmarkFigure2Correlation(b *testing.B) { runReport(b, "figure2") }

// BenchmarkFigure3OutlierRobustness regenerates Figure 3: the outlier
// sensitivity contrast between r_s and r_p, with scatter data.
func BenchmarkFigure3OutlierRobustness(b *testing.B) { runReport(b, "figure3") }

// BenchmarkFigure4Dn regenerates Figure 4: D_n versus sampling ratio on
// the uniform 10GB databases for both machines.
func BenchmarkFigure4Dn(b *testing.B) { runReport(b, "figure4") }

// BenchmarkFigure5PrAlpha regenerates Figure 5: the proximity of the
// empirical Pr_n(alpha) to the model Pr(alpha).
func BenchmarkFigure5PrAlpha(b *testing.B) { runReport(b, "figure5") }

// BenchmarkFigure6MoreScatter regenerates Figure 6: the both-good and
// both-mediocre correlation case studies.
func BenchmarkFigure6MoreScatter(b *testing.B) { runReport(b, "figure6") }

// BenchmarkFigure8Ablations regenerates Figure 8: All vs NoVar[c] vs
// NoVar[X] vs NoCov on uniform databases at low sampling ratios.
func BenchmarkFigure8Ablations(b *testing.B) { runReport(b, "figure8") }

// BenchmarkFigure9Overhead regenerates Figure 9: the relative runtime
// overhead of sampling for TPCH queries on PC1.
func BenchmarkFigure9Overhead(b *testing.B) { runReport(b, "figure9") }

// BenchmarkFigure10AblationsSkew regenerates Figure 10 (Appendix C.3):
// the ablations on skewed databases.
func BenchmarkFigure10AblationsSkew(b *testing.B) { runReport(b, "figure10") }

// BenchmarkFigure11OverheadAll regenerates Figure 11 (Appendix C.4):
// sampling overhead for all benchmarks on both machines.
func BenchmarkFigure11OverheadAll(b *testing.B) { runReport(b, "figure11") }

// BenchmarkFigure12SelectivityScatter regenerates Figure 12 (Appendix
// C.5): estimated versus actual selectivities.
func BenchmarkFigure12SelectivityScatter(b *testing.B) { runReport(b, "figure12") }

// BenchmarkTable4CorrelationGrid regenerates Table 4: the full r_s (r_p)
// grid over benchmarks, machines, databases, and sampling ratios.
func BenchmarkTable4CorrelationGrid(b *testing.B) { runReport(b, "table4") }

// BenchmarkTable5DnGrid regenerates Table 5: the full D_n grid.
func BenchmarkTable5DnGrid(b *testing.B) { runReport(b, "table5") }

// BenchmarkTable6SelErrCorrelation regenerates Table 6: correlations
// between estimated and actual errors in selectivity estimates.
func BenchmarkTable6SelErrCorrelation(b *testing.B) { runReport(b, "table6") }

// BenchmarkTable7SelCorrelation regenerates Table 7: correlations
// between estimated and actual selectivities.
func BenchmarkTable7SelCorrelation(b *testing.B) { runReport(b, "table7") }

// BenchmarkTable8SelRelError regenerates Table 8: mean relative errors
// of the selectivity estimates.
func BenchmarkTable8SelRelError(b *testing.B) { runReport(b, "table8") }

// BenchmarkTable9LargeErrCorrelation regenerates Table 9: selectivity
// error correlations restricted to relative errors above 0.2.
func BenchmarkTable9LargeErrCorrelation(b *testing.B) { runReport(b, "table9") }

// BenchmarkPredictorLatency measures the prediction path itself
// (sampling pass + cost-function fitting + variance propagation) for a
// three-way join, supporting the paper's low-overhead claim: prediction
// cost is dominated by the sample pass, the same as the point-estimate
// predictor of [48].
func BenchmarkPredictorLatency(b *testing.B) {
	sys, err := uaqetp.Open(uaqetp.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	q := &uaqetp.Query{
		Name:   "bench-3way",
		Tables: []string{"customer", "orders", "lineitem"},
		Preds:  []uaqetp.Predicate{{Col: "o_orderdate", Op: uaqetp.Le, Lo: 1500}},
		Joins: []uaqetp.JoinCond{
			{LeftTable: "customer", LeftCol: "c_custkey", RightTable: "orders", RightCol: "o_custkey"},
			{LeftTable: "orders", LeftCol: "o_orderkey", RightTable: "lineitem", RightCol: "l_orderkey"},
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.PredictContext(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBatchSalt makes every benchmark iteration produce plans with
// fresh predicate constants, so the plan-signature memo cannot serve a
// cached sampling pass and the benchmark measures real prediction work.
var benchBatchSalt atomic.Int64

// benchBatchQueries builds a 64-query batch mixing scans, 2-way and
// 3-way joins, with salted predicate constants.
func benchBatchQueries(n int) []*uaqetp.Query {
	salt := benchBatchSalt.Add(1)
	qs := make([]*uaqetp.Query, n)
	for i := 0; i < n; i++ {
		price := int64(10000 + ((salt*int64(n)+int64(i))*911)%40000)
		switch i % 3 {
		case 0:
			qs[i] = &uaqetp.Query{
				Name:   fmt.Sprintf("b-scan-%d-%d", salt, i),
				Tables: []string{"lineitem"},
				Preds:  []uaqetp.Predicate{{Col: "l_extendedprice", Op: uaqetp.Le, Lo: price}},
			}
		case 1:
			qs[i] = &uaqetp.Query{
				Name:   fmt.Sprintf("b-join-%d-%d", salt, i),
				Tables: []string{"orders", "lineitem"},
				Preds:  []uaqetp.Predicate{{Col: "o_totalprice", Op: uaqetp.Le, Lo: price}},
				Joins: []uaqetp.JoinCond{{
					LeftTable: "orders", LeftCol: "o_orderkey",
					RightTable: "lineitem", RightCol: "l_orderkey",
				}},
			}
		default:
			qs[i] = &uaqetp.Query{
				Name:   fmt.Sprintf("b-3way-%d-%d", salt, i),
				Tables: []string{"customer", "orders", "lineitem"},
				Preds:  []uaqetp.Predicate{{Col: "o_totalprice", Op: uaqetp.Le, Lo: price}},
				Joins: []uaqetp.JoinCond{
					{LeftTable: "customer", LeftCol: "c_custkey", RightTable: "orders", RightCol: "o_custkey"},
					{LeftTable: "orders", LeftCol: "o_orderkey", RightTable: "lineitem", RightCol: "l_orderkey"},
				},
			}
		}
	}
	return qs
}

// BenchmarkPredictBatch contrasts a serial Predict loop against the
// pooled PredictBatch on a 64-query batch — the throughput trajectory
// behind the paper's batch consumers (admission control, scheduling,
// plan selection). Worker counts above the machine's core count cost
// only scheduling overhead, so the pooled targets approach serial
// throughput on one core and scale with cores elsewhere.
func BenchmarkPredictBatch(b *testing.B) {
	sys, err := uaqetp.Open(uaqetp.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	const batch = 64
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, q := range benchBatchQueries(batch) {
				if _, err := sys.PredictContext(context.Background(), q); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	for _, workers := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sys.PredictBatchContext(context.Background(), benchBatchQueries(batch), uaqetp.WithWorkers(workers)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
