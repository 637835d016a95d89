package exper

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Sizing controls how large the regenerated experiments are. The paper's
// grids are preserved; only the per-cell query counts scale.
type Sizing struct {
	// QueriesPerCell is the number of workload queries per setting.
	QueriesPerCell int
	Seed           int64
}

// The paper's standard sampling-ratio grid.
var standardSRs = []float64{0.01, 0.05, 0.1}

// Low sampling ratios for the ablation study (Section 6.3.3 uses ratios
// below 1% to surface the Var[X] and Cov effects).
var lowSRs = []float64{0.0005, 0.001, 0.005, 0.01}

var allDBs = []datagen.DBKind{
	datagen.Uniform1G, datagen.Skewed1G, datagen.Uniform10G, datagen.Skewed10G,
}

var machines = []string{"PC1", "PC2"}

func (z Sizing) setting(b workload.Benchmark, db datagen.DBKind, machine string, sr float64, v core.Variant) Setting {
	return Setting{
		Bench: b, DB: db, Machine: machine, SR: sr, Variant: v,
		NumQueries: z.QueriesPerCell, Seed: z.Seed,
	}
}

// table1CostUnits prints the calibrated cost units (mean and standard
// deviation) per machine — the content of Table 1 realized on the
// simulated hardware.
func table1CostUnits(w io.Writer, lab *Lab, z Sizing) error {
	fmt.Fprintln(w, "Table 1: calibrated cost units (seconds per operation)")
	fmt.Fprintf(w, "%-8s %-6s %-14s %-14s\n", "machine", "unit", "mean", "stddev")
	for _, m := range machines {
		sys, err := lab.systemFor(z.setting(workload.Micro, datagen.Uniform1G, m, standardSRs[1], core.All))
		if err != nil {
			return err
		}
		units := sys.UnitDists()
		for i, u := range []string{"cs", "cr", "ct", "ci", "co"} {
			d := units[i]
			fmt.Fprintf(w, "%-8s %-6s %-14.4g %-14.4g\n", m, u, d.Mu, d.Sigma)
		}
	}
	return nil
}

// figure2Panels are the three panels of Figure 2.
var figure2Panels = []struct {
	label   string
	bench   workload.Benchmark
	db      datagen.DBKind
	machine string
}{
	{"(a) MICRO, Uniform 1GB, PC2", workload.Micro, datagen.Uniform1G, "PC2"},
	{"(b) SELJOIN, Uniform 1GB, PC1", workload.SelJoin, datagen.Uniform1G, "PC1"},
	{"(c) TPCH, Skewed 10GB, PC1", workload.TPCH, datagen.Skewed10G, "PC1"},
}

// figure2Correlation regenerates Figure 2: r_s and r_p versus sampling
// ratio for the three panels.
func figure2Correlation(w io.Writer, lab *Lab, z Sizing) error {
	fmt.Fprintln(w, "Figure 2: r_s and r_p of the benchmark queries")
	for _, p := range figure2Panels {
		fmt.Fprintln(w, p.label)
		fmt.Fprintf(w, "  %-6s %-8s %-8s\n", "SR", "r_s", "r_p")
		for _, sr := range standardSRs {
			res, err := lab.Run(z.setting(p.bench, p.db, p.machine, sr, core.All))
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  %-6g %-8.4f %-8.4f\n", sr, res.RS, res.RP)
		}
	}
	return nil
}

// figure3OutlierRobustness regenerates Figure 3: scatter data for the
// two cases plus the correlation coefficients before and after removing
// the largest-sigma point (the paper's outlier discussion).
func figure3OutlierRobustness(w io.Writer, lab *Lab, z Sizing) error {
	fmt.Fprintln(w, "Figure 3: robustness of r_s and r_p with respect to outliers")
	cases := []struct {
		label   string
		bench   workload.Benchmark
		db      datagen.DBKind
		machine string
		sr      float64
	}{
		{"Case (1): MICRO, Uniform 1GB, PC2, SR=0.01", workload.Micro, datagen.Uniform1G, "PC2", 0.01},
		{"Case (2): SELJOIN, Uniform 1GB, PC1, SR=0.05", workload.SelJoin, datagen.Uniform1G, "PC1", 0.05},
	}
	for _, c := range cases {
		res, err := lab.Run(z.setting(c.bench, c.db, c.machine, c.sr, core.All))
		if err != nil {
			return err
		}
		sig, errs := res.sigmas(), res.errors()
		fmt.Fprintf(w, "%s: r_s=%.4f r_p=%.4f\n", c.label,
			stats.Spearman(sig, errs), stats.Pearson(sig, errs))
		slope, icpt := stats.BestFitLine(sig, errs)
		fmt.Fprintf(w, "  best-fit: err = %.4f*sigma + %.4g\n", slope, icpt)
		// Remove the point with the largest sigma and recompute.
		maxI := 0
		for i := range sig {
			if sig[i] > sig[maxI] {
				maxI = i
			}
		}
		s2 := append(append([]float64{}, sig[:maxI]...), sig[maxI+1:]...)
		e2 := append(append([]float64{}, errs[:maxI]...), errs[maxI+1:]...)
		fmt.Fprintf(w, "  after removing the rightmost point: r_s=%.4f r_p=%.4f\n",
			stats.Spearman(s2, e2), stats.Pearson(s2, e2))
		fmt.Fprintln(w, "  scatter (sigma, error):")
		for i := range sig {
			fmt.Fprintf(w, "    %.6g %.6g\n", sig[i], errs[i])
		}
	}
	return nil
}

// figure4Dn regenerates Figure 4: D_n versus sampling ratio for the
// three benchmarks over uniform 10GB databases on both machines.
func figure4Dn(w io.Writer, lab *Lab, z Sizing) error {
	fmt.Fprintln(w, "Figure 4: D_n of the benchmark queries over uniform TPC-H 10GB databases")
	for _, b := range workload.Benchmarks {
		fmt.Fprintf(w, "(%s)\n", b)
		fmt.Fprintf(w, "  %-6s %-8s %-8s\n", "SR", "PC1", "PC2")
		for _, sr := range standardSRs {
			var dn [2]float64
			for mi, m := range machines {
				res, err := lab.Run(z.setting(b, datagen.Uniform10G, m, sr, core.All))
				if err != nil {
					return err
				}
				dn[mi] = res.Dn
			}
			fmt.Fprintf(w, "  %-6g %-8.4f %-8.4f\n", sr, dn[0], dn[1])
		}
	}
	return nil
}

// figure5PrAlpha regenerates Figure 5: the proximity of Pr_n(alpha) and
// Pr(alpha) for the three benchmarks (uniform 10GB, PC2, SR=0.05).
func figure5PrAlpha(w io.Writer, lab *Lab, z Sizing) error {
	fmt.Fprintln(w, "Figure 5: proximity of Pr_n(alpha) and Pr(alpha) (Uniform 10GB, PC2, SR=0.05)")
	grid := stats.DefaultAlphaGrid
	for _, b := range workload.Benchmarks {
		res, err := lab.Run(z.setting(b, datagen.Uniform10G, "PC2", 0.05, core.All))
		if err != nil {
			return err
		}
		emp, model := stats.DnCurve(res.NormalizedErrors(), grid)
		fmt.Fprintf(w, "(%s) Dn=%.4f\n", b, res.Dn)
		fmt.Fprintf(w, "  %-6s %-10s %-10s\n", "alpha", "Pr_n", "Pr")
		for i, a := range grid {
			fmt.Fprintf(w, "  %-6g %-10.4f %-10.4f\n", a, emp[i], model[i])
		}
	}
	return nil
}

// figure6MoreScatter regenerates Figure 6: the both-good and
// both-mediocre correlation cases.
func figure6MoreScatter(w io.Writer, lab *Lab, z Sizing) error {
	fmt.Fprintln(w, "Figure 6: more case studies on correlations")
	cases := []struct {
		label string
		db    datagen.DBKind
		sr    float64
	}{
		{"Case (3): TPCH, Skewed 10GB, PC1, SR=0.05", datagen.Skewed10G, 0.05},
		{"Case (4): TPCH, Uniform 1GB, PC1, SR=0.01", datagen.Uniform1G, 0.01},
	}
	for _, c := range cases {
		res, err := lab.Run(z.setting(workload.TPCH, c.db, "PC1", c.sr, core.All))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: r_s=%.4f r_p=%.4f\n", c.label, res.RS, res.RP)
		sig, errs := res.sigmas(), res.errors()
		slope, icpt := stats.BestFitLine(sig, errs)
		fmt.Fprintf(w, "  best-fit: err = %.4f*sigma + %.4g\n", slope, icpt)
		for i := range sig {
			fmt.Fprintf(w, "    %.6g %.6g\n", sig[i], errs[i])
		}
	}
	return nil
}

var allVariants = []core.Variant{core.All, core.NoVarC, core.NoVarX, core.NoCov}

// ablation prints an r_s-by-variant table over low sampling ratios.
func ablation(w io.Writer, lab *Lab, z Sizing, db datagen.DBKind, machine string) error {
	fmt.Fprintf(w, "(%v database, %s)\n", db, machine)
	fmt.Fprintf(w, "  %-8s", "SR")
	for _, v := range allVariants {
		fmt.Fprintf(w, " %-10s", v)
	}
	fmt.Fprintln(w)
	for _, sr := range lowSRs {
		fmt.Fprintf(w, "  %-8g", sr)
		for _, v := range allVariants {
			res, err := lab.Run(z.setting(workload.TPCH, db, machine, sr, v))
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %-10.4f", res.RS)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// figure8Ablations regenerates Figure 8: the four predictor variants on
// uniform databases in terms of r_s.
func figure8Ablations(w io.Writer, lab *Lab, z Sizing) error {
	fmt.Fprintln(w, "Figure 8: comparison of four alternatives in terms of r_s (uniform databases)")
	if err := ablation(w, lab, z, datagen.Uniform1G, "PC2"); err != nil {
		return err
	}
	return ablation(w, lab, z, datagen.Uniform10G, "PC1")
}

// figure10AblationsSkew regenerates Figure 10 (Appendix C.3): the
// ablations over skewed databases.
func figure10AblationsSkew(w io.Writer, lab *Lab, z Sizing) error {
	fmt.Fprintln(w, "Figure 10: comparison of four alternatives in terms of r_s (skewed databases)")
	if err := ablation(w, lab, z, datagen.Skewed1G, "PC1"); err != nil {
		return err
	}
	return ablation(w, lab, z, datagen.Skewed10G, "PC2")
}

// figure9Overhead regenerates Figure 9: relative overhead of sampling
// for TPCH queries on PC1 over the four databases.
func figure9Overhead(w io.Writer, lab *Lab, z Sizing) error {
	fmt.Fprintln(w, "Figure 9: relative overhead of TPCH queries on PC1")
	fmt.Fprintf(w, "%-8s", "SR")
	for _, db := range allDBs {
		fmt.Fprintf(w, " %-14v", db)
	}
	fmt.Fprintln(w)
	for _, sr := range standardSRs {
		fmt.Fprintf(w, "%-8g", sr)
		for _, db := range allDBs {
			res, err := lab.Run(z.setting(workload.TPCH, db, "PC1", sr, core.All))
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %-14.4f", res.MeanOverhead)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// figure11OverheadAll regenerates Figure 11 (Appendix C.4): relative
// overhead for all benchmarks on both machines.
func figure11OverheadAll(w io.Writer, lab *Lab, z Sizing) error {
	fmt.Fprintln(w, "Figure 11: relative overhead of benchmark queries")
	for _, m := range machines {
		for _, b := range workload.Benchmarks {
			fmt.Fprintf(w, "(%s, %s)\n", b, m)
			fmt.Fprintf(w, "  %-8s", "SR")
			for _, db := range allDBs {
				fmt.Fprintf(w, " %-14v", db)
			}
			fmt.Fprintln(w)
			for _, sr := range standardSRs {
				fmt.Fprintf(w, "  %-8g", sr)
				for _, db := range allDBs {
					res, err := lab.Run(z.setting(b, db, m, sr, core.All))
					if err != nil {
						return err
					}
					fmt.Fprintf(w, " %-14.4f", res.MeanOverhead)
				}
				fmt.Fprintln(w)
			}
		}
	}
	return nil
}

// figure12SelectivityScatter regenerates Figure 12 (Appendix C.5): the
// estimated versus actual selectivities (skewed 1GB, PC1, SR=0.05).
func figure12SelectivityScatter(w io.Writer, lab *Lab, z Sizing) error {
	fmt.Fprintln(w, "Figure 12: estimated vs actual selectivities (Skewed 1GB, PC1, SR=0.05)")
	for _, b := range workload.Benchmarks {
		res, err := lab.Run(z.setting(b, datagen.Skewed1G, "PC1", 0.05, core.All))
		if err != nil {
			return err
		}
		m := computeSelectivityMetrics(res, 0.2)
		fmt.Fprintf(w, "(%s) r_s=%.4f r_p=%.4f over %d operators\n", b, m.SelRS, m.SelRP, m.NumObs)
		var pts []OpObservation
		for _, o := range res.Outcomes {
			pts = append(pts, o.Ops...)
		}
		sort.Slice(pts, func(i, j int) bool { return pts[i].EstSel < pts[j].EstSel })
		for _, p := range pts {
			fmt.Fprintf(w, "  %.6g %.6g\n", p.EstSel, p.TrueSel)
		}
	}
	return nil
}

// gridCell runs one (bench, db, machine, SR) cell of the full grid.
func (z Sizing) gridCell(lab *Lab, b workload.Benchmark, db datagen.DBKind, m string, sr float64) (*RunResult, error) {
	return lab.Run(z.setting(b, db, m, sr, core.All))
}

// table4CorrelationGrid regenerates Table 4: r_s (r_p) for every
// benchmark, machine, database, and sampling ratio.
func table4CorrelationGrid(w io.Writer, lab *Lab, z Sizing) error {
	fmt.Fprintln(w, "Table 4: r_s (r_p) of the benchmark queries")
	return gridTable(w, lab, z, func(r *RunResult) string {
		return fmt.Sprintf("%.4f (%.4f)", r.RS, r.RP)
	})
}

// table5DnGrid regenerates Table 5: D_n over the same grid.
func table5DnGrid(w io.Writer, lab *Lab, z Sizing) error {
	fmt.Fprintln(w, "Table 5: D_n of the benchmark queries")
	return gridTable(w, lab, z, func(r *RunResult) string {
		return fmt.Sprintf("%.4f", r.Dn)
	})
}

func gridTable(w io.Writer, lab *Lab, z Sizing, cell func(*RunResult) string) error {
	for _, db := range allDBs {
		fmt.Fprintf(w, "%v database\n", db)
		fmt.Fprintf(w, "  %-6s", "SR")
		for _, b := range workload.Benchmarks {
			for _, m := range machines {
				fmt.Fprintf(w, " %-18s", fmt.Sprintf("%v/%s", b, m))
			}
		}
		fmt.Fprintln(w)
		for _, sr := range standardSRs {
			fmt.Fprintf(w, "  %-6g", sr)
			for _, b := range workload.Benchmarks {
				for _, m := range machines {
					res, err := z.gridCell(lab, b, db, m, sr)
					if err != nil {
						return err
					}
					fmt.Fprintf(w, " %-18s", cell(res))
				}
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// selGrid prints a selectivity-metric table over the standard grid.
func selGrid(w io.Writer, lab *Lab, z Sizing, cell func(SelectivityMetrics) string) error {
	for _, db := range allDBs {
		fmt.Fprintf(w, "%v database\n", db)
		fmt.Fprintf(w, "  %-6s", "SR")
		for _, b := range workload.Benchmarks {
			for _, m := range machines {
				fmt.Fprintf(w, " %-18s", fmt.Sprintf("%v/%s", b, m))
			}
		}
		fmt.Fprintln(w)
		for _, sr := range standardSRs {
			fmt.Fprintf(w, "  %-6g", sr)
			for _, b := range workload.Benchmarks {
				for _, m := range machines {
					res, err := z.gridCell(lab, b, db, m, sr)
					if err != nil {
						return err
					}
					fmt.Fprintf(w, " %-18s", cell(computeSelectivityMetrics(res, 0.2)))
				}
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// table6SelErrCorrelation regenerates Table 6: correlations between the
// estimated and actual errors in selectivity estimates.
func table6SelErrCorrelation(w io.Writer, lab *Lab, z Sizing) error {
	fmt.Fprintln(w, "Table 6: r_s (r_p) between estimated and actual errors in selectivity estimates")
	return selGrid(w, lab, z, func(m SelectivityMetrics) string {
		return fmt.Sprintf("%.4f (%.4f)", m.ErrRS, m.ErrRP)
	})
}

// table7SelCorrelation regenerates Table 7: correlations between the
// estimated and actual selectivities.
func table7SelCorrelation(w io.Writer, lab *Lab, z Sizing) error {
	fmt.Fprintln(w, "Table 7: r_s (r_p) between estimated and actual selectivities")
	return selGrid(w, lab, z, func(m SelectivityMetrics) string {
		return fmt.Sprintf("%.4f (%.4f)", m.SelRS, m.SelRP)
	})
}

// table8SelRelError regenerates Table 8: mean relative errors in the
// selectivity estimates.
func table8SelRelError(w io.Writer, lab *Lab, z Sizing) error {
	fmt.Fprintln(w, "Table 8: relative errors in the selectivity estimates")
	return selGrid(w, lab, z, func(m SelectivityMetrics) string {
		return fmt.Sprintf("%.4f", m.MeanRelErr)
	})
}

// table9LargeErrCorrelation regenerates Table 9: correlations of
// selectivity estimates restricted to relative errors above 0.2.
func table9LargeErrCorrelation(w io.Writer, lab *Lab, z Sizing) error {
	fmt.Fprintln(w, "Table 9: r_s (r_p) of selectivity estimates with relative errors above 0.2")
	return selGrid(w, lab, z, func(m SelectivityMetrics) string {
		if m.NumLargeErrObs < 3 {
			return "N/A (N/A)"
		}
		return fmt.Sprintf("%.4f (%.4f)", m.LargeRS, m.LargeRP)
	})
}

// Report is a named experiment generator.
type Report struct {
	ID   string
	Desc string
	Gen  func(io.Writer, *Lab, Sizing) error
}

// Reports lists every regenerable table and figure in evaluation order.
var Reports = []Report{
	{"table1", "calibrated cost units per machine", table1CostUnits},
	{"figure2", "r_s/r_p vs sampling ratio, three panels", figure2Correlation},
	{"figure3", "outlier robustness of r_s vs r_p", figure3OutlierRobustness},
	{"figure4", "D_n vs sampling ratio, uniform 10GB", figure4Dn},
	{"figure5", "Pr_n(alpha) vs Pr(alpha) curves", figure5PrAlpha},
	{"figure6", "more correlation case studies", figure6MoreScatter},
	{"figure8", "ablations (uniform databases)", figure8Ablations},
	{"figure9", "sampling overhead, TPCH on PC1", figure9Overhead},
	{"figure10", "ablations (skewed databases)", figure10AblationsSkew},
	{"figure11", "sampling overhead, all benchmarks", figure11OverheadAll},
	{"figure12", "estimated vs actual selectivities", figure12SelectivityScatter},
	{"table4", "full r_s (r_p) grid", table4CorrelationGrid},
	{"table5", "full D_n grid", table5DnGrid},
	{"table6", "selectivity error correlations", table6SelErrCorrelation},
	{"table7", "selectivity correlations", table7SelCorrelation},
	{"table8", "mean relative selectivity errors", table8SelRelError},
	{"table9", "large-error selectivity correlations", table9LargeErrCorrelation},
}

// ReportByID returns the named report.
func ReportByID(id string) (Report, error) {
	for _, r := range Reports {
		if r.ID == id {
			return r, nil
		}
	}
	return Report{}, fmt.Errorf("exper: unknown report %q", id)
}
