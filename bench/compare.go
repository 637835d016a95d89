package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them (the exclusive method),
// which is how the spread of a metric is defined for this benchmark.
func quartiles(values []float64) (q1, q3 float64, ok bool) {
	n := len(values)
	if n < 2 {
		return 0, 0, false
	}
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return cut(1), cut(3), true
}

// spread is the distance between the quartiles as a share of the median.
func spread(values []float64) float64 {
	q1, q3, ok := quartiles(values)
	med := median(values)
	if !ok || med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

const (
	statusOK         = "ok"
	statusRegressed  = "regressed"
	statusUnresolved = "unresolved"
)

// verdict applies one metric's bound to the runs of a parent (a) and a
// change (b). A median worse by more than the bound is a regression.
// Where the run-to-run spread is wider than the bound the pair is
// unresolved, not unchanged — unless every run of the change reads
// better than every run of the parent. Exact metrics are functions of
// the seed alone: any worsening is a regression, however small.
func verdict(a, b []float64, better string, bound float64, exact bool) (status string, worse, spr float64) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if better == "higher" {
			worse = -worse
		}
	}
	if exact {
		if worse > 0 {
			return statusRegressed, worse, 0
		}
		return statusOK, worse, 0
	}
	spr = spread(a)
	if s := spread(b); s > spr {
		spr = s
	}
	if spr > bound {
		allBetter := true
		for _, x := range a {
			for _, y := range b {
				if (better == "higher" && y <= x) || (better != "higher" && y >= x) {
					allBetter = false
				}
			}
		}
		if allBetter {
			return statusOK, worse, spr
		}
		return statusUnresolved, worse, spr
	}
	if worse > bound {
		return statusRegressed, worse, spr
	}
	return statusOK, worse, spr
}

func loadResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// valuesOf collects one metric's values over a file's runs of a
// workload in one mode.
func valuesOf(f *resultFile, workload string, trace bool, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == trace {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// sameSeeds reports whether both files ran the workload on the same set
// of seeds; only then do exact metrics compare exactly.
func sameSeeds(a, b *resultFile, workload string) bool {
	seeds := func(f *resultFile) map[int64]bool {
		m := make(map[int64]bool)
		for _, r := range f.Runs {
			if r.Workload == workload {
				m[r.Seed] = true
			}
		}
		return m
	}
	sa, sb := seeds(a), seeds(b)
	if len(sa) != len(sb) {
		return false
	}
	for s := range sa {
		if !sb[s] {
			return false
		}
	}
	return true
}

// compareFiles prints one row per (workload, metric): every end-to-end
// metric under its bound, and every exact per-layer count. It returns 1
// when any row regressed.
func compareFiles(w io.Writer, pathA, pathB string) int {
	var files [2]*resultFile
	for i, path := range []string{pathA, pathB} {
		f, err := loadResults(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: compare: %v\n", err)
			return 2
		}
		files[i] = f
	}
	return compareResults(w, files[0], files[1])
}

func compareResults(w io.Writer, a, b *resultFile) int {
	fmt.Fprintf(w, "A: %+v\nB: %+v\n", a.Machine, b.Machine)
	fmt.Fprintf(w, "%-13s %-30s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "median A", "median B", "worse", "spread", "bound", "status")
	regressed := 0
	row := func(workload, metric string, trace bool, better string, bound float64, exact bool) {
		va, vb := valuesOf(a, workload, trace, metric), valuesOf(b, workload, trace, metric)
		if len(va) == 0 || len(vb) == 0 {
			return
		}
		exact = exact && sameSeeds(a, b, workload)
		status, worse, spr := verdict(va, vb, better, bound, exact)
		if status == statusRegressed {
			regressed++
		}
		boundText := fmt.Sprintf("%.2f", bound)
		if exact {
			boundText = "exact"
			if status == statusOK && median(va) != median(vb) {
				status = "ok (moved)"
			}
		}
		fmt.Fprintf(w, "%-13s %-30s %14.6g %14.6g %+8.2f%% %7.2f%% %7s  %s\n",
			workload, metric, median(va), median(vb), 100*worse, 100*spr, boundText, status)
	}
	for _, wl := range workloads {
		for _, m := range endToEnd {
			row(wl.Name, m.Name, false, m.Better, m.Bound, m.Exact)
		}
		// An exact count that reads 0 on both sides belongs to a layer that
		// does no work on this workload.
		for _, m := range perLayer {
			va, vb := valuesOf(a, wl.Name, true, m.Name), valuesOf(b, wl.Name, true, m.Name)
			if m.Exact && (median(va) != 0 || median(vb) != 0) {
				row(wl.Name, m.Name, true, m.Better, 0, true)
			}
		}
		fa, fb := failedOf(a, wl.Name), failedOf(b, wl.Name)
		status := statusOK
		if fb > fa {
			status = statusRegressed
			regressed++
		}
		fmt.Fprintf(w, "%-13s %-30s %14d %14d %9s %8s %7s  %s\n", wl.Name, "failed ops", fa, fb, "", "", "0", status)
	}
	if regressed > 0 {
		fmt.Fprintf(w, "%d regressed\n", regressed)
		return 1
	}
	return 0
}

func failedOf(f *resultFile, workload string) int64 {
	var n int64
	for _, r := range f.Runs {
		if r.Workload == workload {
			n += r.Failed
			if !r.Correct && r.Failed == 0 {
				n++
			}
		}
	}
	return n
}
