package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// clients is the load generator's concurrency: goroutines for the
// library workloads, keep-alive connections for serve_http.
func clients() int {
	n := runtime.GOMAXPROCS(0)
	if n > 4 {
		n = 4
	}
	return n
}

// percentile is the nearest-rank p-quantile (0 < p <= 1) of a sorted
// sample; the same definition internal/sim's reports use.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailCandidates are the percentiles a report may quote, ascending.
var tailCandidates = []float64{0.50, 0.75, 0.90, 0.95, 0.99, 0.999}

// supportedPercentile picks the highest candidate percentile that still
// has at least ten samples beyond it in a sample of n — the rule that
// decides which tail a report may quote. With fewer than twenty samples
// even the median has no ten beyond it; the median is returned then and
// ok is false.
func supportedPercentile(n int) (p float64, ok bool) {
	p = tailCandidates[0]
	for _, c := range tailCandidates {
		beyond := n - int(math.Ceil(c*float64(n)))
		if beyond >= 10 {
			p, ok = c, true
		}
	}
	return p, ok
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// latencies is a sample of per-op wall times in milliseconds.
type latencies []float64

func (l latencies) sorted() []float64 {
	s := append([]float64(nil), l...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM line in /proc/self/status")
}

// recordPeakRSS sets peak_rss_mb. A workload calls it when its timed loop
// ends, so the mark covers set-up and the loop — what a process serving
// this load would hold — and not the output cross-checks and the fidelity
// phase that follow: Measure executes whole queries, and whether a
// collection happens to run in its midst would decide the peak.
func (o *outcome) recordPeakRSS() error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	o.metrics["peak_rss_mb"] = rss
	return nil
}

// memMark is a point in the process's allocation counters.
type memMark struct{ mallocs, bytes uint64 }

func markMem() memMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memMark{m.Mallocs, m.TotalAlloc}
}

// since returns the objects and bytes allocated since the mark.
func (m memMark) since() (allocs, bytes uint64) {
	now := markMem()
	return now.mallocs - m.mallocs, now.bytes - m.bytes
}

// machine is the block every result file carries: a number means
// nothing without the box it was taken on.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Clients    int    `json:"clients"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Kernel     string `json:"kernel"`
	Timestamp  string `json:"timestamp"`
}

func machineInfo() machine {
	m := machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients:    clients(),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Kernel:     "unknown",
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
	// "-dirty" marks numbers taken on a tree that differs from the commit.
	if out, err := exec.Command("git", "describe", "--always", "--dirty").Output(); err == nil {
		m.Commit = string(bytes.TrimSpace(out))
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = string(bytes.TrimSpace(data))
	}
	return m
}
