package workload

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"

	"repro/internal/catalog"
	"repro/internal/plan"
)

// TraceEntry is one arrival-annotated query: the query and the virtual
// time (seconds from trace start) at which it arrives. Traces are the
// replayable counterpart of the synthetic arrival processes in
// internal/sim — a recorded or generated workload with its temporal
// structure attached.
type TraceEntry struct {
	At    float64
	Query *plan.Query
}

// GenerateTrace draws n benchmark queries (deterministically per seed,
// like Generate) and annotates them with Poisson arrival times at
// meanRate arrivals per virtual second, sorted by time. The query
// sequence is shuffled relative to Generate's order so a trace replay
// interleaves templates instead of walking them in generation order.
// Generation is deterministic per (b, n, seed, meanRate).
func GenerateTrace(b Benchmark, cat *catalog.Catalog, n int, seed int64, meanRate float64) ([]TraceEntry, error) {
	if meanRate <= 0 {
		return nil, fmt.Errorf("workload: non-positive trace arrival rate %g", meanRate)
	}
	queries, err := Generate(b, cat, n, seed)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(seed ^ 0x7261636574)) // "tracer"-tagged stream, distinct from Generate's
	perm := r.Perm(len(queries))
	entries := make([]TraceEntry, 0, len(queries))
	t := 0.0
	for _, qi := range perm {
		t += r.ExpFloat64() / meanRate
		entries = append(entries, TraceEntry{At: t, Query: queries[qi]})
	}
	// Already time-ordered by construction; keep the invariant explicit
	// for hand-built traces routed through Validate-style helpers.
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].At < entries[j].At })
	return entries, nil
}

// RawTraceEntry is one record of an external JSON arrival trace: an
// arrival time in virtual seconds from trace start, and the index of
// the query template it fires in the pool the trace is resolved
// against. The file format is an array of these:
//
//	[{"at": 0.4, "query": 2}, {"at": 1.1, "query": 0}, ...]
type RawTraceEntry struct {
	At    float64 `json:"at"`
	Query int     `json:"query"`
}

// LoadTrace ingests an external arrival trace from a JSON file,
// resolving each record against pool (query templates, typically
// Generate output): real recorded workload shapes replayed over the
// synthetic catalog. Entries are validated (nonnegative times, indexes
// within the pool) and returned sorted by arrival time, so hand-edited
// or merged traces need not be pre-sorted. Unknown fields are
// rejected.
func LoadTrace(path string, pool []*plan.Query) ([]TraceEntry, error) {
	if len(pool) == 0 {
		return nil, fmt.Errorf("workload: trace %s: empty query pool", path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var raw []RawTraceEntry
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("workload: parse trace %s: %w", path, err)
	}
	if len(raw) == 0 {
		return nil, fmt.Errorf("workload: trace %s is empty", path)
	}
	entries := make([]TraceEntry, 0, len(raw))
	for i, re := range raw {
		if re.At < 0 {
			return nil, fmt.Errorf("workload: trace %s entry %d: negative arrival time %g", path, i, re.At)
		}
		if re.Query < 0 || re.Query >= len(pool) {
			return nil, fmt.Errorf("workload: trace %s entry %d: query index %d outside pool [0, %d)",
				path, i, re.Query, len(pool))
		}
		entries = append(entries, TraceEntry{At: re.At, Query: pool[re.Query]})
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].At < entries[j].At })
	return entries, nil
}
