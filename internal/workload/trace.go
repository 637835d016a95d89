package workload

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/plan"
)

// TraceEntry is one arrival-annotated query: the query and the virtual
// time (seconds from trace start) at which it arrives. Traces are the
// replayable counterpart of the synthetic arrival processes in
// internal/sim — a recorded workload with its temporal structure
// attached.
type TraceEntry struct {
	At    float64
	Query *plan.Query
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
