package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the layer's public function. Parent 0 means a root span; Req groups
// the spans of one request.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Req    int    `json:"req"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanRecorder keeps spans in memory; they are written out once, when
// the run ends. A nil recorder records nothing, so the same replay code
// serves the untraced baseline pass.
type spanRecorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

// start returns the start time to hand back to end or fill.
func (r *spanRecorder) start() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// end records a span opened at start (from start()). Parent 0 leaves
// the parent to nestByContainment.
func (r *spanRecorder) end(name string, start int64, parent, req int) {
	if r == nil {
		return
	}
	end := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: start, End: end, Req: req})
	r.mu.Unlock()
}

// reserve allocates an ID before the span's children run, so they can
// name it as parent; fill completes the reserved span.
func (r *spanRecorder) reserve() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id})
	r.mu.Unlock()
	return id
}

func (r *spanRecorder) fill(id int, name string, start int64, parent, req int) {
	if r == nil {
		return
	}
	end := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id-1] = span{ID: id, Parent: parent, Name: name, Start: start, End: end, Req: req}
	r.mu.Unlock()
}

func (r *spanRecorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// nestByContainment assigns a parent (and the parent's Req) to every
// span whose Parent is 0, by time containment: the parent is the
// tightest span that starts no later and ends no earlier. It is how
// serve_http's front and shard handler spans are nested under the
// client's request span without the front propagating an ID; it is
// only sound when one request is in flight at a time.
func nestByContainment(spans []span) {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		x, y := spans[order[a]], spans[order[b]]
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		return x.End > y.End
	})
	var stack []int
	for _, i := range order {
		s := &spans[i]
		for len(stack) > 0 && spans[stack[len(stack)-1]].End < s.End {
			stack = stack[:len(stack)-1]
		}
		if s.Parent == 0 && len(stack) > 0 {
			p := spans[stack[len(stack)-1]]
			s.Parent = p.ID
			if s.Req == 0 {
				s.Req = p.Req
			}
		}
		stack = append(stack, i)
	}
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval covered by its child spans. Children may overlap one
// another (concurrent workers under one batch span); the covered part
// is the union of their intervals, clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered int64
		cursor := s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < cursor {
				lo = cursor
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// spanStats aggregates spans by name.
type spanStats struct {
	count int
	total int64 // summed duration, ns
	self  int64 // summed self time, ns
}

func (s spanStats) meanUS() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.total) / float64(s.count) / 1e3
}

func statsByName(spans []span) map[string]spanStats {
	self := selfTimes(spans)
	out := make(map[string]spanStats)
	for _, s := range spans {
		st := out[s.Name]
		st.count++
		st.total += s.dur()
		st.self += self[s.ID]
		out[s.Name] = st
	}
	return out
}

// writeSpans writes the spans as JSONL.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
