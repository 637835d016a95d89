package shard

import (
	"sort"
	"sync"

	"repro/internal/stats"
)

// Verdict is the front door's decision on one submission.
type Verdict string

const (
	// VerdictAdmit forwards the request to its placed shard.
	VerdictAdmit Verdict = "admit"
	// VerdictShedPredictive sheds a request whose best achievable
	// P(T_wait + T_q <= d) anywhere in the fleet is already below the
	// SLO confidence: forwarding it would only burn a token (and queue
	// capacity) on a query that is hopeless before placement.
	VerdictShedPredictive Verdict = "shed-predictive"
	// VerdictShedThrottle sheds a request the token bucket cannot
	// cover: the fleet-wide intake rate cap is exceeded.
	VerdictShedThrottle Verdict = "shed-throttle"
)

// FrontDoorConfig shapes the front door.
type FrontDoorConfig struct {
	// Rate is the token refill rate in requests per (virtual) second;
	// <= 0 disables the token bucket (no throttle shedding).
	Rate float64 `json:"rate"`
	// Burst is the bucket capacity (and initial fill); < 1 selects
	// Rate (a one-second burst), or 1 when Rate is below 1, so the
	// bucket can always hold the whole token a request spends.
	Burst float64 `json:"burst"`
	// Predictive enables hopelessness shedding: a submission whose
	// best fleet-wide P(T_wait + T_q <= d) falls below its SLO
	// confidence is shed before it can spend a token. This is the
	// mechanism by which the predictive front door beats a naive
	// token-only one under flash load — hopeless queries stop
	// competing with feasible ones for intake capacity.
	Predictive bool `json:"predictive"`
}

// ClassCounters tallies front-door verdicts for one SLO class.
type ClassCounters struct {
	Class          string `json:"class"`
	Admitted       uint64 `json:"admitted"`
	ShedPredictive uint64 `json:"shed_predictive"`
	ShedThrottled  uint64 `json:"shed_throttled"`
}

// maxTrackedClasses bounds the per-class tally: the HTTP front takes a
// class from the request body (or the tenant), so without a bound a
// client sending unique names grows the map, and every /metrics page,
// forever. A submission of a class past the cap still gets its verdict
// and still spends and refunds tokens; it is just not tallied.
const maxTrackedClasses = 4096

// FrontDoor is the fleet's intake valve: a token bucket over a virtual
// (or wall) clock plus an optional predictive check, with verdicts
// tallied per SLO class. The caller supplies time and the best
// fleet-wide P(T_wait + T_q <= d) it computed for the request — the
// front door itself owns no predictor, so the same valve serves the
// simulator (virtual clock, exact per-machine queue states) and the
// HTTP front (wall clock, optimistic zero-wait bound).
//
// Order of checks is deliberate: predictive first, so hopeless
// requests never consume tokens, then the bucket. The HTTP front learns
// the bound only from its one shard hop, so it reserves a token (bestP
// 1) and refunds it when the shard sheds: a hopeless request still costs
// no token, but one meeting an empty bucket is throttled without a hop.
// Deterministic given a deterministic call sequence.
type FrontDoor struct {
	mu      sync.Mutex
	cfg     FrontDoorConfig
	tokens  float64
	last    float64
	started bool
	classes map[string]*ClassCounters
}

// NewFrontDoor returns a front door per cfg; the bucket starts full.
func NewFrontDoor(cfg FrontDoorConfig) *FrontDoor {
	if cfg.Burst < 1 {
		cfg.Burst = max(cfg.Rate, 1)
	}
	return &FrontDoor{
		cfg:     cfg,
		tokens:  cfg.Burst,
		classes: make(map[string]*ClassCounters),
	}
}

// Admit runs the front-door checks for one submission of the given SLO
// class at time now (seconds on the caller's clock; must be
// non-decreasing across calls). bestP is the best fleet-wide
// P(T_wait + T_q <= d) the caller could find for this request, and
// confidence the SLO confidence it must clear; the predictive check
// compares the two only when the front door is configured predictive.
func (f *FrontDoor) Admit(class string, now, bestP, confidence float64) Verdict {
	f.mu.Lock()
	defer f.mu.Unlock()
	c := f.classes[class]
	if c == nil {
		c = &ClassCounters{Class: class}
		if len(f.classes) < maxTrackedClasses {
			f.classes[class] = c
		}
	}
	if f.cfg.Rate > 0 {
		if !f.started {
			f.started, f.last = true, now
		}
		if dt := now - f.last; dt > 0 {
			f.tokens += dt * f.cfg.Rate
			if f.tokens > f.cfg.Burst {
				f.tokens = f.cfg.Burst
			}
			f.last = now
		}
	}
	if f.cfg.Predictive && bestP < confidence {
		c.ShedPredictive++
		return VerdictShedPredictive
	}
	if f.cfg.Rate > 0 {
		if f.tokens < 1 {
			c.ShedThrottled++
			return VerdictShedThrottle
		}
		f.tokens--
	}
	c.Admitted++
	return VerdictAdmit
}

// refund undoes an Admit that returned VerdictAdmit: the token goes
// back to the bucket (never past Burst) and the class's admission is
// recounted as shed — as a predictive shed for VerdictShedPredictive,
// under no verdict for any other (a request no shard accepted) — when
// the class is tallied.
func (f *FrontDoor) refund(class string, shed Verdict) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cfg.Rate > 0 {
		f.tokens = min(f.tokens+1, f.cfg.Burst)
	}
	if c := f.classes[class]; c != nil {
		c.Admitted--
		if shed == VerdictShedPredictive {
			c.ShedPredictive++
		}
	}
}

// Predictive reports whether the predictive check is enabled (callers
// skip computing bestP when it is not).
func (f *FrontDoor) Predictive() bool { return f.cfg.Predictive }

// Burst is the bucket's capacity as resolved: the configured Burst, or
// the default an unset one selects.
func (f *FrontDoor) Burst() float64 { return f.cfg.Burst }

// Counters snapshots the per-class tallies sorted by class, the stable
// order reports and metrics pages need (nil before any submission).
func (f *FrontDoor) Counters() []ClassCounters {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []ClassCounters
	for _, c := range f.classes {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}

// AdmissionFairness is the Jain fairness index over per-class admission
// rates admitted/(admitted+shed), classes with no traffic skipped: 1
// means every class is admitted at the same rate, 1/n means one class
// monopolizes admission.
func AdmissionFairness(cs []ClassCounters) float64 {
	var rates []float64
	for _, c := range cs {
		if total := c.Admitted + c.ShedPredictive + c.ShedThrottled; total > 0 {
			rates = append(rates, float64(c.Admitted)/float64(total))
		}
	}
	return stats.JainIndex(rates)
}
