package sim

import (
	"fmt"
	"math"

	uaqetp "repro"
	"repro/internal/serve"
	"repro/internal/trace"
)

// The placement policies.
const (
	// RouterRoundRobin cycles arrivals across machines regardless of
	// load — the distribution-blind baseline.
	RouterRoundRobin = "round-robin"
	// RouterLeastQueue places each arrival on the machine with the
	// smallest expected wait (predicted queue backlog mean plus the
	// remaining service time of the in-flight query) — load-aware but
	// variance-blind, and blind to machine speed differences.
	RouterLeastQueue = "least-queue"
	// RouterLeastRisk places each arrival on the machine maximizing the
	// predicted probability of meeting its deadline, P(T_wait + T_q <=
	// d), folding in the backlog's variance and the query's own
	// predicted variance — the placement counterpart of ActiveSLA
	// admission, and the policy that exploits the paper's distributions.
	// T_q is predicted per machine, through each machine's tenant
	// façade: every machine's own calibrated — and recalibrated — units
	// enter the risk, so slow or drifted machines repel traffic in
	// proportion to how much of the deadline they would consume, however
	// the fleet was written. Machines still on the base System's units
	// share its memoized prediction.
	RouterLeastRisk = "least-risk"
	// RouterLeastRiskShared is the ablation between least-queue and
	// least-risk: the same risk arithmetic, but with one fleet-shared
	// prediction (the base System's units) for every machine, as if the
	// fleet were homogeneous. On heterogeneous fleets it misjudges
	// exactly the machines whose units deviate from the base — the gap
	// to least-risk measures what per-machine units buy.
	RouterLeastRiskShared = "least-risk-shared"
)

// riskEps is the probability margin below which two machines count as
// equally safe and the least-risk routers fall back to load.
const riskEps = 1e-9

// Routers returns the registered placement-policy names, in registration
// order — the vocabulary a scenario's router is checked against.
func Routers() []string {
	return []string{RouterRoundRobin, RouterLeastQueue, RouterLeastRisk, RouterLeastRiskShared}
}

// route picks the machine for an arrival at virtual time now, among
// the machines [lo, hi) of shard sid — the whole fleet (shard 0) on
// unsharded runs. All policies break ties toward the lowest machine
// index, keeping placement deterministic.
//
// When decision tracing is on, every policy leaves its per-machine
// candidate scoring vector in s.cands (machine order) and the reason
// the winner won in s.tieBreak; capturing is pure observation — the
// comparisons and the chosen machine are identical with tracing off.
func (s *simRun) route(ts *tenantState, ti int, q, tmpl *uaqetp.Query, deadline, now float64, lo, hi, sid int) (int, error) {
	capture := s.decisions
	if capture {
		s.cands = s.cands[:0]
	}
	switch s.router {
	case RouterRoundRobin:
		// Rotation is per shard, so each shard's machines take turns
		// regardless of how arrivals interleave across shards.
		m := lo + s.rrNexts[sid]%(hi-lo)
		s.rrNexts[sid]++
		if capture {
			s.tieBreak = "rotation"
		}
		return m, nil

	case RouterLeastQueue:
		best, bestWait := lo, math.Inf(1)
		for m := lo; m < hi; m++ {
			qlen, waitMean, waitVar := s.machines[m].srv.QueueStateAt(now)
			if capture {
				s.cands = append(s.cands, trace.Candidate{
					Machine: m, QueueLen: qlen, WaitMean: waitMean, WaitVar: waitVar,
				})
			}
			if waitMean < bestWait {
				best, bestWait = m, waitMean
			}
		}
		if capture {
			s.tieBreak = "wait"
		}
		return best, nil

	case RouterLeastRisk, RouterLeastRiskShared:
		return s.routeLeastRisk(ts, ti, q, tmpl, deadline, now, lo, hi)
	}
	return 0, fmt.Errorf("sim: unknown router %q", s.router)
}

// routeLeastRisk maximizes P(T_wait + T_q <= d) over the machines
// [lo, hi). Under least-risk, T_q is each machine's own prediction:
// a machine whose tenant façade has swapped in a predictor of its own —
// a WithMachine sibling's units, or any machine's recalibrated ones —
// predicts the arrival through that façade, so the same query costs
// different time, with different uncertainty, on different machines,
// and recalibrated units are read the moment they swap in. A machine
// whose façade still runs the base System's predictor stage would
// predict exactly what the base does, so it takes the base prediction
// from the run-level memo (sharedPred): one map probe instead of a
// per-arrival fingerprint-and-memo walk. Under least-risk-shared every
// machine takes the base prediction — the fleet-shared-units ablation.
// The sampling pass behind every prediction is shared through the
// fleet cache (estimates are machine-independent), so the per-machine
// work is one analytic unit propagation each.
func (s *simRun) routeLeastRisk(ts *tenantState, ti int, q, tmpl *uaqetp.Query, deadline, now float64, lo, hi int) (int, error) {
	// The CDF saturates once a machine is safely fast enough, so ties
	// within riskEps — e.g. an idle fleet, where every machine is
	// equally certain — break toward the least expected wait: among
	// equally safe machines, spread the load instead of herding onto
	// the first index.
	capture := s.decisions
	base := ts.sys.Predictor()
	best, bestP, bestWait := lo, math.Inf(-1), math.Inf(1)
	for m := lo; m < hi; m++ {
		ms := s.machines[m]
		var pred *uaqetp.Prediction
		var err error
		if s.router == RouterLeastRisk && ms.ownUnits(ti, base) {
			pred, err = ms.tenants[ti].System().PredictContext(s.ctx, q)
		} else {
			pred, err = s.sharedPred(ts, tmpl)
		}
		if err != nil {
			return 0, fmt.Errorf("sim: route predict %q on machine %d: %w", q.Name, m, err)
		}
		qlen, wait, waitVar := ms.srv.QueueStateAt(now)
		p := serve.PMeet(pred.Mean(), pred.Sigma(), wait, waitVar, deadline)
		if capture {
			s.cands = append(s.cands, trace.Candidate{
				Machine: m, QueueLen: qlen, WaitMean: wait, WaitVar: waitVar,
				PredMean: pred.Mean(), PredSigma: pred.Sigma(), PMeet: p,
			})
		}
		if p > bestP+riskEps {
			best, bestP, bestWait = m, p, wait
			if capture {
				s.tieBreak = "risk"
			}
		} else if p > bestP-riskEps && wait < bestWait {
			best, bestP, bestWait = m, p, wait
			if capture {
				s.tieBreak = "wait"
			}
		}
	}
	return best, nil
}

// ownUnits reports whether the machine predicts tenant ti on a
// predictor stage other than base, the base System's: a WithMachine
// sibling's units, or units the tenant's façade recalibrated. A machine
// on the base stage whose server has not recalibrated anything answers
// without reading the façade (10k-tenant fleets keep 10k cold façades
// per machine); the simulator recalibrates only through the server's
// automatic cadence, which LastAutoRecalibration counts.
func (ms *machineState) ownUnits(ti int, base uaqetp.Predictor) bool {
	if ms.sys.Predictor() == base {
		if _, n := ms.srv.LastAutoRecalibration(); n == 0 {
			return false
		}
	}
	return ms.tenants[ti].System().Predictor() != base
}
