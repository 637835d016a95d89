package sim

import "repro/internal/stats"

// Multi-objective fitness: one scalar (plus its components) summarizing
// how well a policy configuration served a scenario, computed from any
// Report — the objective function policy search (grids over routers,
// queue policies, SLO confidences, RecalEvery cadences) optimizes
// instead of hand-comparing reports. Modeled on BLIS's weighted fitness
// scoring (ROADMAP item 2).

// FitnessWeights weighs the objectives. All weights are non-negative;
// LatencyPenalty multiplies the fleet p95 latency (virtual seconds)
// and subtracts, every other component adds in [0, 1].
type FitnessWeights struct {
	// Attainment weighs fleet-wide SLO attainment (met / submitted).
	Attainment float64 `json:"attainment"`
	// Fairness weighs the Jain fairness index over per-tenant SLO
	// attainment: 1 when every tenant attains equally, 1/n when one
	// tenant gets everything.
	Fairness float64 `json:"fairness"`
	// Utilization weighs mean machine utilization (busy / clock).
	Utilization float64 `json:"utilization"`
	// CacheEconomy weighs the shared cache's overall hit rate across
	// its estimate, subtree, and run sections.
	CacheEconomy float64 `json:"cache_economy"`
	// LatencyPenalty scales the fleet p95 end-to-end latency penalty.
	LatencyPenalty float64 `json:"latency_penalty"`
}

// DefaultFitnessWeights orders the objectives the way the paper's
// serving story does: attainment dominates, fairness keeps multi-tenant
// outcomes honest, utilization and cache economy break ties between
// configurations that serve equally well, and the latency penalty
// separates "met the deadline" from "met it comfortably".
func DefaultFitnessWeights() FitnessWeights {
	return FitnessWeights{
		Attainment:     1.0,
		Fairness:       0.25,
		Utilization:    0.1,
		CacheEconomy:   0.05,
		LatencyPenalty: 0.1,
	}
}

// Fitness is the weighted multi-objective score of one Report, with
// the unweighted components alongside so searches can re-weigh without
// re-running.
type Fitness struct {
	// Score = Attainment*w.Attainment + Fairness*w.Fairness +
	// Utilization*w.Utilization + CacheEconomy*w.CacheEconomy -
	// LatencyP95*w.LatencyPenalty.
	Score      float64 `json:"score"`
	Attainment float64 `json:"attainment"`
	// LatencyP50/P95/P99 are fleet-wide end-to-end latency quantiles
	// (queue wait included) over executed queries.
	LatencyP50 float64 `json:"latency_p50"`
	LatencyP95 float64 `json:"latency_p95"`
	LatencyP99 float64 `json:"latency_p99"`
	// Fairness is the Jain index over per-tenant SLO attainment.
	Fairness float64 `json:"fairness"`
	// Utilization is the mean machine utilization.
	Utilization float64 `json:"utilization"`
	// CacheEconomy is hits / (hits + misses) summed over the shared
	// cache's estimate, subtree, and run sections.
	CacheEconomy float64        `json:"cache_economy"`
	Weights      FitnessWeights `json:"weights"`
}

// ComputeFitness scores a Report under the given weights. It reads
// only Report fields, so recorded report JSON from any run — or a
// replayed counterfactual — scores identically to a live one.
func ComputeFitness(r *Report, w FitnessWeights) Fitness {
	f := Fitness{
		Attainment: r.SLOAttainment,
		LatencyP50: r.Latency.P50,
		LatencyP95: r.Latency.P95,
		LatencyP99: r.Latency.P99,
		Weights:    w,
	}
	atts := make([]float64, len(r.Tenants))
	for i, t := range r.Tenants {
		atts[i] = t.SLOAttainment
	}
	f.Fairness = stats.JainIndex(atts)
	if len(r.PerMachine) > 0 {
		var u float64
		for _, m := range r.PerMachine {
			u += m.Utilization
		}
		f.Utilization = u / float64(len(r.PerMachine))
	}
	hits := r.Cache.Hits + r.Cache.SubtreeHits + r.Cache.RunHits
	total := hits + r.Cache.Misses + r.Cache.SubtreeMisses + r.Cache.RunMisses
	if total > 0 {
		f.CacheEconomy = float64(hits) / float64(total)
	}
	f.Score = w.Attainment*f.Attainment +
		w.Fairness*f.Fairness +
		w.Utilization*f.Utilization +
		w.CacheEconomy*f.CacheEconomy -
		w.LatencyPenalty*f.LatencyP95
	return f
}
