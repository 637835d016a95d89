package sim

import (
	"fmt"
	"math"

	"repro/internal/serve"
	"repro/internal/shard"
)

// FrontDoorSpec is the scenario JSON shape of the fleet's intake
// valve (shard.FrontDoorConfig).
type FrontDoorSpec struct {
	// Rate is the fleet-wide token refill rate in requests per virtual
	// second; <= 0 disables the token bucket.
	Rate float64 `json:"rate"`
	// Burst is the bucket capacity; < 1 selects Rate, or 1 when Rate
	// is below 1.
	Burst float64 `json:"burst,omitempty"`
	// Predictive sheds a submission before placement when its best
	// P(T_wait + T_q <= d) across its shard's machines is below the
	// tenant's SLO confidence — without spending a token.
	Predictive bool `json:"predictive,omitempty"`
}

// CacheTierSpec models a two-tier estimate cache for the scenario: the
// fleet cache is built by uaqetp.NewTieredCache with this local
// fraction and per-remote-lookup latency (seeded by the scenario seed),
// and the report grows a cache_tier section with the tier split and
// modeled remote cost.
type CacheTierSpec struct {
	LocalFraction float64 `json:"local_fraction"`
	RemoteLatency float64 `json:"remote_latency"`
}

// ShardsSpec partitions the scenario fleet into a sharded serving
// topology: machines are split into Count contiguous shards, a
// consistent-hash directory (VNodes virtual nodes per shard, seeded by
// the scenario seed) places each tenant on one shard for the whole
// run, and arrivals route only within their tenant's shard.
type ShardsSpec struct {
	// Count is the number of shards; the fleet must have at least this
	// many machines. Machines are assigned contiguously (shard 0 gets
	// the first len/Count machines, and so on).
	Count int `json:"count"`
	// VNodes is the directory's virtual-node count per shard; 0
	// selects shard.DefaultVNodes (shard.NewDirectory bounds it).
	VNodes int `json:"vnodes,omitempty"`
	// FrontDoor, when present, sheds load fleet-wide before placement.
	FrontDoor *FrontDoorSpec `json:"front_door,omitempty"`
	// CacheTier, when present, models the fleet cache as two tiers.
	CacheTier *CacheTierSpec `json:"cache_tier,omitempty"`
}

func (s *ShardsSpec) validate(machines int) error {
	if s.Count < 1 {
		return fmt.Errorf("sim: shards count %d must be at least 1", s.Count)
	}
	if machines < s.Count {
		return fmt.Errorf("sim: %d machines cannot form %d shards", machines, s.Count)
	}
	if fd := s.FrontDoor; fd != nil {
		if fd.Rate < 0 || fd.Burst < 0 {
			return fmt.Errorf("sim: front_door rate/burst must not be negative")
		}
	}
	if ct := s.CacheTier; ct != nil {
		if ct.LocalFraction < 0 || ct.LocalFraction > 1 {
			return fmt.Errorf("sim: cache_tier local_fraction %g out of [0, 1]", ct.LocalFraction)
		}
		if ct.RemoteLatency < 0 {
			return fmt.Errorf("sim: cache_tier remote_latency %g must not be negative", ct.RemoteLatency)
		}
	}
	return nil
}

// shardNames names a topology's shards in index order.
func shardNames(count int) []string {
	names := make([]string, count)
	for i := range names {
		names[i] = fmt.Sprintf("shard-%d", i)
	}
	return names
}

// shardedRun is a simulation's sharded topology: shard names, the
// contiguous machine range per shard, every expanded tenant's shard,
// and the front door. Placements are precomputed through the scenario's
// shard.Directory before the event loop, so the loop's per-arrival
// work is one slice index.
type shardedRun struct {
	spec   ShardsSpec
	names  []string
	ranges [][2]int
	place  []int32 // expanded tenant index -> shard index
	front  *shard.FrontDoor
}

// buildSharded materializes the scenario's shards block over nMachines
// machines and the expanded tenant list, placing every tenant through
// dir.
func buildSharded(spec ShardsSpec, dir *shard.Directory, nMachines int, tenants []tenantState) *shardedRun {
	sh := &shardedRun{spec: spec, names: shardNames(spec.Count)}
	// Contiguous machine ranges; the first nMachines%Count shards get
	// one extra machine.
	base, extra := nMachines/spec.Count, nMachines%spec.Count
	lo := 0
	for i := 0; i < spec.Count; i++ {
		n := base
		if i < extra {
			n++
		}
		sh.ranges = append(sh.ranges, [2]int{lo, lo + n})
		lo += n
	}

	index := make(map[string]int32, spec.Count)
	for i, n := range sh.names {
		index[n] = int32(i)
	}
	sh.place = make([]int32, len(tenants))
	for ti, ts := range tenants {
		sh.place[ti] = index[dir.Place(ts.name)]
	}

	if spec.FrontDoor != nil {
		sh.front = shard.NewFrontDoor(shard.FrontDoorConfig{
			Rate: spec.FrontDoor.Rate, Burst: spec.FrontDoor.Burst,
			Predictive: spec.FrontDoor.Predictive,
		})
	}
	return sh
}

// bestPIn is the front door's predictive bound: the best
// P(T_wait + T_q <= d) across the shard's machines, with the
// fleet-shared prediction of T_q and each machine's own queue state —
// the same arithmetic as the least-risk-shared router. The prediction
// is the one memoized on the arrival's template (sharedPred). A
// prediction failure returns 1 (the request is forwarded; admission
// will tally the failure exactly as on unsharded runs).
func (s *simRun) bestPIn(tmpl *template, deadline, now float64, lo, hi int) float64 {
	pred, err := s.sharedPred(tmpl)
	if err != nil {
		return 1
	}
	best := math.Inf(-1)
	for m := lo; m < hi; m++ {
		_, wait, waitVar := s.machines[m].srv.QueueStateAt(now)
		if p := serve.PMeet(pred.Mean(), pred.Sigma(), wait, waitVar, deadline); p > best {
			best = p
		}
	}
	return best
}

// shardsReport assembles the report's shards section.
func (s *simRun) shardsReport() *ShardsReport {
	sh := s.sh
	vn := sh.spec.VNodes
	if vn == 0 {
		vn = shard.DefaultVNodes
	}
	rep := &ShardsReport{Count: sh.spec.Count, VNodes: vn}
	counts := make([]int, sh.spec.Count)
	for _, si := range sh.place {
		counts[si]++
	}
	for i := range sh.names {
		sr := ShardReport{
			Shard: i, Name: sh.names[i],
			MachineLo: sh.ranges[i][0], MachineHi: sh.ranges[i][1],
			Tenants: counts[i],
		}
		for m := sr.MachineLo; m < sr.MachineHi; m++ {
			sr.Executed += s.machines[m].executed
		}
		rep.PerShard = append(rep.PerShard, sr)
	}
	if fd := sh.front; fd != nil {
		classes := fd.Counters()
		rep.FrontDoor = &FrontDoorReport{
			Rate: sh.spec.FrontDoor.Rate, Burst: fd.Burst(),
			Predictive:        sh.spec.FrontDoor.Predictive,
			AdmissionFairness: shard.AdmissionFairness(classes), Classes: classes,
		}
	}
	if st, ok := s.cache.TierStats(); ok {
		rep.CacheTier = &st
	}
	return rep
}
