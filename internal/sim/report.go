package sim

import (
	"encoding/json"
	"math"
	"sort"

	uaqetp "repro"
	"repro/internal/calib"
	"repro/internal/serve"
	"repro/internal/shard"
)

// Quantiles summarizes a sample of durations. Quantiles use the
// nearest-rank definition over the sorted sample, so they are exact
// sample statistics (no interpolation) and byte-stable across runs.
type Quantiles struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

func summarize(xs []float64) Quantiles {
	q := Quantiles{N: len(xs)}
	if len(xs) == 0 {
		return q
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var sum float64
	for _, x := range sorted {
		sum += x
	}
	rank := func(p float64) float64 {
		i := int(math.Ceil(p*float64(len(sorted)))) - 1
		if i < 0 {
			i = 0
		}
		return sorted[i]
	}
	q.Mean = sum / float64(len(sorted))
	q.P50 = rank(0.50)
	q.P90 = rank(0.90)
	q.P95 = rank(0.95)
	q.P99 = rank(0.99)
	q.Max = sorted[len(sorted)-1]
	return q
}

// TenantReport aggregates one tenant's outcomes across the whole fleet.
type TenantReport struct {
	Name string `json:"name"`
	// Submitted counts arrivals (admitted + rejected + shed).
	Submitted int `json:"submitted"`
	Admitted  int `json:"admitted"`
	Rejected  int `json:"rejected"`
	Executed  int `json:"executed"`
	// ExecFailed counts admitted requests whose execution errored.
	ExecFailed      int `json:"exec_failed"`
	DeadlinesMet    int `json:"deadlines_met"`
	DeadlinesMissed int `json:"deadlines_missed"`
	// Shed counts arrivals the sharded front door refused before
	// placement (token bucket or predictive check); zero — and omitted
	// — on unsharded runs.
	Shed int `json:"shed,omitempty"`
	// SLOAttainment is end-to-end goodput: the fraction of *submitted*
	// queries that finished within their deadline — a rejection counts
	// against it just like a miss, so admission control cannot trade
	// attainment for rejections for free. Front-door sheds count
	// against it exactly like rejections.
	SLOAttainment float64 `json:"slo_attainment"`
	// AttainmentExecuted is deadlines met over executed queries only.
	AttainmentExecuted float64 `json:"attainment_executed"`
	// Latency is finish - arrival (queue wait included) over executed
	// queries; QueueWait is execution start - arrival.
	Latency   Quantiles `json:"latency"`
	QueueWait Quantiles `json:"queue_wait"`
	// Recalibrations counts predictor swaps across the fleet for this
	// tenant; AutoRecalibrations is the subset triggered by the cadence
	// policy.
	Recalibrations     uint64 `json:"recalibrations"`
	AutoRecalibrations uint64 `json:"auto_recalibrations"`
}

// MachineReport summarizes one simulated machine. Profile and Drift
// label the machine's hardware however the fleet was written (Drift is
// omitted when zero).
type MachineReport struct {
	Machine int     `json:"machine"`
	Profile string  `json:"profile,omitempty"`
	Drift   float64 `json:"drift,omitempty"`
	// DriftAt echoes a scheduled mid-run drift (MachineSpec.DriftAt);
	// DriftDetectedAt is the virtual time this machine's feedback loop
	// first auto-recalibrated after the onset, omitted while undetected.
	DriftAt         float64 `json:"drift_at,omitempty"`
	DriftDetectedAt float64 `json:"drift_detected_at,omitempty"`
	Executed        int     `json:"executed"`
	// Clock is the machine's final virtual time; BusyTime the virtual
	// seconds it spent executing; Utilization BusyTime / Clock.
	Clock       float64 `json:"clock"`
	BusyTime    float64 `json:"busy_time"`
	Utilization float64 `json:"utilization"`
}

// UnitCalibration is one cost unit's fleet-wide calibration metrics;
// TenantCalibration one tenant group's; MachineCalibration one
// machine's. The embedded calib.Metrics flattens into the JSON.
type UnitCalibration struct {
	Unit string `json:"unit"`
	calib.Metrics
}

// TenantCalibration aggregates one tenant group's observations across
// the fleet.
type TenantCalibration struct {
	Name string `json:"name"`
	calib.Metrics
}

// MachineCalibration aggregates one machine's observations across its
// tenants and units.
type MachineCalibration struct {
	Machine int `json:"machine"`
	calib.Metrics
}

// CalibrationReport is the calibration observatory's section of a
// Report: how honest the predicted distributions stayed against
// observed running times, fleet-wide and broken out per cost unit,
// tenant group, and machine. Only units/tenants/machines with
// observations appear.
type CalibrationReport struct {
	Overall    calib.Metrics        `json:"overall"`
	PerUnit    []UnitCalibration    `json:"per_unit,omitempty"`
	PerTenant  []TenantCalibration  `json:"per_tenant,omitempty"`
	PerMachine []MachineCalibration `json:"per_machine,omitempty"`
}

// PhaseAttainment is deadline attainment over the executed requests
// that finished inside one phase of a drift experiment.
type PhaseAttainment struct {
	Executed   int     `json:"executed"`
	Met        int     `json:"met"`
	Attainment float64 `json:"attainment"`
}

// DriftWindow is the drift experiment's verdict, present when any
// machine schedules a mid-run drift (MachineSpec.DriftAt). Detection is
// the first automatic recalibration at or after the onset on every
// drifting machine; TimeToDetection is virtual seconds from the
// earliest onset to the last machine's detection. The three phases
// split executed requests by finish time: before the onset, drifted but
// undetected, and after detection — AttainmentDuringDrift (== During.
// Attainment) is the headline cost of serving on stale units.
type DriftWindow struct {
	OnsetAt         float64 `json:"onset_at"`
	Detected        bool    `json:"detected"`
	DetectedAt      float64 `json:"detected_at,omitempty"`
	TimeToDetection float64 `json:"time_to_detection,omitempty"`
	// AttainmentDuringDrift is deadline attainment between drift onset
	// and detection — the window where predictions are stalest.
	AttainmentDuringDrift float64         `json:"attainment_during_drift"`
	Before                PhaseAttainment `json:"before"`
	During                PhaseAttainment `json:"during"`
	After                 PhaseAttainment `json:"after"`
}

// Report is the simulator's structured outcome. For a fixed scenario
// and seed it is byte-identical across runs (JSON()), worker counts,
// and GOMAXPROCS settings.
type Report struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	Router   string `json:"router"`
	// QueuePolicy is the per-machine drain-order policy in effect.
	QueuePolicy string `json:"queue_policy"`
	Machines    int    `json:"machines"`
	// Events is the number of discrete events processed; Arrivals the
	// total queries offered.
	Events   int `json:"events"`
	Arrivals int `json:"arrivals"`
	// MakeSpan is the latest machine clock: the virtual time the last
	// queued query finished.
	MakeSpan float64 `json:"makespan"`
	// SLOAttainment is deadlines met over submitted, fleet-wide.
	SLOAttainment float64 `json:"slo_attainment"`
	// Latency summarizes end-to-end latency (queue wait included) over
	// every executed query fleet-wide — the sample the fitness latency
	// penalty reads.
	Latency Quantiles `json:"latency"`
	// Fitness is the weighted multi-objective score of this report
	// under DefaultFitnessWeights; re-score with ComputeFitness to
	// re-weigh.
	Fitness    Fitness           `json:"fitness"`
	Tenants    []TenantReport    `json:"tenants"`
	PerMachine []MachineReport   `json:"per_machine"`
	Cache      uaqetp.CacheStats `json:"cache"`
	// Calibration is the calibration observatory's fleet-wide view:
	// predicted-vs-observed MAPE, Pearson r, bias, and coverage per cost
	// unit, tenant, and machine. Nil when nothing executed.
	Calibration *CalibrationReport `json:"calibration,omitempty"`
	// DriftWindow reports the drift experiment (machines with drift_at):
	// time-to-detection and per-phase attainment. Nil otherwise.
	DriftWindow *DriftWindow `json:"drift_window,omitempty"`
	// Shards describes the sharded serving topology when the scenario
	// has a shards block; nil — and omitted — otherwise, keeping
	// unsharded reports byte-identical to the pre-sharding schema.
	Shards *ShardsReport `json:"shards,omitempty"`
}

// ShardReport summarizes one serving shard: its contiguous machine
// slice, the tenants the directory places on it (final topology), and
// the work its machines executed.
type ShardReport struct {
	Shard int    `json:"shard"`
	Name  string `json:"name"`
	// MachineLo/MachineHi are the shard's machine index range
	// [MachineLo, MachineHi).
	MachineLo int `json:"machine_lo"`
	MachineHi int `json:"machine_hi"`
	// Tenants is how many tenants the directory places on this shard
	// in the final topology (after any add/remove rebalance).
	Tenants  int `json:"tenants"`
	Executed int `json:"executed"`
}

// ClassReport is one SLO class's front-door tally.
type ClassReport = shard.ClassCounters

// FrontDoorReport summarizes the fleet's intake valve: configuration
// plus per-SLO-class verdict counters, classes sorted by name.
type FrontDoorReport struct {
	Rate       float64 `json:"rate"`
	Burst      float64 `json:"burst"`
	Predictive bool    `json:"predictive"`
	// AdmissionFairness is shard.AdmissionFairness over Classes.
	AdmissionFairness float64       `json:"admission_fairness"`
	Classes           []ClassReport `json:"classes"`
}

// ShardsReport is the sharded-topology section of a Report.
type ShardsReport struct {
	Count  int `json:"count"`
	VNodes int `json:"vnodes"`
	// AddShardAt/RemoveShardAt echo a mid-run rebalance, when the
	// scenario scheduled one.
	AddShardAt    float64           `json:"add_shard_at,omitempty"`
	RemoveShardAt float64           `json:"remove_shard_at,omitempty"`
	PerShard      []ShardReport     `json:"per_shard"`
	FrontDoor     *FrontDoorReport  `json:"front_door,omitempty"`
	CacheTier     *uaqetp.TierStats `json:"cache_tier,omitempty"`
}

// JSON renders the report with stable indentation — the byte-level
// artifact the determinism contract is pinned on.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// report aggregates the fleet into the final Report.
func (s *simRun) report() *Report {
	rep := &Report{
		Scenario:    s.sc.Name,
		Seed:        s.sc.Seed,
		Router:      s.router,
		QueuePolicy: s.sc.policy.Name,
		Machines:    len(s.machines),
		Events:      s.processed,
		Arrivals:    len(s.arrivals),
		Cache:       s.cache.Stats(),
	}

	// Per-machine stats, snapshotted once each.
	perMachine := make([]serve.Stats, len(s.machines))
	for m, ms := range s.machines {
		st := ms.srv.Stats()
		perMachine[m] = st
		mr := MachineReport{
			Machine:  m,
			Profile:  ms.spec.Profile,
			Drift:    ms.spec.Drift,
			DriftAt:  ms.spec.DriftAt,
			Executed: ms.executed,
			Clock:    st.Clock,
			BusyTime: ms.busyTime,
		}
		if ms.spec.DriftAt > 0 && s.detectedAt[m] >= 0 {
			mr.DriftDetectedAt = s.detectedAt[m]
		}
		if st.Clock > 0 {
			mr.Utilization = ms.busyTime / st.Clock
		}
		rep.PerMachine = append(rep.PerMachine, mr)
		if st.Clock > rep.MakeSpan {
			rep.MakeSpan = st.Clock
		}
	}

	// Aggregate per group (one TenantReport per TenantSpec, covering all
	// its expanded members): serve-side counters are matched to members
	// through a name index rather than a per-tenant fleet scan, so a
	// 10k-tenant run aggregates in one pass over the per-machine stats.
	// Every sum is over integers (or sorted by summarize), so the result
	// is independent of member and machine iteration order.
	groups := make([]TenantReport, len(s.sc.Tenants))
	groupLat := make([][]float64, len(groups))
	groupQW := make([][]float64, len(groups))
	for gi := range groups {
		groups[gi].Name = s.sc.Tenants[gi].Name
	}
	memberOf := make(map[string]int, len(s.tenants))
	for _, ts := range s.tenants {
		memberOf[ts.name] = ts.group
	}
	for m := range s.machines {
		for _, st := range perMachine[m].Tenants {
			gi, ok := memberOf[st.Name]
			if !ok {
				continue
			}
			tr := &groups[gi]
			tr.Admitted += int(st.Admitted)
			tr.Rejected += int(st.Rejected)
			tr.Executed += int(st.Executed)
			tr.ExecFailed += int(st.ExecFailed)
			tr.DeadlinesMet += int(st.DeadlinesMet)
			tr.DeadlinesMissed += int(st.DeadlinesMissed)
			tr.Recalibrations += st.Recalibrations
			tr.AutoRecalibrations += st.AutoRecalibrations
		}
	}
	var fleetMet, fleetSubmitted int
	var fleetLat []float64
	for _, ts := range s.tenants {
		fleetLat = append(fleetLat, ts.latencies...)
		groups[ts.group].Shed += ts.shed
		groupLat[ts.group] = append(groupLat[ts.group], ts.latencies...)
		groupQW[ts.group] = append(groupQW[ts.group], ts.queueWaits...)
	}
	for gi := range groups {
		tr := &groups[gi]
		tr.Submitted = tr.Admitted + tr.Rejected + tr.Shed
		if tr.Submitted > 0 {
			tr.SLOAttainment = float64(tr.DeadlinesMet) / float64(tr.Submitted)
		}
		if tr.Executed > 0 {
			tr.AttainmentExecuted = float64(tr.DeadlinesMet) / float64(tr.Executed)
		}
		tr.Latency = summarize(groupLat[gi])
		tr.QueueWait = summarize(groupQW[gi])
		fleetMet += tr.DeadlinesMet
		fleetSubmitted += tr.Submitted
	}
	rep.Tenants = groups
	if fleetSubmitted > 0 {
		rep.SLOAttainment = float64(fleetMet) / float64(fleetSubmitted)
	}
	rep.Latency = summarize(fleetLat)
	sort.Slice(rep.Tenants, func(i, j int) bool { return rep.Tenants[i].Name < rep.Tenants[j].Name })
	rep.Calibration = s.calibrationReport()
	rep.DriftWindow = s.driftWindow()
	if s.sh != nil {
		rep.Shards = s.shardsReport()
	}
	rep.Fitness = ComputeFitness(rep, DefaultFitnessWeights())
	return rep
}
