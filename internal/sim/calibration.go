package sim

import (
	"math"
	"sort"

	"repro/internal/calib"
	"repro/internal/hardware"
	"repro/internal/trace"
)

// machineObserver is the per-machine calib.Observer the simulator
// installs as each server's Config.Observer: every executed request's
// (predicted distribution, observed time) pair folds into machine-local
// accumulators — one per (tenant group, cost unit) — and, when the run
// streams calibration events (WithCalibration), becomes a
// KindCalibration event on the run's calibration recorder. The
// accumulators stay per machine because calibrationReport's fixed merge
// order over them fixes the report's float bytes.
type machineObserver struct {
	machine int
	shard   string
	groupOf map[string]int32
	// acc[g][u] aggregates group g's observations whose predicted mean
	// unit u dominates.
	acc [][hardware.NumUnits]calib.Accumulator
	// stream is nil unless the run streams calibration events.
	stream trace.Recorder
}

func newMachineObserver(machine int, shard string, groups int, groupOf map[string]int32, stream trace.Recorder) *machineObserver {
	return &machineObserver{
		machine: machine,
		shard:   shard,
		groupOf: groupOf,
		acc:     make([][hardware.NumUnits]calib.Accumulator, groups),
		stream:  stream,
	}
}

// Observe implements calib.Observer.
func (o *machineObserver) Observe(ob *calib.Observation) {
	gi, ok := o.groupOf[ob.Tenant]
	if !ok {
		return
	}
	o.acc[gi][ob.Unit].Observe(ob.PredMean, ob.PredSigma, ob.Observed)
	if o.stream != nil && o.stream.Enabled(trace.Full) {
		o.stream.Record(&trace.Event{
			Kind: trace.KindCalibration, At: ob.At, Machine: o.machine, Shard: o.shard,
			Tenant: ob.Tenant, Unit: ob.Unit.String(),
			PredMean: ob.PredMean, PredSigma: ob.PredSigma, Elapsed: ob.Observed,
		})
	}
}

// calibrationReport merges the fleet's machine-local accumulators into
// the report's calibration section. Every merge walks a fixed order —
// machines, then tenant groups, then units — and each machine's
// accumulator folds observations in that machine's event order, so the
// section's float bytes are pinned per (scenario, seed). Nil when
// nothing executed.
func (s *simRun) calibrationReport() *CalibrationReport {
	nGroups := len(s.sc.Tenants)
	perGroupUnit := make([][hardware.NumUnits]calib.Accumulator, nGroups)
	perMachine := make([]calib.Accumulator, len(s.machines))
	for m, ms := range s.machines {
		for g := range ms.obs.acc {
			for u := range ms.obs.acc[g] {
				a := &ms.obs.acc[g][u]
				if a.N() == 0 {
					continue
				}
				perGroupUnit[g][u].Merge(a)
				perMachine[m].Merge(a)
			}
		}
	}
	var overall calib.Accumulator
	var perUnit [hardware.NumUnits]calib.Accumulator
	perGroup := make([]calib.Accumulator, nGroups)
	for g := range perGroupUnit {
		for u := range perGroupUnit[g] {
			a := &perGroupUnit[g][u]
			if a.N() == 0 {
				continue
			}
			overall.Merge(a)
			perUnit[u].Merge(a)
			perGroup[g].Merge(a)
		}
	}
	if overall.N() == 0 {
		return nil
	}
	rep := &CalibrationReport{Overall: overall.Metrics()}
	for u := range perUnit {
		if perUnit[u].N() == 0 {
			continue
		}
		rep.PerUnit = append(rep.PerUnit, UnitCalibration{
			Unit: hardware.Unit(u).String(), Metrics: perUnit[u].Metrics(),
		})
	}
	for g := range perGroup {
		if perGroup[g].N() == 0 {
			continue
		}
		rep.PerTenant = append(rep.PerTenant, TenantCalibration{
			Name: s.sc.Tenants[g].Name, Metrics: perGroup[g].Metrics(),
		})
	}
	sort.Slice(rep.PerTenant, func(i, j int) bool { return rep.PerTenant[i].Name < rep.PerTenant[j].Name })
	for m := range perMachine {
		if perMachine[m].N() == 0 {
			continue
		}
		rep.PerMachine = append(rep.PerMachine, MachineCalibration{
			Machine: m, Metrics: perMachine[m].Metrics(),
		})
	}
	return rep
}

// driftWindow assembles the drift experiment's verdict: onset (the
// earliest scheduled flip), whether and when every drift machine's
// feedback loop noticed (its first post-onset automatic
// recalibration), the fleet's time-to-detection, and attainment over
// executed requests split into before-onset / drifted-but-undetected /
// after-detection phases. Nil when no machine schedules a drift.
func (s *simRun) driftWindow() *DriftWindow {
	if len(s.driftMachines) == 0 {
		return nil
	}
	onset := math.Inf(1)
	for _, m := range s.driftMachines {
		if at := s.machines[m].spec.DriftAt; at < onset {
			onset = at
		}
	}
	dw := &DriftWindow{OnsetAt: onset, Detected: true}
	for _, m := range s.driftMachines {
		d := s.detectedAt[m]
		if d < 0 {
			dw.Detected = false
			break
		}
		if d > dw.DetectedAt {
			dw.DetectedAt = d
		}
	}
	if dw.Detected {
		dw.TimeToDetection = dw.DetectedAt - dw.OnsetAt
	} else {
		dw.DetectedAt = 0
	}
	for _, ps := range s.phaseSamples {
		var pa *PhaseAttainment
		switch {
		case ps.finish < onset:
			pa = &dw.Before
		case !dw.Detected || ps.finish < dw.DetectedAt:
			pa = &dw.During
		default:
			pa = &dw.After
		}
		pa.Executed++
		if ps.met {
			pa.Met++
		}
	}
	for _, pa := range []*PhaseAttainment{&dw.Before, &dw.During, &dw.After} {
		if pa.Executed > 0 {
			pa.Attainment = float64(pa.Met) / float64(pa.Executed)
		}
	}
	dw.AttainmentDuringDrift = dw.During.Attainment
	return dw
}
