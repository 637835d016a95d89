package sim

import (
	"math"
	"sort"

	"repro/internal/calib"
	"repro/internal/hardware"
)

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
		for g := range ms.acc {
			for u := range ms.acc[g] {
				a := &ms.acc[g][u]
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
