package sim

import (
	"fmt"

	"repro/internal/rng"
)

// The arrival processes.
const (
	// processPoisson is a homogeneous Poisson process at Rate.
	processPoisson = "poisson"
	// processBursty is a Markov-modulated on/off Poisson process: the
	// source alternates exponentially-distributed ON and OFF phases and
	// emits only during ON phases, at Rate/OnFraction — so the mean rate
	// over time equals Rate and burstiness is an orthogonal knob. This
	// is the traffic that separates distribution-aware admission and
	// placement from point-estimate policies: equal average load, much
	// heavier transients.
	processBursty = "bursty"
)

// maxBurstCycles bounds a bursty stream's mean ON/OFF cycles over the
// horizon, horizon/cycle: the draw loop pays for every phase, whether
// or not it emits an arrival. The shipped scenarios run 3.75 to 5.
const maxBurstCycles = 1000

// ArrivalSpec shapes one tenant's arrival process. Rate is the mean
// arrival intensity in queries per virtual second of either process,
// so scenarios can vary temporal structure at equal offered load.
type ArrivalSpec struct {
	Process string  `json:"process"`
	Rate    float64 `json:"rate,omitempty"`
	// Bursty knobs: fraction of time spent in ON phases (default 0.2)
	// and the mean ON+OFF cycle length in virtual seconds (default
	// Horizon/8).
	OnFraction float64 `json:"on_fraction,omitempty"`
	Cycle      float64 `json:"cycle,omitempty"`
}

// normalized fills defaults (given the scenario horizon) and validates.
func (a ArrivalSpec) normalized(horizon float64) (ArrivalSpec, error) {
	if a.Process == "" {
		a.Process = processPoisson
	}
	if a.Process != processPoisson && a.Process != processBursty {
		return a, fmt.Errorf("unknown arrival process %q (want poisson, bursty)", a.Process)
	}
	if a.Rate <= 0 {
		return a, fmt.Errorf("arrival rate %g must be positive", a.Rate)
	}
	if a.OnFraction == 0 {
		a.OnFraction = 0.2
	}
	if a.OnFraction <= 0 || a.OnFraction > 1 {
		return a, fmt.Errorf("on_fraction %g out of (0, 1]", a.OnFraction)
	}
	if a.Cycle == 0 {
		a.Cycle = horizon / 8
	}
	if a.Cycle <= 0 {
		return a, fmt.Errorf("cycle %g must be positive", a.Cycle)
	}
	if a.Process == processBursty && !(horizon/a.Cycle <= maxBurstCycles) {
		return a, fmt.Errorf("cycle %g: horizon/cycle = %g ON/OFF cycles, above the bound of %d", a.Cycle, horizon/a.Cycle, maxBurstCycles)
	}
	return a, nil
}

// times appends the arrival instants in [0, horizon), sorted, to out.
// The draw is deterministic per stream state.
func (a ArrivalSpec) times(out []float64, r *rng.Stream, horizon float64) []float64 {
	if a.Process == processBursty {
		return burstyTimes(out, r, horizon, a.Rate, a.OnFraction, a.Cycle)
	}
	return poissonTimes(out, r, horizon, a.Rate)
}

func poissonTimes(out []float64, r *rng.Stream, horizon, rate float64) []float64 {
	for t := r.ExpFloat64() / rate; t < horizon; t += r.ExpFloat64() / rate {
		out = append(out, t)
	}
	return out
}

// burstyTimes alternates exponential ON/OFF phases; arrivals occur only
// during ON phases at rate/onFraction, so the long-run mean rate is
// rate. The process starts in an ON phase so short horizons still carry
// a burst.
func burstyTimes(out []float64, r *rng.Stream, horizon, rate, onFraction, cycle float64) []float64 {
	onRate := rate / onFraction
	meanOn := onFraction * cycle
	meanOff := (1 - onFraction) * cycle
	on := true
	for t := 0.0; t < horizon; on = !on {
		var dur float64
		if on {
			dur = r.ExpFloat64() * meanOn
		} else {
			dur = r.ExpFloat64() * meanOff
		}
		end := t + dur
		if on {
			for tt := t + r.ExpFloat64()/onRate; tt < end && tt < horizon; tt += r.ExpFloat64() / onRate {
				out = append(out, tt)
			}
		}
		t = end
	}
	return out
}
