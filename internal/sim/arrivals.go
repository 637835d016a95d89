package sim

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// The arrival processes.
const (
	// ProcessPoisson is a homogeneous Poisson process at Rate.
	ProcessPoisson = "poisson"
	// ProcessBursty is a Markov-modulated on/off Poisson process: the
	// source alternates exponentially-distributed ON and OFF phases and
	// emits only during ON phases, at Rate/OnFraction — so the mean rate
	// over time equals Rate and burstiness is an orthogonal knob. This
	// is the traffic that separates distribution-aware admission and
	// placement from point-estimate policies: equal average load, much
	// heavier transients.
	ProcessBursty = "bursty"
	// ProcessDiurnal is a nonhomogeneous Poisson process with sinusoidal
	// intensity Rate*(1 + Amplitude*sin(2*pi*t/Period)) via thinning.
	ProcessDiurnal = "diurnal"
	// ProcessTrace replays an external JSON arrival trace (TraceFile,
	// ingested via internal/workload.LoadTrace): arrival times and pool
	// indexes come from the file instead of a synthetic process.
	ProcessTrace = "trace"
)

// ArrivalSpec shapes one tenant's arrival process. Rate is the mean
// arrival intensity in queries per virtual second for every synthetic
// process, so scenarios can vary temporal structure at equal offered
// load; a trace brings its own times.
type ArrivalSpec struct {
	Process string  `json:"process"`
	Rate    float64 `json:"rate,omitempty"`
	// TraceFile replays an external JSON arrival trace — an array of
	// {"at": seconds, "query": poolIndex} entries resolved against the
	// tenant's query pool (bench/queries). Setting it implies process
	// "trace" and makes Rate unnecessary; process "trace" requires it.
	// Relative paths resolve against the scenario file's directory.
	TraceFile string `json:"trace_file,omitempty"`
	// Bursty knobs: fraction of time spent in ON phases (default 0.2)
	// and the mean ON+OFF cycle length in virtual seconds (default
	// Horizon/8).
	OnFraction float64 `json:"on_fraction,omitempty"`
	Cycle      float64 `json:"cycle,omitempty"`
	// Diurnal knobs: relative amplitude in [0, 1) (default 0.8) and the
	// period in virtual seconds (default Horizon).
	Amplitude float64 `json:"amplitude,omitempty"`
	Period    float64 `json:"period,omitempty"`
}

// normalized fills defaults (given the scenario horizon) and validates.
func (a ArrivalSpec) normalized(horizon float64) (ArrivalSpec, error) {
	if a.Process == "" {
		if a.TraceFile != "" {
			a.Process = ProcessTrace
		} else {
			a.Process = ProcessPoisson
		}
	}
	switch a.Process {
	case ProcessPoisson, ProcessBursty, ProcessDiurnal, ProcessTrace:
	default:
		return a, fmt.Errorf("unknown arrival process %q (want poisson, bursty, diurnal, or trace)", a.Process)
	}
	if a.TraceFile != "" && a.Process != ProcessTrace {
		return a, fmt.Errorf("trace_file %q set on a %q process (only \"trace\" replays files)", a.TraceFile, a.Process)
	}
	if a.Process == ProcessTrace && a.TraceFile == "" {
		return a, fmt.Errorf("process \"trace\" needs a trace_file to replay")
	}
	if a.Rate < 0 || (a.Rate == 0 && a.TraceFile == "") {
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
	if a.Amplitude == 0 {
		a.Amplitude = 0.8
	}
	if a.Amplitude < 0 || a.Amplitude >= 1 {
		return a, fmt.Errorf("amplitude %g out of [0, 1)", a.Amplitude)
	}
	if a.Period == 0 {
		a.Period = horizon
	}
	if a.Period <= 0 {
		return a, fmt.Errorf("period %g must be positive", a.Period)
	}
	return a, nil
}

// times appends the arrival instants in [0, horizon), sorted, for the
// synthetic processes (trace replay produces its own times) to out. The
// draw is deterministic per stream state.
func (a ArrivalSpec) times(out []float64, r *rng.Stream, horizon float64) []float64 {
	switch a.Process {
	case ProcessBursty:
		return burstyTimes(out, r, horizon, a.Rate, a.OnFraction, a.Cycle)
	case ProcessDiurnal:
		return diurnalTimes(out, r, horizon, a.Rate, a.Amplitude, a.Period)
	default:
		return poissonTimes(out, r, horizon, a.Rate)
	}
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

// diurnalTimes thins a homogeneous process at the peak intensity down
// to the sinusoidal profile.
func diurnalTimes(out []float64, r *rng.Stream, horizon, rate, amp, period float64) []float64 {
	peak := rate * (1 + amp)
	for t := r.ExpFloat64() / peak; t < horizon; t += r.ExpFloat64() / peak {
		lam := rate * (1 + amp*math.Sin(2*math.Pi*t/period))
		if r.Float64()*peak < lam {
			out = append(out, t)
		}
	}
	return out
}
