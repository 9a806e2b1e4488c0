package opensys

import (
	"math"

	"nocout/internal/sim"
)

// The arrival engine. All three processes are one mechanism: a Poisson
// process whose instantaneous rate is the configured mean rate times a
// product of piecewise-constant modulators. An inter-arrival is drawn as
// a unit-rate exponential amount of "work" and consumed through the
// piecewise-constant rate profile (the standard thinning-free inversion
// for nonhomogeneous Poisson with piecewise rates):
//
//   - poisson: no modulators — homogeneous.
//   - mmpp:    one modulator alternating lo/hi multipliers with
//     exponential dwells (a 2-state MMPP).
//   - burst:   one modulator alternating ON/OFF multipliers with
//     Pareto(α = 3−2H) epoch lengths — heavy-tailed ON/OFF, the
//     classical self-similar traffic construction.
//   - phases:  one deterministic modulator cycling the diurnal schedule.
//
// Everything draws from a single forked RNG in a fixed order, so a
// (workload spec, coreID, seed) triple always yields the identical
// arrival schedule regardless of kernel, worker pool, or host.

// modulator is a piecewise-constant rate multiplier: mult applies for
// left more cycles, then advance picks the next piece. A left of +Inf
// never advances (the constant modulator). All discrete process state
// lives in the phase field — advance closures capture only immutable
// parameters — so (mult, left, phase) plus the RNG position is the
// complete checkpointable state of any modulator.
type modulator struct {
	mult    float64
	left    float64
	phase   int // process-specific discrete state (MMPP hi/lo, ON/OFF, diurnal index)
	phases  int // the values phase takes: 0 through phases-1
	advance func(m *modulator)
}

// arrivalGen produces absolute arrival times (in cycles, strictly
// increasing) for one core.
type arrivalGen struct {
	rng  *sim.RNG
	rate float64 // per-cycle base rate for this core (skew applied)
	t    float64 // current absolute time
	mods []*modulator
}

// arrivalLane offsets the RNG fork lane so arrival draws never collide
// with base-workload stream forks (which use small per-core lanes).
const arrivalLane uint64 = 0xA11A << 32

// newArrivalGen builds the generator for coreID under cfg. perCycle is
// the skew-adjusted mean rate in requests per cycle.
func newArrivalGen(cfg Config, coreID int, seed uint64, perCycle float64) *arrivalGen {
	g := &arrivalGen{
		rng:  sim.NewRNG(seed).Fork(arrivalLane | uint64(coreID)),
		rate: perCycle,
	}
	switch cfg.Arrival {
	case "mmpp":
		g.mods = append(g.mods, newMMPP(cfg, g.rng))
	case "burst":
		g.mods = append(g.mods, newBurst(cfg, g.rng))
	}
	if len(cfg.Phases) > 0 {
		g.mods = append(g.mods, newDiurnal(cfg.Phases))
	}
	return g
}

// exp draws a unit-rate exponential (Log1p keeps precision near 0 and
// rng.Float64 in [0,1) keeps the argument away from the -1 pole).
func (g *arrivalGen) exp() float64 {
	return -math.Log1p(-g.rng.Float64())
}

// next returns the next absolute arrival time, or +Inf if the rate is
// (permanently) zero.
func (g *arrivalGen) next() float64 {
	if g.rate <= 0 {
		return math.Inf(1)
	}
	w := g.exp()
	for {
		mult := 1.0
		step := math.Inf(1)
		for _, m := range g.mods {
			mult *= m.mult
			if m.left < step {
				step = m.left
			}
		}
		if r := g.rate * mult; r > 0 {
			if need := w / r; need <= step {
				g.t += need
				for _, m := range g.mods {
					if !math.IsInf(m.left, 1) {
						m.left -= need
					}
				}
				return g.t
			}
			if !math.IsInf(step, 1) {
				w -= step * r
			}
		}
		if math.IsInf(step, 1) {
			// No modulator will ever change the (zero) rate again.
			return math.Inf(1)
		}
		g.t += step
		for _, m := range g.mods {
			if math.IsInf(m.left, 1) {
				continue
			}
			if m.left -= step; m.left <= 0 {
				m.advance(m)
			}
		}
	}
}

// newMMPP builds the 2-state Markov modulator. The lo/hi multipliers
// are normalized so the *stationary* mean multiplier is exactly 1 —
// Rate stays the true mean offered load at any Ratio:
//
//	loMult = (dwellHi + dwellLo) / (ratio*dwellHi + dwellLo)
//	hiMult = ratio * loMult
//
// The initial state is drawn from the stationary distribution, so the
// process starts in equilibrium rather than ramping in.
func newMMPP(cfg Config, rng *sim.RNG) *modulator {
	loMult := (cfg.DwellHi + cfg.DwellLo) / (cfg.Ratio*cfg.DwellHi + cfg.DwellLo)
	hiMult := cfg.Ratio * loMult
	hi := rng.Bool(cfg.DwellHi / (cfg.DwellHi + cfg.DwellLo))
	m := &modulator{phases: 2}
	m.advance = func(m *modulator) {
		m.phase ^= 1
		if m.phase == 1 {
			m.mult, m.left = hiMult, -math.Log1p(-rng.Float64())*cfg.DwellHi
		} else {
			m.mult, m.left = loMult, -math.Log1p(-rng.Float64())*cfg.DwellLo
		}
	}
	// Materialize the drawn initial state (advance toggles into it).
	if hi {
		m.phase = 0
	} else {
		m.phase = 1
	}
	m.advance(m)
	return m
}

// Pareto epoch parameters for the burst modulator: the minimum epoch is
// a pipeline-scale 100 cycles, and a single epoch is capped at 1e6
// cycles so one heavy-tail draw cannot freeze a whole measurement
// window in a single state.
const (
	burstEpochMin = 100.0
	burstEpochCap = 1e6
)

// newBurst builds the self-similar ON/OFF modulator: epoch lengths are
// Pareto with tail index α = 3−2H (clamped to [1.05, 1.95] so the mean
// exists but the variance diverges — the long-range-dependence regime),
// ON epochs run at Peak and OFF at 2−Peak (mean 1 for equal expected
// ON/OFF time).
func newBurst(cfg Config, rng *sim.RNG) *modulator {
	alpha := 3 - 2*cfg.Hurst
	if alpha < 1.05 {
		alpha = 1.05
	}
	if alpha > 1.95 {
		alpha = 1.95
	}
	pareto := func() float64 {
		l := burstEpochMin * math.Pow(1-rng.Float64(), -1/alpha)
		return math.Min(l, burstEpochCap)
	}
	on := rng.Bool(0.5)
	m := &modulator{phases: 2}
	m.advance = func(m *modulator) {
		m.phase ^= 1
		if m.phase == 1 {
			m.mult = cfg.Peak
		} else {
			m.mult = 2 - cfg.Peak
		}
		m.left = pareto()
	}
	if on {
		m.phase = 0
	} else {
		m.phase = 1
	}
	m.advance(m)
	return m
}

// newDiurnal builds the deterministic phase-schedule modulator, cycling
// the configured multipliers.
func newDiurnal(phases []RatePhase) *modulator {
	m := &modulator{phase: -1, phases: len(phases)}
	m.advance = func(m *modulator) {
		m.phase = (m.phase + 1) % len(phases)
		m.mult = phases[m.phase].Mult
		m.left = float64(phases[m.phase].Cycles)
	}
	m.advance(m)
	return m
}

// ArrivalTimes returns the first n absolute arrival cycles the
// configured process generates for coreID under seed — the pure arrival
// schedule, independent of any simulation. Tests use it to check
// process statistics and determinism; the benchmark suite uses it to
// price arrival generation per request.
func (o *Open) ArrivalTimes(coreID int, seed uint64, n int) []float64 {
	g := newArrivalGen(o.cfg, coreID, seed, o.perCycleRate(coreID))
	out := make([]float64, 0, n)
	for len(out) < n {
		t := g.next()
		if math.IsInf(t, 1) {
			break
		}
		out = append(out, t)
	}
	return out
}

// perCycleRate is coreID's skew-adjusted arrival rate in requests per
// cycle (Rate is per 1000 cycles; weights wrap beyond the skew grid).
func (o *Open) perCycleRate(coreID int) float64 {
	w := o.weights[coreID%len(o.weights)]
	return o.cfg.Rate * w / 1000
}
