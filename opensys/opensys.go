// Package opensys turns any registered closed-loop workload into an
// open-system one: instead of cores always having a next instruction,
// work arrives as fixed-size *requests* released by a pluggable seeded
// arrival process, queues per core, and is timestamped through its
// lifecycle (arrival → dispatch → completion) so runs report tail
// latency (p50/p95/p99) instead of just throughput.
//
// Three arrival processes are built in, all driven by one deterministic
// rate-modulated Poisson engine:
//
//   - "poisson"  — homogeneous Poisson arrivals at the configured rate;
//   - "mmpp"     — a 2-state Markov-modulated Poisson process: the rate
//     alternates between a low and a high state (Ratio apart, mean-1
//     normalized) with exponentially distributed dwell times, the classic
//     burstiness model for server traffic;
//   - "burst"    — a self-similar ON/OFF burst train: epoch lengths are
//     Pareto with tail index α = 3−2H for the configured Hurst parameter,
//     the standard construction whose superposition exhibits long-range
//     dependence (fractional-Brownian-like load).
//
// A Config may also carry a diurnal phase schedule (piecewise rate
// multipliers, composing with the process above it) and a spatial skew
// ("hotspot", "transpose") that scales per-core rates the way PR 4's
// traffic patterns skew destinations — so load imbalance across the die
// is expressible, not just mean load.
//
// The family registers the "opensys:" name scheme, so any spec like
//
//	opensys:arrival=mmpp,base=web-search,rate=4,size=256
//
// resolves through workload.Parse — from the CLI, sweep specs, and
// campaign manifests alike — and three registered defaults ("Open
// Poisson", "Open MMPP", "Open Burst") cover the common cases. Rates are
// mean requests per 1000 cycles per active core; multiply by Size for
// offered instructions per kilocycle.
package opensys

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"nocout/internal/cpu"
	"nocout/internal/workload"
)

// Scheme is the workload-name scheme this package registers: every
// "opensys:<spec>" string parses through Parse.
const Scheme = "opensys"

// RatePhase is one segment of a diurnal load shape: the arrival rate is
// multiplied by Mult for Cycles cycles, then the schedule advances
// (cyclically) to the next phase.
type RatePhase struct {
	Mult   float64 // rate multiplier (>= 0)
	Cycles int64   // phase length in cycles (> 0)
}

// Config describes an open-system workload. The zero value is not
// useful; New applies the documented defaults to zero fields and
// validates the rest.
type Config struct {
	// Base names the registered workload whose streams serve requests and
	// whose calibration (CoreParams, Layout, MaxCores) the open system
	// inherits. Default "data-serving". Scheme-based names (trace:,
	// opensys:) are rejected — bases must be plain registry entries so the
	// canonical spec stays a flat string.
	Base string
	// Arrival selects the arrival process: "poisson" (default), "mmpp",
	// or "burst".
	Arrival string
	// Rate is the mean offered load in requests per 1000 cycles per
	// active core. Default 2. Zero is allowed only via WithOfferedLoad
	// sweeps, not in a parsed spec.
	Rate float64
	// Size is the request service demand in instructions. Default 256.
	Size int
	// Queue bounds each core's pending-request queue; arrivals beyond it
	// are dropped (and counted). Default 64.
	Queue int
	// Ratio is the mmpp high:low rate ratio (> 1). Default 9.
	Ratio float64
	// DwellHi and DwellLo are the mmpp mean state dwell times in cycles.
	// Defaults 2000 and 8000 (bursty one fifth of the time).
	DwellHi float64
	DwellLo float64
	// Hurst is the burst process's self-similarity parameter, in
	// [0.5, 0.95]. Default 0.8.
	Hurst float64
	// Peak is the burst process's ON-state rate multiplier, in (1, 2);
	// the OFF state runs at 2−Peak so the mean stays 1. Default 1.8.
	Peak float64
	// Phases is an optional diurnal schedule of rate multipliers; empty
	// means a flat profile.
	Phases []RatePhase
	// Skew spatially skews per-core arrival rates: "uniform" (default),
	// "hotspot" (Hot of Grid cores receive HotFrac of the load), or
	// "transpose" (rate grows with a core's distance from the tile-grid
	// diagonal, the skew that stresses NOC-Out's reduction trees least
	// evenly). Mean rate over Grid cores is always the configured Rate.
	Skew string
	// Grid is the number of cores the skew normalizes over. Default 64.
	Grid int
	// Hot and HotFrac parameterize the hotspot skew. Defaults 4 and 0.5.
	Hot     int
	HotFrac float64
}

// Open is the open-system workload family: a decorator that inherits
// core calibration from a registered base workload and drives it with
// request arrivals. Immutable after New; safe for concurrent StreamFor.
type Open struct {
	name    string
	aliases []string
	cfg     Config
	base    workload.Workload
	weights []float64 // per-core rate multipliers, mean 1 over cfg.Grid
}

// New validates cfg, applies defaults to zero fields, resolves the base
// workload, and returns the family instance. The returned workload's
// Name is its canonical spec (fixed key order, minimal keys) until
// Named gives it a display name.
func New(cfg Config) (*Open, error) {
	if cfg.Base == "" {
		cfg.Base = "data-serving"
	}
	if strings.Contains(cfg.Base, ":") {
		return nil, fmt.Errorf("opensys: base %q must be a plain registered name, not a scheme", cfg.Base)
	}
	base, err := workload.Parse(cfg.Base)
	if err != nil {
		return nil, fmt.Errorf("opensys: resolving base: %w", err)
	}
	if _, open := workload.RateScaledOf(base); open {
		return nil, fmt.Errorf("opensys: base %q is itself open-system; requests must serve a closed-loop workload", cfg.Base)
	}
	// Canonicalize the base to one registry key, so every spelling of one
	// base yields the same spec (and campaign cache entry): the first
	// registered alias when there is one (the kebab-case CLI spelling),
	// else the lowercased name — both are valid registry keys.
	if as := base.Aliases(); len(as) > 0 {
		cfg.Base = strings.ToLower(strings.TrimSpace(as[0]))
	} else {
		cfg.Base = strings.ToLower(base.Name())
	}
	if cfg.Arrival == "" {
		cfg.Arrival = "poisson"
	}
	switch cfg.Arrival {
	case "poisson", "mmpp", "burst":
	default:
		return nil, fmt.Errorf("opensys: unknown arrival process %q (want poisson, mmpp, or burst)", cfg.Arrival)
	}
	if cfg.Rate == 0 {
		cfg.Rate = 2
	}
	if cfg.Rate < 0 || math.IsNaN(cfg.Rate) || math.IsInf(cfg.Rate, 0) {
		return nil, fmt.Errorf("opensys: rate %v must be a finite non-negative requests/kcycle", cfg.Rate)
	}
	if cfg.Size == 0 {
		cfg.Size = 256
	}
	if cfg.Size < 1 {
		return nil, fmt.Errorf("opensys: request size %d must be at least 1 instruction", cfg.Size)
	}
	if cfg.Queue == 0 {
		cfg.Queue = 64
	}
	if cfg.Queue < 1 {
		return nil, fmt.Errorf("opensys: queue bound %d must be at least 1", cfg.Queue)
	}
	if cfg.Ratio == 0 {
		cfg.Ratio = 9
	}
	if cfg.Ratio <= 1 {
		return nil, fmt.Errorf("opensys: mmpp ratio %v must exceed 1", cfg.Ratio)
	}
	if cfg.DwellHi == 0 {
		cfg.DwellHi = 2000
	}
	if cfg.DwellLo == 0 {
		cfg.DwellLo = 8000
	}
	if cfg.DwellHi <= 0 || cfg.DwellLo <= 0 {
		return nil, fmt.Errorf("opensys: mmpp dwell times %v/%v must be positive cycles", cfg.DwellHi, cfg.DwellLo)
	}
	if cfg.Hurst == 0 {
		cfg.Hurst = 0.8
	}
	if cfg.Hurst < 0.5 || cfg.Hurst > 0.95 {
		return nil, fmt.Errorf("opensys: hurst %v must lie in [0.5, 0.95]", cfg.Hurst)
	}
	if cfg.Peak == 0 {
		cfg.Peak = 1.8
	}
	if cfg.Peak <= 1 || cfg.Peak >= 2 {
		return nil, fmt.Errorf("opensys: burst peak %v must lie in (1, 2)", cfg.Peak)
	}
	live := len(cfg.Phases) == 0
	for i, p := range cfg.Phases {
		if p.Mult < 0 || math.IsNaN(p.Mult) || math.IsInf(p.Mult, 0) {
			return nil, fmt.Errorf("opensys: phase %d multiplier %v must be finite and non-negative", i, p.Mult)
		}
		if p.Cycles < 1 {
			return nil, fmt.Errorf("opensys: phase %d length %d must be at least 1 cycle", i, p.Cycles)
		}
		live = live || p.Mult > 0
	}
	if !live {
		// The arrival engine would search the schedule forever for a
		// piece with a positive rate.
		return nil, fmt.Errorf("opensys: phases %q have no positive multiplier, so no request would ever arrive", phasesSpec(cfg.Phases))
	}
	if cfg.Skew == "" {
		cfg.Skew = "uniform"
	}
	if cfg.Grid == 0 {
		cfg.Grid = 64
	}
	if cfg.Grid < 1 {
		return nil, fmt.Errorf("opensys: skew grid %d must be at least 1", cfg.Grid)
	}
	if cfg.Hot == 0 {
		cfg.Hot = 4
	}
	if cfg.HotFrac == 0 {
		cfg.HotFrac = 0.5
	}
	switch cfg.Skew {
	case "uniform", "transpose":
	case "hotspot":
		if cfg.Hot < 1 || cfg.Hot >= cfg.Grid {
			return nil, fmt.Errorf("opensys: hotspot needs 1 <= hot (%d) < grid (%d)", cfg.Hot, cfg.Grid)
		}
		if cfg.HotFrac <= 0 || cfg.HotFrac >= 1 {
			return nil, fmt.Errorf("opensys: hotfrac %v must lie in (0, 1)", cfg.HotFrac)
		}
	default:
		return nil, fmt.Errorf("opensys: unknown skew %q (want uniform, hotspot, or transpose)", cfg.Skew)
	}
	return &Open{cfg: cfg, base: base, weights: skewWeights(cfg)}, nil
}

// mustNew is New for the package's own init-time defaults.
func mustNew(cfg Config) *Open {
	o, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return o
}

// Named returns a copy carrying a display name and CLI aliases — how
// the registered defaults are built. The canonical spec (and the
// fingerprint) are unchanged; only Name reporting differs.
func (o *Open) Named(name string, aliases ...string) *Open {
	c := *o
	c.name = name
	c.aliases = append([]string(nil), aliases...)
	return &c
}

// Name implements workload.Workload: the display name when registered,
// otherwise the canonical spec — which workload.Parse resolves right
// back through the scheme, so derived instances rehydrate by name.
func (o *Open) Name() string {
	if o.name != "" {
		return o.name
	}
	return o.Spec()
}

// Aliases implements workload.Workload.
func (o *Open) Aliases() []string { return o.aliases }

// MaxCores implements workload.Workload by inheriting the base
// workload's software scalability limit.
func (o *Open) MaxCores() int { return o.base.MaxCores() }

// CoreParams implements workload.Workload; pipelines are calibrated
// exactly as the base workload calibrates them.
func (o *Open) CoreParams(coreID int, seed uint64) cpu.Params {
	return o.base.CoreParams(coreID, seed)
}

// Layout implements workload.Workload with the base's address map, so
// prewarming behaves identically to the closed-loop run.
func (o *Open) Layout() workload.Layout { return o.base.Layout() }

// Unwrap exposes the base workload (per-member attribution and tooling).
func (o *Open) Unwrap() workload.Workload { return o.base }

// Config returns the normalized configuration (defaults applied).
func (o *Open) Config() Config {
	c := o.cfg
	c.Phases = append([]RatePhase(nil), o.cfg.Phases...)
	return c
}

// OfferedLoad implements workload.RateScaled.
func (o *Open) OfferedLoad() float64 { return o.cfg.Rate }

// WithOfferedLoad implements workload.RateScaled: a copy at the given
// rate whose Name is its canonical spec (display names would collide
// across the points of a load sweep).
func (o *Open) WithOfferedLoad(rate float64) workload.Workload {
	c := *o
	c.cfg.Rate = rate
	c.name = ""
	c.aliases = nil
	return &c
}

// StreamFor implements workload.Workload: the base stream wrapped in
// the request lifecycle. The arrival process is forked from (seed,
// coreID) on a different lane than any base generator uses, so arrivals
// are decorrelated from service-instruction draws but both are fully
// determined by the chip seed.
func (o *Open) StreamFor(coreID int, seed uint64) cpu.Stream {
	return newOpenStream(o, coreID, seed)
}

// WorkloadFingerprint implements workload.Fingerprinter: the canonical
// spec plus the base's structural fingerprint, so the campaign cache
// key changes exactly when arrivals or the serving workload change.
func (o *Open) WorkloadFingerprint() ([]byte, error) {
	inner, err := workload.Fingerprint(o.base)
	if err != nil {
		return nil, err
	}
	return append([]byte(o.Spec()+"|"), inner...), nil
}

// skewWeights builds the per-core rate multipliers: mean 1 over
// cfg.Grid cores, so the chip-wide offered load is Rate regardless of
// skew. Cores beyond Grid wrap (coreID mod Grid).
func skewWeights(cfg Config) []float64 {
	w := make([]float64, cfg.Grid)
	switch cfg.Skew {
	case "hotspot":
		hot := cfg.HotFrac * float64(cfg.Grid) / float64(cfg.Hot)
		cold := (1 - cfg.HotFrac) * float64(cfg.Grid) / float64(cfg.Grid-cfg.Hot)
		for i := range w {
			if i < cfg.Hot {
				w[i] = hot
			} else {
				w[i] = cold
			}
		}
	case "transpose":
		// Load grows with distance from the tile-grid diagonal — the
		// placement that pairs with PR 4's transpose traffic pattern.
		side := int(math.Round(math.Sqrt(float64(cfg.Grid))))
		if side < 1 {
			side = 1
		}
		sum := 0.0
		for i := range w {
			r, c := (i/side)%side, i%side
			w[i] = 1 + float64(abs(r-c))/float64(max(side-1, 1))
			sum += w[i]
		}
		for i := range w {
			w[i] *= float64(cfg.Grid) / sum
		}
	default: // uniform
		for i := range w {
			w[i] = 1
		}
	}
	return w
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func init() {
	workload.MustRegisterScheme(Scheme, func(spec string) (workload.Workload, error) {
		return Parse(spec)
	})
	for _, d := range []struct {
		name    string
		aliases []string
		cfg     Config
	}{
		{"Open Poisson", []string{"open-poisson"}, Config{Arrival: "poisson"}},
		{"Open MMPP", []string{"open-mmpp"}, Config{Arrival: "mmpp"}},
		{"Open Burst", []string{"open-burst"}, Config{Arrival: "burst"}},
	} {
		o := mustNew(d.cfg).Named(d.name, d.aliases...)
		if err := workload.Register(o); err != nil {
			panic(err)
		}
	}
}

// sortedPhaseKeys is a tiny helper for error messages listing spec keys.
func sortedPhaseKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
