// Package nocout is a from-scratch reproduction of "NOC-Out:
// Microarchitecting a Scale-Out Processor" (Lotfi-Kamran, Grot, Falsafi,
// MICRO-45, 2012): a 64-core CMP timing simulator with interchangeable
// interconnect organizations — the tiled mesh and flattened-butterfly
// baselines, an idealized wire-only fabric, and the paper's NOC-Out
// organization (reduction/dispersion trees feeding a segregated LLC row) —
// plus the directory-coherent cache hierarchy, DDR3 memory channels,
// CloudSuite-like synthetic scale-out workloads, and calibrated area/energy
// models needed to regenerate every figure of the paper's evaluation.
//
// Every measurement is a declarative sweep over the experiment engine:
// an Experiment (functional options) expands to a Sweep of Points, a
// Runner measures them on a bounded worker pool with context
// cancellation, and the structured Report renders as a text table, JSON,
// or CSV. A single measurement is a one-point sweep:
//
//	rep, err := nocout.NewExperiment(
//		nocout.WithDesigns(nocout.NOCOut),
//		nocout.WithWorkloads("Web Search"),
//	).Run(ctx)
//	fmt.Println(rep.MustGet("NOC-Out", "Web Search", 0))
//
// and a study crosses designs, workloads, and core counts:
//
//	rep, err := nocout.NewExperiment(
//		nocout.WithDesigns(nocout.Mesh, nocout.NOCOut),
//		nocout.WithWorkloads("Data Serving"),
//		nocout.WithCoreCounts(16, 32, 64),
//		nocout.WithQuality(nocout.Quick),
//	).Run(ctx)
//	fmt.Println(rep.Table())
//
// The Figure* functions are such sweep specs and regenerate the paper's
// evaluation; see EXPERIMENTS.md for the catalog and paper-vs-measured
// results.
//
// Interconnect organizations are pluggable: a Design is a handle into a
// registry of self-describing Organization values (name, CLI aliases,
// default tuning, network construction, area/power model). The paper's
// four are builtin; Torus, CMesh, and Crossbar register through the same
// public RegisterDesign API that user organizations use, and every
// registered design works in sweeps, CLI flags, and JSON reports. See
// EXPERIMENTS.md's "writing a new Organization" walkthrough.
//
// Workload sources are pluggable the same way: a Workload is a
// behavioral value (name and aliases, software scalability limit,
// per-core pipeline parameters, per-core instruction streams, prewarm
// layout) resolved through a registry — ParseWorkload accepts any
// registered name or alias, case-insensitively, plus the
// "trace:<path>" scheme for recorded traces. The paper's six
// synthetics are builtin; multiprogrammed mixes (NewMix, with a
// per-member IPC breakdown in Result), deterministic phase schedules
// (NewPhased), and whole-chip NOC3 trace record/replay (RecordTraceFile,
// LoadTrace, nocout -record-trace) ride the same RegisterWorkload path as
// user implementations. See EXPERIMENTS.md's "writing a custom Workload"
// walkthrough.
//
// Open-system traffic is the closed-loop model's complement: the
// "opensys:" workload scheme (and the registered "Open Poisson", "Open
// MMPP", "Open Burst" defaults) drives any registered base workload with
// request-sized work units released by a seeded arrival process —
// Poisson, a 2-state MMPP (rate ratio and dwell times), or a
// self-similar Hurst-parameterized burst train — optionally shaped by a
// diurnal phase schedule and a spatial skew (hotspot, transpose). Each
// request is timestamped arrival→dispatch→completion, so open-loop
// Results carry a ReqLatency block (p50/p95/p99, mean, drops, queue
// length) beside the throughput numbers. WithOfferedLoads sweeps the
// arrival rate and StudySaturation locates the p99 knee; see
// EXPERIMENTS.md's "finding the saturation point" walkthrough.
//
// The memory hierarchy is the third pluggable axis: a HierarchyID is a
// handle into a registry of self-describing Hierarchy values that decide
// LLC bank count and placement, the per-line home (directory) mapping,
// the memory-channel mapping, and the bank/L1/memory configurations. The
// paper's shared NUCA is builtin (and the default); XOR-hashed and
// region-affine placement policies, private per-tile slices (PrivateLLC),
// and clustered LLCs (Clustered) register through the same public
// RegisterHierarchy API that user hierarchies use, and every registered
// hierarchy works in WithHierarchies sweeps, CLI flags (-hierarchy,
// -hierarchies), and JSON reports. See EXPERIMENTS.md's "writing a
// custom Hierarchy" walkthrough.
//
// The design, hierarchy and workload registries are one table type
// behind three name spaces: each keeps its entries in registration order
// (an entry's index is its Design or HierarchyID handle), resolves every
// name and alias case-insensitively, and rejects an empty or taken
// spelling with its own error wording.
package nocout

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"

	"nocout/internal/chip"
	"nocout/internal/physic"
	"nocout/internal/sim"
	"nocout/internal/stats"
	"nocout/internal/topo"
	"nocout/internal/workload"
)

// Design selects the interconnect organization (§5.1): a registry handle
// resolvable with ParseDesign and extensible with RegisterDesign.
type Design = chip.Design

// The paper's evaluated organizations. Torus, CMesh, and Crossbar
// (designs.go) extend the set through the registry.
const (
	Mesh   = chip.Mesh
	FBfly  = chip.FBfly
	NOCOut = chip.NOCOut
	Ideal  = chip.Ideal
)

// Breakdown is a NoC area report in mm² (Figure 8's split).
type Breakdown = physic.Breakdown

// Config describes a CMP instance. The zero value is not valid; start from
// DefaultConfig.
type Config = chip.Config

// NOCOutOrg configures the NOC-Out organization's scalability features
// (§7.1); it is the type of Config.NOCOut.
type NOCOutOrg = topo.NOCOutParams

// DefaultConfig returns the paper's Table 1 64-core system for a design.
func DefaultConfig(d Design) Config { return chip.DefaultConfig(d) }

// Quality selects the simulation effort of an experiment.
type Quality struct {
	Warmup sim.Cycle `json:"warmup"`
	Window sim.Cycle `json:"window"`
	Seeds  int       `json:"seeds"`
}

// ErrBadQuality is the error Quality.Validate wraps: a warmup or window
// below zero cycles.
var ErrBadQuality = errors.New("nocout: quality warmup and window must be non-negative")

// Validate reports, wrapping ErrBadQuality, a Quality no run can use.
// Experiment.Sweep and campaign manifests apply it.
func (q Quality) Validate() error {
	if q.Warmup < 0 || q.Window < 0 {
		return fmt.Errorf("%w (warmup %d, window %d)", ErrBadQuality, q.Warmup, q.Window)
	}
	return nil
}

// Standard effort levels. Quick is suitable for tests and benchmarks; Full
// mirrors the paper's measurement windows.
var (
	Quick = Quality{Warmup: 12000, Window: 20000, Seeds: 1}
	Full  = Quality{Warmup: 30000, Window: 50000, Seeds: 3}
)

// Result summarizes one measured run.
type Result struct {
	Design Design `json:"design"`
	// Hierarchy names the memory hierarchy; it is omitted for the
	// SharedNUCA baseline so pre-hierarchy reports stay byte-compatible.
	Hierarchy   string `json:"hierarchy,omitempty"`
	Workload    string `json:"workload"`
	ActiveCores int    `json:"active_cores"`

	AggIPC     float64 `json:"agg_ipc"` // system throughput: committed instructions / cycle
	PerCoreIPC float64 `json:"per_core_ipc"`

	AvgNetLatency float64 `json:"avg_net_latency_cy"` // cycles, all message classes
	SnoopRate     float64 `json:"snoop_rate"`         // fraction of LLC accesses triggering a snoop
	LLCMissRate   float64 `json:"llc_miss_rate"`
	L1IMPKI       float64 `json:"l1i_mpki"`
	L1DMPKI       float64 `json:"l1d_mpki"`

	NoCPower physic.Power `json:"noc_power"`

	// PerWorkloadIPC breaks AggIPC down by member workload when the
	// source is heterogeneous (a Mix, or a capture of one); nil for
	// homogeneous runs.
	PerWorkloadIPC map[string]float64 `json:"per_workload_ipc,omitempty"`

	// ReqLatency is the request-lifecycle summary for open-system
	// workloads (the "opensys:" family); nil for closed-loop runs, so
	// their JSON, CSV, and table output is byte-identical to before the
	// open-system subsystem existed.
	ReqLatency *ReqLatency `json:"req_latency,omitempty"`
}

// LatencyHist is the mergeable log-bucketed histogram request latencies
// aggregate in (≤12.5% relative quantile error, exact below 16 cycles).
type LatencyHist = stats.LogHist

// ReqLatency summarizes the request lifecycle of an open-system run:
// offered/completed/dropped counts, the latency distribution
// (arrival→completion, in cycles), and the mean queue length seen by
// arrivals. Multi-seed runs merge histograms across seeds before taking
// quantiles, so the tail reflects every measured request.
type ReqLatency struct {
	Arrivals  int64   `json:"arrivals"`
	Completed int64   `json:"completed"`
	Dropped   int64   `json:"dropped,omitempty"`
	MeanCy    float64 `json:"mean_cy"`
	P50       int64   `json:"p50_cy"`
	P95       int64   `json:"p95_cy"`
	P99       int64   `json:"p99_cy"`
	MeanQueue float64 `json:"mean_queue_len"`
	// Hist is the full latency histogram; omit-empty keeps summaries
	// small when callers strip it before encoding.
	Hist *LatencyHist `json:"hist,omitempty"`
}

// reqLatencyOf condenses merged open-system accounting into the Result
// block. A nil or empty input (closed-loop run) yields nil.
func reqLatencyOf(open *workload.OpenStats) *ReqLatency {
	if open == nil {
		return nil
	}
	r := &ReqLatency{
		Arrivals:  open.Arrivals,
		Completed: open.Completed,
		Dropped:   open.Dropped,
		MeanQueue: open.MeanQueueLen(),
		Hist:      open.Hist,
	}
	if open.Hist != nil && open.Hist.Count() > 0 {
		r.MeanCy = open.Hist.Mean()
		r.P50 = open.Hist.Quantile(0.50)
		r.P95 = open.Hist.Quantile(0.95)
		r.P99 = open.Hist.Quantile(0.99)
	}
	return r
}

// String formats the headline numbers, with the per-member breakdown
// appended for heterogeneous workloads.
func (r Result) String() string {
	s := fmt.Sprintf("%v / %s: %d cores, IPC %.2f (%.3f/core), net latency %.1f cy, snoop %.2f%%, NoC %.2f W",
		r.Design, r.Workload, r.ActiveCores, r.AggIPC, r.PerCoreIPC,
		r.AvgNetLatency, r.SnoopRate*100, r.NoCPower.Total())
	if len(r.PerWorkloadIPC) > 0 {
		names := make([]string, 0, len(r.PerWorkloadIPC))
		for name := range r.PerWorkloadIPC {
			names = append(names, name)
		}
		sort.Strings(names)
		parts := make([]string, len(names))
		for i, name := range names {
			parts[i] = fmt.Sprintf("%s %.2f", name, r.PerWorkloadIPC[name])
		}
		s += " [" + strings.Join(parts, ", ") + "]"
	}
	if rl := r.ReqLatency; rl != nil {
		s += fmt.Sprintf(", req p50/p95/p99 %d/%d/%d cy", rl.P50, rl.P95, rl.P99)
		if rl.Dropped > 0 {
			s += fmt.Sprintf(" (%d dropped)", rl.Dropped)
		}
	}
	return s
}

// seedRun holds one seed's measurements.
type seedRun struct {
	agg, lat, snoop, miss, impki, dmpki float64
	members                             map[string]float64
	open                                *workload.OpenStats
	res                                 Result
	// complete marks a seed whose simulation ran to the end; a seed that
	// bailed on a cancelled context leaves it false, poisoning the
	// average (the aggregate result is only valid when every seed ran).
	complete bool
}

// simSlots bounds the number of simulation goroutines in flight across
// the whole process: the Runner's worker pool and runSeeds' per-seed
// fan-out both draw from it, so a Full-quality sweep (3 seeds/point)
// cannot oversubscribe the machine the way points × seeds goroutines
// would. The semaphore is weighted: a simulation sharded across D
// domains (SimDomains) runs D stepping goroutines and occupies D slots,
// keeping workers × domains bounded too.
var simSlots = newSlotSem(runtime.NumCPU())

// slotSem is a weighted semaphore. Grants are atomic — all n slots or
// none, under one lock — so concurrent wide requests cannot deadlock
// holding partial grants; requests wider than the capacity are clamped
// rather than wedged forever.
type slotSem struct {
	mu   sync.Mutex
	cond *sync.Cond
	cap  int
	used int
}

func newSlotSem(n int) *slotSem {
	if n < 1 {
		n = 1
	}
	s := &slotSem{cap: n}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// acquire blocks until n slots (clamped to [1, cap]) are free, takes
// them, and returns how many were actually taken for the paired release.
func (s *slotSem) acquire(n int) int {
	if n < 1 {
		n = 1
	}
	if n > s.cap {
		n = s.cap
	}
	s.mu.Lock()
	for s.used+n > s.cap {
		s.cond.Wait()
	}
	s.used += n
	s.mu.Unlock()
	return n
}

func (s *slotSem) release(n int) {
	s.mu.Lock()
	s.used -= n
	s.cond.Broadcast()
	s.mu.Unlock()
}

// runSeeds is the engine's measurement kernel: it runs q.Seeds
// independent simulations of point p in parallel (bounded by simSlots)
// and averages them. Seed s always runs with base+s*7919 (derived from
// the configured base, not compounded across iterations), and the
// averaging order is fixed, so the result is deterministic for any
// scheduling. The second return is the result's validity: true when
// every seed's simulation ran to completion. Cancellation makes a seed
// bail *before* its simulation starts — an in-flight simulation always
// finishes — so a cancellation that lands after the last seed launched
// still yields a complete, valid result; callers must discard the result
// only when it is not complete.
//
// Invalid configurations (an unregistered design, a hierarchy that
// cannot inhabit the fabric) panic inside chip.New on a seed goroutine;
// the first such panic comes back as an error naming the point, so a
// broken point fails its sweep instead of killing the process from a
// goroutine nobody can recover.
func runSeeds(ctx context.Context, p Point, q Quality, domains int, ck *CheckpointStore) (Result, bool, error) {
	if q.Seeds < 1 {
		q.Seeds = 1
	}
	cfg, w := p.Config, p.wl
	outs := make([]seedRun, q.Seeds)
	var (
		failMu sync.Mutex
		failed error
	)
	var wg sync.WaitGroup
	for s := 0; s < q.Seeds; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			defer func() {
				r := recover()
				if r == nil {
					return
				}
				// Deliberate hard errors (chip.New panicking an error
				// value) keep their text; anything else — runtime errors
				// and other programming bugs — carries the crash site.
				err, deliberate := r.(error)
				if _, rt := r.(runtime.Error); !deliberate || rt {
					err = fmt.Errorf("%v\n\nworker goroutine stack:\n%s", r, debug.Stack())
				}
				failMu.Lock()
				if failed == nil {
					failed = err
				}
				failMu.Unlock()
			}()
			if ctx.Err() != nil {
				return
			}
			got := simSlots.acquire(domains)
			defer simSlots.release(got)
			if ctx.Err() != nil {
				return
			}
			scfg := cfg
			scfg.Seed = cfg.Seed + uint64(s)*seedStride
			// The warm state either restores from the checkpoint cache or
			// is built the ordinary way; both paths land at the same
			// measurement boundary, bit-identically (the checkpoint
			// conformance suite enforces it), so the Result cannot depend
			// on which one ran.
			var c *chip.Chip
			if ck != nil {
				c = ck.chipFor(scfg, w, domains, q.Warmup)
			} else {
				c = warmChip(scfg, w, domains, q.Warmup)
			}
			c.Run(q.Window)
			m := c.Metrics()
			o := &outs[s]
			o.agg = m.AggIPC
			o.lat = m.AvgNetLatency
			o.snoop = m.Dir.SnoopRate()
			o.miss = m.Dir.MissRate()
			o.impki = m.L1IMPKI
			o.dmpki = m.L1DMPKI
			o.members = m.PerMemberIPC
			o.open = m.Open
			if s == 0 {
				o.res = Result{
					Design:      cfg.Design,
					Workload:    w.Name(),
					ActiveCores: m.ActiveCores,
					NoCPower:    powerOf(c, int64(q.Window)),
				}
				if cfg.Hierarchy != chip.SharedNUCA {
					o.res.Hierarchy = cfg.Hierarchy.String()
				}
			}
			o.complete = true
		}(s)
	}
	wg.Wait()
	if failed != nil {
		return Result{}, false, fmt.Errorf("nocout: point %s: %w", p, failed)
	}

	complete := true
	var agg, lat, snoop, miss, impki, dmpki float64
	for s := range outs {
		complete = complete && outs[s].complete
		agg += outs[s].agg
		lat += outs[s].lat
		snoop += outs[s].snoop
		miss += outs[s].miss
		impki += outs[s].impki
		dmpki += outs[s].dmpki
	}
	res := outs[0].res
	n := float64(q.Seeds)
	res.AggIPC = agg / n
	if res.ActiveCores > 0 {
		res.PerCoreIPC = res.AggIPC / float64(res.ActiveCores)
	}
	res.AvgNetLatency = lat / n
	res.SnoopRate = snoop / n
	res.LLCMissRate = miss / n
	res.L1IMPKI = impki / n
	res.L1DMPKI = dmpki / n
	if outs[0].members != nil {
		// Per-key accumulation follows seed order, so the average is
		// deterministic for any map iteration order.
		acc := make(map[string]float64, len(outs[0].members))
		for s := range outs {
			for name, ipc := range outs[s].members {
				acc[name] += ipc / n
			}
		}
		res.PerWorkloadIPC = acc
	}
	if outs[0].open != nil {
		// Seed merge order is fixed (histogram merge is commutative and
		// associative anyway), and counts sum across seeds: the tail
		// quantiles reflect every measured request, not a per-seed average
		// of quantiles (which would not be a quantile of anything).
		merged := workload.NewOpenStats()
		for s := range outs {
			merged.Merge(outs[s].open)
		}
		res.ReqLatency = reqLatencyOf(merged)
	}
	return res, complete, nil
}

// powerOf computes the run's NoC power with the design's area and buffer
// technology, at the configuration the chip resolved and simulated (a
// zero LinkBits, for one, runs at the chip's 128-bit default).
func powerOf(c *chip.Chip, cycles int64) physic.Power {
	cfg := c.Cfg
	area, kind, err := AreaModel(cfg)
	if err != nil {
		// chip.New resolved the same organization to build c, so this is
		// unreachable for any run that produced a chip.
		panic(err)
	}
	return physic.NetworkPowerKind(*c.Net.Stats(), c.NetRouters(), cycles, cfg.LinkBits, area, kind)
}

// AreaModel returns the configuration's NoC area breakdown and buffer
// circuit from its organization's registered model. Unknown designs are a
// hard error — there is no silent zero-area fallback; the Ideal fabric's
// zero breakdown is its organization's explicit wire-only model.
func AreaModel(cfg Config) (physic.Breakdown, physic.BufferKind, error) {
	org, err := chip.OrganizationOf(cfg.Design)
	if err != nil {
		return physic.Breakdown{}, physic.FlipFlop, err
	}
	b, kind := org.AreaModel(cfg)
	return b, kind, nil
}

// HierarchyPhysical returns the configuration's memory-hierarchy silicon
// contribution — LLC storage and directory area plus standby leakage —
// from its hierarchy's registered model. Unknown hierarchies are a hard
// error, exactly as unknown designs are for AreaModel.
func HierarchyPhysical(cfg Config) (HierPhysical, error) {
	h, err := chip.HierarchyOf(cfg.Hierarchy)
	if err != nil {
		return HierPhysical{}, err
	}
	return h.Physical(cfg), nil
}

// Area returns the configuration's NoC area breakdown (Figure 8's model).
// It panics on an unregistered design; use AreaModel to handle the error.
func Area(cfg Config) physic.Breakdown {
	b, _, err := AreaModel(cfg)
	if err != nil {
		panic(err)
	}
	return b
}

// SolveWidthForArea finds the widest link width (a multiple of 8 bits, at
// least 8) whose NoC area for design d does not exceed budget mm² —
// Figure 9's equal-area normalization. It reports the width and the
// achieved area.
func SolveWidthForArea(d Design, budgetMM2 float64) (linkBits int, area Breakdown) {
	cfg := DefaultConfig(d)
	at := func(w int) Breakdown {
		c := cfg
		c.LinkBits = w
		return Area(c)
	}
	best := 8
	bestArea := at(best)
	for w := 8; w <= 512; w += 8 {
		a := at(w)
		if a.Total() <= budgetMM2 {
			best, bestArea = w, a
		}
	}
	return best, bestArea
}
