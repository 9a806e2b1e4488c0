package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"nocout"
	"nocout/bench/ledger"
	"nocout/campaign"
	"nocout/internal/chip"
	"nocout/internal/sim"
)

// env is what a workload's process shares across its repetitions.
type env struct {
	ctx   context.Context
	seed  uint64
	dir   string // directory for the files the workload writes
	procs int    // simulation goroutines the Runner may use
	ops   *opLog
	spans *spanLog
	notes map[string]ledger.Value // values reported beside the metrics
}

// repStats is what one repetition measured.
type repStats struct {
	wallNs   int64   // the timed repetition
	cpuNs    int64   // CPU time of the timed repetition, all threads
	setupNs  int64   // chip.New + PrewarmCaches over the repetition's chips
	simNs    int64   // host time of the simulation steps (see README)
	windowNs int64   // host time of the measurement windows
	cycles   int64   // simulated cycles
	instrs   float64 // instructions committed in measurement windows
	allocB   uint64  // Go heap bytes allocated
}

// benchWorkload is one named workload of the benchmark.
type benchWorkload interface {
	// prepare builds inputs and reference results once per process.
	prepare(e *env) error
	// rep runs repetition i; every repetition does the same work, except
	// that chip-driven workloads cycle through their seeds.
	rep(e *env, i int) (repStats, error)
	// tracePoints are the simulations a traced run splits by class.
	tracePoints(e *env) ([]simPoint, error)
}

// seedStride spaces the seeds of multi-seed workloads the way the
// experiment engine spaces a point's seeds.
const seedStride = 7919

// fullLength is Full quality's warmup and window at one seed.
var fullLength = nocout.Quality{Warmup: 30000, Window: 50000, Seeds: 1}

// openLow is the low-load open-system workload: Poisson arrivals of Data
// Serving requests at 0.5 requests per 1000 cycles per core.
const openLow = "opensys:arrival=poisson,base=data-serving,rate=0.5"

// workloadEntry names a workload and builds its state for one process.
type workloadEntry struct {
	name string
	make func() benchWorkload
}

// workloads are the benchmark's workloads in run order; README.md gives
// the reason for each.
var workloads = []workloadEntry{
	{"fig7-quick", func() benchWorkload { return &fig7{} }},
	{"full-64", func() benchWorkload {
		return &chipWorkload{designs: []chip.Design{chip.Mesh, chip.NOCOut}, workload: "Data Serving",
			cores: 64, warmup: fullLength.Warmup, window: fullLength.Window}
	}},
	{"open-16-low", func() benchWorkload {
		return &chipWorkload{designs: []chip.Design{chip.Mesh, chip.NOCOut}, workload: openLow,
			cores: 16, warmup: 30000, window: 400000}
	}},
	{"sharded-64", func() benchWorkload { return &sharded{} }},
	{"persist", func() benchWorkload { return &persist{} }},
}

// timed runs f as the timed part of a repetition, recording its wall
// time, CPU time and Go heap allocation into s.
func timed(s *repStats, f func() error) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, err := cpuTime()
	if err != nil {
		return err
	}
	start := time.Now()
	if err := f(); err != nil {
		return err
	}
	s.wallNs = int64(time.Since(start))
	cpu1, err := cpuTime()
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	s.cpuNs = int64(cpu1 - cpu0)
	s.allocB = after.TotalAlloc - before.TotalAlloc
	return nil
}

// runSweep runs sw on a Runner with e.procs workers and records every
// point as an op under prefix, returning the report and its digests.
func runSweep(e *env, rn *nocout.Runner, prefix string, sw nocout.Sweep) (*nocout.Report, []string, error) {
	rn.Workers = e.procs
	rep, err := rn.Run(e.ctx, sw)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", prefix, err)
	}
	ds, err := reportOps(e.ops, prefix, rep)
	return rep, ds, err
}

// setupSweep builds and prewarms each point's chip once, as the Runner
// would before simulating it, and returns the host time taken.
func setupSweep(sw nocout.Sweep) (int64, error) {
	var ns int64
	for _, p := range sw.Points {
		w, err := nocout.ParseWorkload(p.Workload)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		c := chip.NewSharded(p.Config, w, sw.SimDomains)
		c.PrewarmCaches()
		ns += int64(time.Since(start))
	}
	return ns, nil
}

// sweepWork is the simulated cycles and window instructions of a report
// whose every point simulated warmup and window.
func sweepWork(rep *nocout.Report, warmed bool) (cycles int64, instrs float64) {
	q := rep.Quality
	for _, pr := range rep.Results {
		cycles += int64(q.Window) * int64(q.Seeds)
		if warmed {
			cycles += int64(q.Warmup) * int64(q.Seeds)
		}
		instrs += pr.Result.AggIPC * float64(q.Window) * float64(q.Seeds)
	}
	return cycles, instrs
}

// --- fig7-quick --------------------------------------------------------------

// fig7 regenerates the paper's Figure 7 at Quick quality: {Mesh, FBfly,
// NOC-Out} × the six paper workloads at 64 cores on a Runner.
type fig7 struct{ sw nocout.Sweep }

func (f *fig7) prepare(e *env) error {
	var names []string
	for _, p := range nocout.BuiltinWorkloads() {
		names = append(names, p.Name)
	}
	var err error
	f.sw, err = nocout.NewExperiment(
		nocout.WithTitle("fig7-quick"),
		nocout.WithDesigns(nocout.Mesh, nocout.FBfly, nocout.NOCOut),
		nocout.WithWorkloads(names...),
		nocout.WithCoreCounts(64),
		nocout.WithQuality(nocout.Quick),
		nocout.WithSeed(e.seed),
	).Sweep()
	return err
}

func (f *fig7) rep(e *env, i int) (repStats, error) {
	var s repStats
	var err error
	if s.setupNs, err = setupSweep(f.sw); err != nil {
		return s, err
	}
	var rep *nocout.Report
	err = timed(&s, func() (err error) {
		rep, _, err = runSweep(e, &nocout.Runner{}, "fig7-quick", f.sw)
		return err
	})
	if err != nil {
		return s, err
	}
	s.simNs, s.windowNs = s.wallNs, s.wallNs
	s.cycles, s.instrs = sweepWork(rep, true)
	e.notes["paper_err_pp"] = ledger.Value{Value: paperErr(rep), Unit: "pp"}
	return s, nil
}

// paperErr is the model's error against the paper's Figure 7 anchor: the
// geometric mean over the workloads of NOC-Out over Mesh system
// throughput is +17% in the paper; the result is |gmean − 1.17| in
// percentage points.
func paperErr(rep *nocout.Report) float64 {
	logSum, n := 0.0, 0
	for _, pr := range rep.Results {
		if pr.Point.Variant != nocout.NOCOut.String() {
			continue
		}
		mesh, ok := rep.Get(nocout.Mesh.String(), pr.Point.Workload, pr.Point.Cores)
		if !ok || mesh.AggIPC == 0 {
			continue
		}
		logSum += math.Log(pr.Result.AggIPC / mesh.AggIPC)
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Abs(math.Exp(logSum/float64(n))-1.17) * 100
}

func (f *fig7) tracePoints(e *env) ([]simPoint, error) {
	var ps []simPoint
	for _, d := range []chip.Design{chip.Mesh, chip.FBfly, chip.NOCOut} {
		ps = append(ps, simPoint{design: d, workload: "Data Serving", cores: 64, seed: e.seed,
			warmup: nocout.Quick.Warmup, window: nocout.Quick.Window})
	}
	return ps, nil
}

// --- full-64, open-16-low -----------------------------------------------------

// chipWorkload drives chips directly, one simulation at a time: each
// repetition runs every design once, at the repetition's seed.
type chipWorkload struct {
	designs        []chip.Design
	workload       string
	cores          int
	warmup, window sim.Cycle
}

func (w *chipWorkload) points(seed uint64) []simPoint {
	var ps []simPoint
	for _, d := range w.designs {
		ps = append(ps, simPoint{design: d, workload: w.workload, cores: w.cores, seed: seed,
			warmup: w.warmup, window: w.window})
	}
	return ps
}

func (w *chipWorkload) prepare(*env) error { return nil }

// rep cycles through three seeds, as a Full-quality point does.
func (w *chipWorkload) rep(e *env, i int) (repStats, error) {
	var s repStats
	err := timed(&s, func() error {
		for _, p := range w.points(e.seed + uint64(i%3)*seedStride) {
			r, err := runChip(p, nil, e.spans)
			if err != nil {
				return err
			}
			e.ops.point(p.name(), r.digest)
			s.setupNs += r.setupNs
			s.simNs += r.stepNs
			s.windowNs += r.windowNs
			s.cycles += r.cycles
			s.instrs += float64(r.instrs)
		}
		return nil
	})
	return s, err
}

func (w *chipWorkload) tracePoints(e *env) ([]simPoint, error) { return w.points(e.seed), nil }

// --- sharded-64 ---------------------------------------------------------------

// sharded runs NOC-Out × Data Serving at 64 cores, Full length, on a
// Runner that shards the simulation across two domains; the same point
// at one domain is the reference every repetition must equal.
type sharded struct {
	sw, sw2 nocout.Sweep
	ref     []string
}

func (s *sharded) prepare(e *env) error {
	opts := []nocout.Option{
		nocout.WithTitle("sharded-64"),
		nocout.WithDesigns(nocout.NOCOut),
		nocout.WithWorkloads("Data Serving"),
		nocout.WithCoreCounts(64),
		nocout.WithQuality(fullLength),
		nocout.WithSeed(e.seed),
	}
	var err error
	if s.sw, err = nocout.NewExperiment(opts...).Sweep(); err != nil {
		return err
	}
	if s.sw2, err = nocout.NewExperiment(append(opts, nocout.WithSimParallelism(2))...).Sweep(); err != nil {
		return err
	}
	_, s.ref, err = runSweep(e, &nocout.Runner{}, "sharded-64/1-domain", s.sw)
	return err
}

func (s *sharded) rep(e *env, i int) (repStats, error) {
	var st repStats
	var err error
	if st.setupNs, err = setupSweep(s.sw2); err != nil {
		return st, err
	}
	var rep *nocout.Report
	var got []string
	err = timed(&st, func() (err error) {
		rep, got, err = runSweep(e, &nocout.Runner{}, "sharded-64/2-domain", s.sw2)
		return err
	})
	if err != nil {
		return st, err
	}
	e.ops.check(slices.Equal(got, s.ref), "sharded-64: 2-domain result %v differs from 1-domain %v", got, s.ref)
	st.simNs, st.windowNs = st.wallNs, st.wallNs
	st.cycles, st.instrs = sweepWork(rep, true)
	return st, nil
}

func (s *sharded) tracePoints(e *env) ([]simPoint, error) {
	return []simPoint{{design: chip.NOCOut, workload: "Data Serving", cores: 64, seed: e.seed,
		warmup: fullLength.Warmup, window: fullLength.Window}}, nil
}

// --- persist ------------------------------------------------------------------

// persist exercises the write path beside the read path of the trace,
// checkpoint and campaign layers, with little simulation.
type persist struct {
	live, ckpt   nocout.Sweep
	liveD, plain []string
}

// Sizes of the persist workload.
const (
	recordCores   = 64
	recordPerCore = 96000 // (Quick warmup + window) × 3, enough for an exact replay
)

// ckptQuality is Quick warmup with a short window, so the checkpoint and
// campaign layers, not the simulation, dominate.
var ckptQuality = nocout.Quality{Warmup: nocout.Quick.Warmup, Window: 4000, Seeds: 1}

// ckptSweep is {Mesh, NOC-Out} × {Data Serving, SAT Solver} at 64 cores.
func ckptSweep(seed uint64) (nocout.Sweep, error) {
	return nocout.NewExperiment(
		nocout.WithTitle("persist"),
		nocout.WithDesigns(nocout.Mesh, nocout.NOCOut),
		nocout.WithWorkloads("Data Serving", "SAT Solver"),
		nocout.WithCoreCounts(64),
		nocout.WithQuality(ckptQuality),
		nocout.WithSeed(seed),
	).Sweep()
}

func (p *persist) prepare(e *env) error {
	var err error
	p.live, err = nocout.NewExperiment(
		nocout.WithDesigns(nocout.Mesh),
		nocout.WithWorkloads("MapReduce-C"),
		nocout.WithCoreCounts(recordCores),
		nocout.WithQuality(nocout.Quick),
		nocout.WithSeed(e.seed),
	).Sweep()
	if err != nil {
		return err
	}
	if p.ckpt, err = ckptSweep(e.seed); err != nil {
		return err
	}
	if _, p.liveD, err = runSweep(e, &nocout.Runner{}, "persist/live", p.live); err != nil {
		return err
	}
	_, p.plain, err = runSweep(e, &nocout.Runner{}, "persist/plain", p.ckpt)
	return err
}

func (p *persist) rep(e *env, i int) (repStats, error) {
	var s repStats
	live, err := setupSweep(p.live)
	if err != nil {
		return s, err
	}
	ck, err := setupSweep(p.ckpt)
	if err != nil {
		return s, err
	}
	s.setupNs = live + ck

	dir := filepath.Join(e.dir, fmt.Sprintf("rep%d", i))
	defer os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return s, err
	}
	err = timed(&s, func() error {
		cycles, instrs, err := p.once(e, dir)
		s.cycles, s.instrs = cycles, instrs
		return err
	})
	s.simNs, s.windowNs = s.wallNs, s.wallNs
	return s, err
}

// once records and replays a trace, runs the checkpoint sweep cold then
// warm, and runs it as a campaign cold, all-cached, and merged, checking
// each result against the live and plain references.
func (p *persist) once(e *env, dir string) (cycles int64, instrs float64, err error) {
	add := func(rep *nocout.Report, warmed bool) {
		c, n := sweepWork(rep, warmed)
		cycles += c
		instrs += n
	}

	path := filepath.Join(dir, "mapreduce-c.noc3")
	src, err := nocout.ParseWorkload("MapReduce-C")
	if err != nil {
		return 0, 0, err
	}
	if err := nocout.RecordTraceFile(path, src, recordCores, recordPerCore, e.seed); err != nil {
		return 0, 0, err
	}
	tf, err := nocout.LoadTrace(path)
	if err != nil {
		return 0, 0, err
	}
	replay, err := nocout.NewExperiment(
		nocout.WithDesigns(nocout.Mesh),
		nocout.WithWorkloadValues(tf),
		nocout.WithCoreCounts(recordCores),
		nocout.WithQuality(nocout.Quick),
		nocout.WithSeed(e.seed),
	).Sweep()
	if err != nil {
		return 0, 0, err
	}
	rep, got, err := runSweep(e, &nocout.Runner{}, "persist/replay", replay)
	if cl, ok := tf.(io.Closer); ok {
		cl.Close()
	}
	if err != nil {
		return 0, 0, err
	}
	add(rep, true)
	e.ops.check(slices.Equal(got, p.liveD), "persist: replay %v differs from live %v", got, p.liveD)

	st, err := nocout.NewCheckpointStore(filepath.Join(dir, "ckpt"))
	if err != nil {
		return 0, 0, err
	}
	rn := &nocout.Runner{Checkpoints: st}
	rep, cold, err := runSweep(e, rn, "persist/ckpt", p.ckpt)
	if err != nil {
		return 0, 0, err
	}
	add(rep, true)
	rep, warm, err := runSweep(e, rn, "persist/ckpt", p.ckpt)
	if err != nil {
		return 0, 0, err
	}
	add(rep, false)
	hits, misses, _ := st.Stats()
	e.ops.check(slices.Equal(cold, p.plain) && slices.Equal(warm, p.plain) && hits == int64(len(warm)) && misses == int64(len(cold)),
		"persist: checkpoint cold %v / warm %v differ from plain %v (hits %d, misses %d)", cold, warm, p.plain, hits, misses)

	c, err := campaign.Create(filepath.Join(dir, "campaign"), p.ckpt)
	if err != nil {
		return 0, 0, err
	}
	opts := campaign.Options{Workers: e.procs}
	first, err := c.Work(e.ctx, opts)
	if err != nil {
		return 0, 0, err
	}
	again, err := c.Work(e.ctx, opts)
	if err != nil {
		return 0, 0, err
	}
	merged, err := c.Merge()
	if err != nil {
		return 0, 0, err
	}
	add(merged, true)
	ds, err := reportOps(e.ops, "persist/campaign", merged)
	if err != nil {
		return 0, 0, err
	}
	e.ops.check(slices.Equal(ds, p.plain) && first.Computed == len(ds) && again.Computed == 0,
		"persist: campaign %v differs from plain %v (computed %d, then %d)", ds, p.plain, first.Computed, again.Computed)
	return cycles, instrs, nil
}

func (p *persist) tracePoints(e *env) ([]simPoint, error) {
	path := filepath.Join(e.dir, "trace-point.noc3")
	src, err := nocout.ParseWorkload("MapReduce-C")
	if err != nil {
		return nil, err
	}
	if err := nocout.RecordTraceFile(path, src, recordCores, recordPerCore, e.seed); err != nil {
		return nil, err
	}
	return []simPoint{{design: chip.Mesh, workload: "trace:" + path, label: "replay:MapReduce-C", cores: recordCores,
		seed: e.seed, warmup: nocout.Quick.Warmup, window: nocout.Quick.Window}}, nil
}
