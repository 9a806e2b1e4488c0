// Package workload provides the chip's workload sources behind one
// behavioral interface (Workload, api.go): self-describing values a
// registry resolves by name or alias, each answering for its software
// scalability, per-core pipeline parameters, per-core instruction
// streams, and prewarm address layout. Four families implement it:
//
//   - Synthetic (this file): the six CloudSuite scale-out workloads the
//     paper evaluates (§5.3);
//   - Trace (noc3_read.go): recorded NOC3 traces replayed verbatim,
//     loaded through the "trace:<path>" scheme;
//   - Mix (mix.go): multiprogrammed per-core member assignment;
//   - Phased (phased.go): deterministic time-varying phase schedules.
//
// The synthetic model reproduces the paper's characterization (§2.1),
// which defines the traits each generator exhibits:
//
//   - a multi-megabyte *shared* instruction footprint with complex control
//     flow: every core executes the same binary region as runs of
//     straight-line code broken by jumps, most of which target recently
//     executed functions (loops) and some of which fall anywhere in the
//     footprint. The footprint exceeds the 32KB L1-I but fits the 8MB LLC,
//     so instruction fetches frequently miss to the LLC — the traffic that
//     drives every figure in the paper;
//   - a vast *private* dataset with essentially no temporal reuse: data
//     loads miss the LLC and go to memory;
//   - a small *shared read-write* region (OS and server-software shared
//     state) whose writes are the only source of coherence activity,
//     sized/tuned per workload to land the Figure 4 snoop rates (~0.5–4.5%
//     of LLC accesses, mean ≈ 2%);
//   - per-workload ILP (base CPI) and MLP (dependence chance): Data
//     Serving's pointer-chasing gives it very low ILP/MLP, making it the
//     most latency-sensitive, as in the paper.
package workload

import (
	"nocout/internal/cpu"
	"nocout/internal/sim"
)

// Params characterizes one scale-out workload.
type Params struct {
	Name string

	// Instruction side.
	InstrFootprint uint64  // bytes of shared instruction region
	AvgRun         float64 // mean instructions between taken jumps
	LocalJump      float64 // probability a jump targets a recent function

	// Data side.
	LoadFrac  float64 // fraction of instructions that load
	StoreFrac float64 // fraction of instructions that store
	LocalB    uint64  // per-core stack/locals region (L1-resident)
	LocalFrac float64 // fraction of data accesses that stay local
	DatasetB  uint64  // per-core private dataset bytes (no reuse)
	HotB      uint64  // shared read-write region bytes
	HotFrac   float64 // fraction of non-local accesses hitting the shared region
	HotWrite  float64 // fraction of non-local stores hitting the shared region

	// Core behaviour.
	BaseCPI   float64 // intrinsic CPI (ILP)
	DepChance float64 // load-miss serialization probability (1/MLP knob)

	// MaxCores is the workload's software scalability limit (§5.3: Web
	// Frontend and Web Search only scale to 16 cores).
	MaxCores int
}

// The six evaluated workloads. Parameter values are this reproduction's
// calibration (documented in EXPERIMENTS.md); the *relations* between them
// follow the paper's characterization.
var (
	DataServing = Params{
		Name:           "Data Serving",
		InstrFootprint: 6 << 20, AvgRun: 22, LocalJump: 0.74,
		LoadFrac: 0.30, StoreFrac: 0.10, LocalB: 8 << 10, LocalFrac: 0.975,
		DatasetB: 512 << 20, HotB: 512 << 10, HotFrac: 0.06, HotWrite: 0.60,
		BaseCPI: 1.15, DepChance: 0.85,
		MaxCores: 64,
	}
	MapReduceC = Params{
		Name:           "MapReduce-C",
		InstrFootprint: 3 << 20, AvgRun: 52, LocalJump: 0.90,
		LoadFrac: 0.28, StoreFrac: 0.12, LocalB: 8 << 10, LocalFrac: 0.96,
		DatasetB: 512 << 20, HotB: 256 << 10, HotFrac: 0.05, HotWrite: 0.38,
		BaseCPI: 0.85, DepChance: 0.45,
		MaxCores: 64,
	}
	MapReduceW = Params{
		Name:           "MapReduce-W",
		InstrFootprint: 4 << 20, AvgRun: 40, LocalJump: 0.86,
		LoadFrac: 0.28, StoreFrac: 0.10, LocalB: 8 << 10, LocalFrac: 0.96,
		DatasetB: 512 << 20, HotB: 256 << 10, HotFrac: 0.04, HotWrite: 0.40,
		BaseCPI: 0.95, DepChance: 0.55,
		MaxCores: 64,
	}
	SATSolver = Params{
		Name:           "SAT Solver",
		InstrFootprint: 3 << 21, AvgRun: 90, LocalJump: 0.96,
		LoadFrac: 0.32, StoreFrac: 0.08, LocalB: 16 << 10, LocalFrac: 0.96,
		DatasetB: 256 << 20, HotB: 128 << 10, HotFrac: 0.09, HotWrite: 0.42,
		BaseCPI: 0.70, DepChance: 0.35,
		MaxCores: 64,
	}
	WebFrontend = Params{
		Name:           "Web Frontend",
		InstrFootprint: 5 << 20, AvgRun: 42, LocalJump: 0.9,
		LoadFrac: 0.30, StoreFrac: 0.12, LocalB: 8 << 10, LocalFrac: 0.95,
		DatasetB: 512 << 20, HotB: 256 << 10, HotFrac: 0.12, HotWrite: 0.65,
		BaseCPI: 0.95, DepChance: 0.50,
		MaxCores: 16,
	}
	WebSearch = Params{
		Name:           "Web Search",
		InstrFootprint: 4 << 20, AvgRun: 54, LocalJump: 0.93,
		LoadFrac: 0.28, StoreFrac: 0.06, LocalB: 16 << 10, LocalFrac: 0.96,
		DatasetB: 1 << 30, HotB: 512 << 10, HotFrac: 0.03, HotWrite: 0.50,
		BaseCPI: 0.80, DepChance: 0.40,
		MaxCores: 16,
	}
)

// Builtin returns the paper's six-workload evaluation suite in figure
// order, excluding registered additions — the set the Figure* studies
// must sweep to stay comparable with the paper.
func Builtin() []Params {
	return []Params{DataServing, MapReduceC, MapReduceW, SATSolver, WebFrontend, WebSearch}
}

// CoreParams derives the cpu parameters this workload implies.
func (p Params) CoreParams(seed uint64) cpu.Params {
	cp := cpu.DefaultParams()
	cp.BaseCPI = p.BaseCPI
	cp.DepChance = p.DepChance
	cp.Seed = seed
	return cp
}

// Address-space layout. All cores share the instruction region and the hot
// read-write region; datasets are per-core (request independence, §2.1).
const (
	instrBase   = uint64(0x0000_0000_0000)
	hotBase     = uint64(0x0040_0000_0000)
	datasetBase = uint64(0x0100_0000_0000)
	datasetStep = uint64(0x0001_0000_0000) // 4GB of space per core
)

// Generator produces one core's dynamic instruction stream. It implements
// cpu.Stream.
type Generator struct {
	p      Params
	coreID int
	rng    *sim.RNG

	pc      uint64
	runLeft int
	recent  []uint64 // recently visited function starts (loop set)
	rIdx    int
}

// NewGenerator builds the stream for one core. Streams with the same seed
// and core id are reproducible.
func NewGenerator(p Params, coreID int, seed uint64) *Generator {
	g := &Generator{
		p:      p,
		coreID: coreID,
		rng:    sim.NewRNG(seed).Fork(uint64(coreID) + 1),
		recent: make([]uint64, 0, 32),
	}
	g.jump()
	return g
}

var _ cpu.Stream = (*Generator)(nil)

// Next returns the next dynamic instruction.
func (g *Generator) Next() cpu.Instr {
	if g.runLeft <= 0 {
		g.jump()
	}
	in := cpu.Instr{Kind: cpu.KindALU, IAddr: g.pc}
	g.pc += 4
	g.runLeft--

	r := g.rng.Float64()
	switch {
	case r < g.p.LoadFrac:
		in.Kind = cpu.KindLoad
		in.DAddr = g.dataAddr(false)
	case r < g.p.LoadFrac+g.p.StoreFrac:
		in.Kind = cpu.KindStore
		in.DAddr = g.dataAddr(true)
	}
	return in
}

// jump picks the next function start: usually from the recent set (loops),
// sometimes anywhere in the footprint (the workloads' "complex control
// flow").
func (g *Generator) jump() {
	g.runLeft = g.rng.Geometric(g.p.AvgRun)
	var target uint64
	if len(g.recent) > 0 && g.rng.Bool(g.p.LocalJump) {
		target = g.recent[g.rng.Intn(len(g.recent))]
	} else {
		target = instrBase + uint64(g.rng.Int64n(int64(g.p.InstrFootprint)))&^3
		if len(g.recent) < cap(g.recent) {
			g.recent = append(g.recent, target)
		} else {
			g.recent[g.rIdx] = target
			g.rIdx = (g.rIdx + 1) % cap(g.recent)
		}
	}
	g.pc = target
}

// dataAddr picks a data address. Most accesses stay in the core's small
// local region (stack, locals, connection state — L1-resident); the rest
// split between the shared hot region (the snoop source) and the vast
// private dataset (the memory-bound stream with no reuse).
func (g *Generator) dataAddr(isWrite bool) uint64 {
	base := datasetBase + uint64(g.coreID)*datasetStep
	if g.rng.Bool(g.p.LocalFrac) {
		return base + uint64(g.rng.Int64n(int64(g.p.LocalB)))&^7
	}
	hot := g.rng.Bool(g.p.HotFrac)
	if isWrite {
		hot = g.rng.Bool(g.p.HotWrite)
	}
	if hot {
		return hotBase + uint64(g.rng.Int64n(int64(g.p.HotB)))&^63
	}
	// Stream through the dataset beyond the local region.
	return base + g.p.LocalB + uint64(g.rng.Int64n(int64(g.p.DatasetB)))&^63
}

// InstrRegion returns the shared instruction region (base, size).
func (p Params) InstrRegion() (base, size uint64) { return instrBase, p.InstrFootprint }

// HotRegion returns the shared read-write region (base, size).
func (p Params) HotRegion() (base, size uint64) { return hotBase, p.HotB }

// LocalRegion returns a core's private local region (base, size).
func (p Params) LocalRegion(core int) (base, size uint64) {
	return datasetBase + uint64(core)*datasetStep, p.LocalB
}
