package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"nocout/bench/ledger"
	"nocout/internal/chip"
	"nocout/internal/noc"
	"nocout/internal/sim"
)

// The traced run attributes host time to component classes from outside
// the simulator: after chip.New it re-registers every component in a
// fresh sim.Engine, in the order chip.register uses, each behind a timer
// that forwards the kernel's contracts (NextWake, BindWaker, Flush), and
// swaps that engine in before the first step. Ticks are then counted and
// timed per class, and the Step time no tick covers is the kernel's own.

// class is a component class the traced run times separately.
type class int

const (
	classRouter class = iota
	classNI
	classFabric // a network without routers (the ideal fabric), ticked whole
	classL1
	classDir
	classMC
	classCore
	numClasses
)

var classNames = [numClasses]string{"router", "ni", "fabric", "l1", "dir", "mc", "core"}

// errChipShape reports that the chip's exported structure no longer
// matches what the traced wrapper re-registers, so its time split would
// be wrong.
var errChipShape = errors.New("chip structure does not match the traced wrapper")

// classStat is one class's tick count and measured tick time.
type classStat struct {
	Ticks int64 `json:"ticks"`
	Ns    int64 `json:"ns"`
}

// timedTicker wraps one component, timing its ticks into st.
type timedTicker struct {
	inner   sim.Ticker
	sleeper sim.Sleeper // nil: the component ticks every cycle
	st      *classStat
}

func (t *timedTicker) Tick(now sim.Cycle) {
	start := time.Now()
	t.inner.Tick(now)
	t.st.Ns += int64(time.Since(start))
	t.st.Ticks++
}

// NextWake forwards the quiescence report; a component that is not a
// sim.Sleeper asks for the next cycle, as the engine assumes for it.
func (t *timedTicker) NextWake(now sim.Cycle) sim.Cycle {
	if t.sleeper == nil {
		return now + 1
	}
	return t.sleeper.NextWake(now)
}

func (t *timedTicker) BindWaker(w sim.Waker) {
	if b, ok := t.inner.(sim.WakeBinder); ok {
		b.BindWaker(w)
	}
}

func (t *timedTicker) Flush(now sim.Cycle) {
	if f, ok := t.inner.(sim.Flusher); ok {
		f.Flush(now)
	}
}

// tracer accumulates class timings and Step time over every traced
// simulation of a run.
type tracer struct {
	classes [numClasses]classStat
	stepNs  int64 // Warmup+Run host time of the traced simulations
	cycles  int64 // simulated cycles of the traced simulations
}

// instrument re-registers c's components behind timers in a fresh engine.
// c must be freshly built, single-domain and not yet stepped.
func (tr *tracer) instrument(c *chip.Chip) error {
	if c.Shard != nil || len(c.Doms) != 1 || c.Engine != c.Doms[0] || c.NowCycle() != 0 {
		return fmt.Errorf("%w: want a fresh single-domain chip", errChipShape)
	}
	e := sim.NewEngine()
	add := func(cl class, t sim.Ticker) {
		s, _ := t.(sim.Sleeper)
		e.Register(&timedTicker{inner: t, sleeper: s, st: &tr.classes[cl]})
	}
	if v, ok := c.Net.(interface{ RN() *noc.RouterNetwork }); ok {
		rn := v.RN()
		for _, r := range rn.Routers {
			add(classRouter, r)
		}
		for _, ni := range rn.NIs {
			if ni != nil {
				add(classNI, ni)
			}
		}
	} else if _, composite := c.Net.(sim.Registrar); composite {
		return fmt.Errorf("%w: network %T registers parts of its own but exposes no RN()", errChipShape, c.Net)
	} else {
		add(classFabric, c.Net)
	}
	for _, l1 := range c.L1s {
		add(classL1, l1)
	}
	for _, b := range c.Banks {
		add(classDir, b)
	}
	for _, mc := range c.MCs {
		add(classMC, mc)
	}
	for _, co := range c.Cores {
		add(classCore, co)
	}
	c.Engine, c.Doms[0] = e, e
	return nil
}

// timerCost calibrates the wrapper: pair is the host time one wrapped
// tick adds to a Step, inner the part of it a tick's own measurement
// reads. Both are medians of several calibration loops.
func timerCost() (pair, inner float64) {
	const n = 1 << 20
	var pairs, inners []float64
	for range 5 {
		var st classStat
		var direct sim.Sleeper = nopTicker{}
		var wrapped sim.Sleeper = &timedTicker{inner: nopTicker{}, sleeper: nopTicker{}, st: &st}
		loop := func(s sim.Sleeper) time.Duration {
			start := time.Now()
			for i := range sim.Cycle(n) {
				s.Tick(i)
				s.NextWake(i)
			}
			return time.Since(start)
		}
		base := loop(direct)
		with := loop(wrapped)
		pairs = append(pairs, float64(with-base)/n)
		inners = append(inners, float64(st.Ns)/n)
	}
	return ledger.Median(pairs), ledger.Median(inners)
}

type nopTicker struct{}

func (nopTicker) Tick(sim.Cycle)                   {}
func (nopTicker) NextWake(now sim.Cycle) sim.Cycle { return now + 1 }

// layerMetrics turns the accumulated class timings into the sim, noc,
// coherence, mem and cpu per-layer metrics. Each tick's measured time is
// corrected by the calibrated timer cost before it is attributed.
func (tr *tracer) layerMetrics(pair, inner float64) map[string]float64 {
	var ticks int64
	for _, st := range tr.classes {
		ticks += st.Ticks
	}
	total := float64(tr.stepNs) - float64(ticks)*pair
	self := func(cls ...class) (ns float64, n int64) {
		for _, c := range cls {
			ns += float64(tr.classes[c].Ns) - float64(tr.classes[c].Ticks)*inner
			n += tr.classes[c].Ticks
		}
		return ns, n
	}
	kernel := total
	for c := range numClasses {
		ns, _ := self(c)
		kernel -= ns
	}
	cycles := float64(tr.cycles)
	perTick := func(ns float64, n int64) float64 {
		if n == 0 {
			return 0
		}
		return ns / float64(n)
	}
	perK := func(n int64) float64 { return float64(n) / cycles * 1000 }
	out := map[string]float64{
		"sim.kernel_frac":         kernel / total,
		"sim.kernel_ns_per_cycle": kernel / cycles,
		"sim.ticks_per_kcycle":    perK(ticks),
	}
	put := func(prefix string, cls ...class) {
		ns, n := self(cls...)
		out[prefix+"ns_per_tick"] = perTick(ns, n)
		out[prefix+"ticks_per_kcycle"] = perK(n)
	}
	frac := func(cls ...class) float64 {
		ns, _ := self(cls...)
		return ns / total
	}
	put("noc.router_", classRouter)
	out["noc.router_frac"] = frac(classRouter)
	put("noc.ni_", classNI)
	out["noc.ni_frac"] = frac(classNI)
	put("coherence.l1_", classL1)
	put("coherence.dir_", classDir)
	out["coherence.frac"] = frac(classL1, classDir)
	put("mem.", classMC)
	out["mem.frac"] = frac(classMC)
	put("cpu.", classCore)
	out["cpu.frac"] = frac(classCore)
	return out
}

// span is one phase of a simulation, kept in memory during the run and
// written out when it ends. Parent names the enclosing span's ID (0 for
// a simulation, which is the root of its phases).
type span struct {
	ID      int                  `json:"id"`
	Parent  int                  `json:"parent,omitempty"`
	Name    string               `json:"name"`
	StartNs int64                `json:"start_ns"`
	EndNs   int64                `json:"end_ns"`
	Classes map[string]classStat `json:"classes,omitempty"`
}

// spanLog records spans relative to its creation time.
type spanLog struct {
	origin time.Time
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its ID.
func (l *spanLog) begin(parent int, name string) int {
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name,
		StartNs: int64(time.Since(l.origin))})
	return len(l.spans)
}

// end closes span id.
func (l *spanLog) end(id int) { l.spans[id-1].EndNs = int64(time.Since(l.origin)) }

// setClasses attaches per-class tick totals to span id.
func (l *spanLog) setClasses(id int, cl map[string]classStat) { l.spans[id-1].Classes = cl }

// durations returns the durations in ms of every span named name.
func (l *spanLog) durations(name string) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	return out
}

// write stores the spans as JSON at path.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(l.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// classTable names the non-empty class totals, for a simulation span.
func classTable(before, after [numClasses]classStat) map[string]classStat {
	out := map[string]classStat{}
	for c := range numClasses {
		d := classStat{Ticks: after[c].Ticks - before[c].Ticks, Ns: after[c].Ns - before[c].Ns}
		if d.Ticks > 0 {
			out[classNames[c]] = d
		}
	}
	return out
}
