// Package cpu models the chip's cores: ARM Cortex-A15-like 3-way
// out-of-order parts (Table 1: 64-entry ROB, 16-entry LSQ) as interval
// cores. The model captures exactly the behaviour the paper's study turns
// on — how much LLC latency a core can hide:
//
//   - instruction-fetch misses stall fetch until the line returns (the
//     paper's key observation: "L1-I misses stall the processor"),
//   - load misses overlap up to the MSHR/ROB limits unless a dependent
//     consumer serializes them (per-workload DepChance models pointer
//     chasing and limits MLP),
//   - stores retire through a write buffer and never block commit unless
//     the miss file back-pressures,
//   - commit proceeds in order at up to Width per cycle, derated by the
//     workload's base CPI (its intrinsic ILP).
package cpu

import (
	"fmt"

	"nocout/internal/cache"
	"nocout/internal/coherence"
	"nocout/internal/sim"
)

// InstrKind classifies instructions by memory behaviour.
type InstrKind uint8

// Instruction kinds.
const (
	KindALU InstrKind = iota
	KindLoad
	KindStore
	// KindIdle is an open-system stream's "no work pending" answer: fetch
	// consumes nothing this cycle — no I-side access, no ROB entry, no
	// committed instruction. A core with an empty window then sleeps until
	// the stream's IdleUntil cycle instead of asking again every cycle.
	// Closed-loop streams never emit it, so their pipelines are untouched.
	KindIdle
)

// Instr is one dynamic instruction from a workload stream.
type Instr struct {
	Kind  InstrKind
	IAddr uint64 // instruction byte address
	DAddr uint64 // data byte address (loads/stores)
}

// Stream produces a core's dynamic instruction trace. Next has no error
// path by design — a simulation cannot continue without its next
// instruction — so implementations backed by external state decoded on
// demand (the workload package's block-streamed trace replay, for one)
// must validate that state up front when constructed and may panic only
// on genuine mid-run corruption of an already-validated source.
type Stream interface {
	Next() Instr
}

// TimedStream is a Stream that wants to know the current cycle when asked
// for work — the contract open-system sources use to release requests on
// their own arrival schedule (and answer KindIdle when none is due). A
// core fetches via NextAt when its stream implements this; NextAt is
// called at most once per pipeline slot and only on cycles fetch can make
// progress, so implementations see a non-decreasing clock.
//
// IdleUntil is asked after a tick whose fetch got KindIdle: it returns the
// first cycle at which NextAt can answer anything else (sim.NeverWake for
// never), and a value at or before the current cycle for "cannot tell".
// A core with an empty window sleeps until that cycle, so NextAt is not
// called on the idle cycles before it; a call there must therefore have
// no side effect.
type TimedStream interface {
	Stream
	NextAt(now sim.Cycle) Instr
	IdleUntil() sim.Cycle
}

// RetireObserver is a Stream that wants commit-time notification: the
// core reports every batch of retired instructions with the cycle it
// happened, which is how open-system sources timestamp request
// completions exactly. Batches arrive in cycle order, but a core that
// sleeps while fetch waits on a fill reports the commits of the cycles
// it slept through during a later catch-up (the fill, or a Flush), so
// now may lie in the past. A Flush at a cycle has reported every batch
// up to it, so any read that follows the Flush sees them all.
// Closed-loop streams simply don't implement it.
type RetireObserver interface {
	OnRetire(now sim.Cycle, n int)
}

// Params configures a core's pipeline.
type Params struct {
	Width     int     // fetch/commit width (3)
	ROB       int     // reorder-buffer entries (64)
	BaseCPI   float64 // cycles per instruction absent memory stalls (>= 1/Width)
	DepChance float64 // probability a load miss serializes the instruction window
	Seed      uint64
}

// DefaultParams returns the Table 1 core configuration.
func DefaultParams() Params {
	return Params{Width: 3, ROB: 64, BaseCPI: 0.6, DepChance: 0.3}
}

// Stats aggregates a core's activity and stall breakdown.
type Stats struct {
	Instrs       int64
	Cycles       int64
	IfetchStall  int64 // cycles with fetch blocked on an L1-I miss fill
	DataStall    int64 // cycles with commit blocked on a load miss
	SerialStall  int64 // cycles with fetch blocked by a serializing load
	BackPressure int64 // cycles stalled on a full MSHR file
	LoadsIssued  int64
	StoresIssued int64
	IfetchMisses int64
	PeakOutstand int64 // max concurrent load misses observed (MLP witness)
}

// IPC returns committed instructions per cycle over the counted window.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instrs) / float64(s.Cycles)
}

// robEntry is one in-flight instruction.
type robEntry struct {
	mem     bool
	line    uint64
	waiting bool // load miss outstanding
}

// L1Port is the slice of the L1 controller the core drives; satisfied by
// *coherence.L1 and by test fakes.
type L1Port interface {
	Access(now sim.Cycle, line uint64, kind coherence.AccessKind) coherence.Outcome
	SetFillListener(fn func(now sim.Cycle, line uint64, instr, write bool))
}

// Core is one interval-model core bound to an L1 controller.
type Core struct {
	ID     int
	params Params

	l1     L1Port
	stream Stream
	timed  TimedStream    // non-nil when stream wants the fetch-time clock
	retire RetireObserver // non-nil when stream wants commit notifications
	rng    *sim.RNG

	rob      []robEntry
	head     int
	count    int
	credit   float64
	fetchPC  uint64 // current fetch line (byte-address line id)
	haveLine bool

	fetchStall  bool
	fetchLine   uint64 // line being waited on (L1-I miss)
	serialize   bool
	serialLine  uint64
	retryInstr  Instr // instruction blocked on MSHR back-pressure
	haveRetry   bool  // retryInstr holds a deferred instruction
	outstanding int64 // load misses in flight

	enabled bool

	waker    sim.Waker
	lastSeen sim.Cycle // last cycle accounted (tick or lazy catch-up)

	Stats Stats
}

// New builds a core over its L1 and workload stream. The core registers
// itself as the L1's fill listener.
func New(id int, p Params, l1 L1Port, stream Stream) *Core {
	if p.Width < 1 || p.ROB < p.Width || p.BaseCPI < 1.0/float64(p.Width) {
		panic(fmt.Sprintf("cpu: invalid core parameters %+v", p))
	}
	c := &Core{
		ID:      id,
		params:  p,
		l1:      l1,
		stream:  stream,
		rng:     sim.NewRNG(p.Seed ^ (uint64(id)+1)*0x9E3779B97F4A7C15),
		rob:     make([]robEntry, p.ROB),
		enabled: true,
	}
	if ts, ok := stream.(TimedStream); ok {
		c.timed = ts
	}
	if ro, ok := stream.(RetireObserver); ok {
		c.retire = ro
	}
	l1.SetFillListener(c.onFill)
	return c
}

// SetEnabled turns the core on or off (disabled cores model the unused
// tiles in 16-core workload runs).
func (c *Core) SetEnabled(on bool) { c.enabled = on }

// Enabled reports whether the core executes instructions.
func (c *Core) Enabled() bool { return c.enabled }

// ResetStats zeroes the measurement counters (end of warm-up).
func (c *Core) ResetStats() { c.Stats = Stats{} }

// BindWaker implements sim.WakeBinder; the L1 fill listener is the core's
// only wake source. A core blocked on a fill is re-armed by it; an idle
// open-system core also arms itself for its stream's next arrival through
// NextWake, and a fill during that sleep (a store miss completing) wakes
// it early.
func (c *Core) BindWaker(w sim.Waker) { c.waker = w }

// NextWake implements sim.Sleeper. A core sleeps until an L1 fill
// whenever fetch waits on one (an I-miss stall or a serializing load),
// even while its window can still commit: syncTo replays those commits
// when the fill or a Flush settles the core. A full window whose head
// waits on a miss sleeps the same way. Every such state has an
// outstanding MSHR, so the fill listener is guaranteed to re-arm the
// core. A timed core whose window is empty, with no instruction held for
// retry, last fetched KindIdle: it sleeps until its stream's IdleUntil
// cycle, on which NextAt first answers work.
func (c *Core) NextWake(now sim.Cycle) sim.Cycle {
	if !c.enabled {
		return sim.NeverWake
	}
	if c.fetchStall || c.serialize || c.count == len(c.rob) && c.headBlocked() {
		return sim.NeverWake
	}
	// An empty window here has fetch unblocked (the case above caught the
	// rest); a held retry is MSHR back-pressure, retried every cycle.
	if c.timed != nil && c.count == 0 && !c.haveRetry {
		if at := c.timed.IdleUntil(); at > now {
			return at
		}
	}
	return now + 1
}

// headBlocked reports whether in-order commit is stuck on the window head.
func (c *Core) headBlocked() bool {
	return c.count > 0 && c.rob[c.head].mem && c.rob[c.head].waiting
}

// syncTo replays the cycles in (c.lastSeen, upto] that the scheduled
// kernel never ticked, bit-for-bit as Tick would have run each: the
// commit-credit accrual, in-order commit (OnRetire with the replayed
// cycle), the cycle count and the stall attribution. No fetch runs in
// them: the core sleeps only while fetch waits on a fill, behind a full
// window, or on an idle stream (NextWake), so commit is the one stage
// that moves. Once the credit sits at the cap and nothing can commit,
// every further cycle repeats the last, and the remainder closes in one
// step. It must run before any state mutation (a fill, or the body of a
// live Tick).
func (c *Core) syncTo(upto sim.Cycle) {
	if upto <= c.lastSeen {
		return
	}
	if !c.enabled {
		c.lastSeen = upto
		return
	}
	max := float64(c.params.Width)
	for c.lastSeen < upto && (c.credit != max || c.count > 0 && !c.headBlocked()) {
		c.lastSeen++
		c.Stats.Cycles++
		if c.commit(c.lastSeen) == 0 {
			c.accountStall()
		}
	}
	if k := int64(upto - c.lastSeen); k > 0 {
		c.lastSeen = upto
		c.Stats.Cycles += k
		if ctr := c.stallCounter(); ctr != nil {
			*ctr += k
		}
	}
}

// Flush implements sim.Flusher: it replays the cycles the core slept
// through up to now (commits and their OnRetire reports, cycle and stall
// counters), so every read that follows — Warmup's reset, Metrics,
// StateHash, Snapshot — sees what the naive kernel would have.
func (c *Core) Flush(now sim.Cycle) { c.syncTo(now) }

// onFill is the L1 fill callback.
func (c *Core) onFill(now sim.Cycle, line uint64, instr, write bool) {
	// Settle the idle accounting against the pre-fill state, then re-arm:
	// the fill may unblock this very cycle's tick.
	c.syncTo(now - 1)
	if c.waker != nil {
		c.waker.Wake(now)
	}
	if instr {
		if c.fetchStall && line == c.fetchLine {
			c.fetchStall = false
		}
		return
	}
	// Store fills matter too: a load may have merged into the store's
	// outstanding miss, so matching window entries must wake regardless.
	if c.serialize && line == c.serialLine {
		c.serialize = false
	}
	for i := 0; i < c.count; i++ {
		e := &c.rob[(c.head+i)%len(c.rob)]
		if e.mem && e.waiting && e.line == line {
			e.waiting = false
		}
	}
	if c.outstanding > 0 {
		c.outstanding--
	}
}

// Tick advances the core one cycle: commit then fetch/dispatch.
func (c *Core) Tick(now sim.Cycle) {
	if !c.enabled {
		return
	}
	c.syncTo(now - 1)
	c.lastSeen = now
	c.Stats.Cycles++
	committed := c.commit(now)
	c.fetch(now)
	if committed == 0 {
		c.accountStall()
	}
}

// commit retires ready instructions in order, derated by BaseCPI.
func (c *Core) commit(now sim.Cycle) int {
	c.credit += 1.0 / c.params.BaseCPI
	max := float64(c.params.Width)
	if c.credit > max {
		c.credit = max
	}
	n := 0
	for c.credit >= 1 && c.count > 0 {
		e := &c.rob[c.head]
		if e.mem && e.waiting {
			break
		}
		c.head = (c.head + 1) % len(c.rob)
		c.count--
		c.credit--
		c.Stats.Instrs++
		n++
	}
	if n > 0 && c.retire != nil {
		c.retire.OnRetire(now, n)
	}
	return n
}

// fetch brings up to Width new instructions into the window, issuing their
// memory accesses immediately (out-of-order issue at dispatch).
func (c *Core) fetch(now sim.Cycle) {
	if c.fetchStall || c.serialize {
		return
	}
	for w := 0; w < c.params.Width; w++ {
		if c.count >= len(c.rob) {
			return
		}
		var in Instr
		if c.haveRetry {
			in = c.retryInstr
			c.haveRetry = false
		} else if c.timed != nil {
			in = c.timed.NextAt(now)
		} else {
			in = c.stream.Next()
		}
		if in.Kind == KindIdle {
			// No work pending: consume nothing (NextWake may sleep).
			return
		}
		// Instruction-side access on line changes.
		iline := cache.LineAddr(in.IAddr)
		if !c.haveLine || iline != c.fetchPC {
			switch c.l1.Access(now, iline, coherence.Ifetch) {
			case coherence.Hit:
				c.fetchPC = iline
				c.haveLine = true
			case coherence.Miss, coherence.MissMerged:
				c.Stats.IfetchMisses++
				c.fetchStall = true
				c.fetchLine = iline
				c.fetchPC = iline
				c.haveLine = true
				c.retryInstr = in // re-dispatch this instruction after the fill
				c.haveRetry = true
				return
			case coherence.Blocked:
				c.Stats.BackPressure++
				c.retryInstr = in
				c.haveRetry = true
				return
			}
		}
		if !c.dispatch(now, in) {
			return
		}
	}
}

// dispatch issues one instruction into the ROB; false means the pipeline
// must retry it next cycle (MSHR back-pressure).
func (c *Core) dispatch(now sim.Cycle, in Instr) bool {
	e := robEntry{}
	switch in.Kind {
	case KindLoad:
		line := cache.LineAddr(in.DAddr)
		switch c.l1.Access(now, line, coherence.Load) {
		case coherence.Hit:
			e = robEntry{mem: true, line: line, waiting: false}
		case coherence.Miss, coherence.MissMerged:
			e = robEntry{mem: true, line: line, waiting: true}
			c.outstanding++
			if c.outstanding > c.Stats.PeakOutstand {
				c.Stats.PeakOutstand = c.outstanding
			}
			if c.rng.Bool(c.params.DepChance) {
				c.serialize = true
				c.serialLine = line
			}
		case coherence.Blocked:
			c.Stats.BackPressure++
			c.retryInstr = in
			c.haveRetry = true
			return false
		}
		c.Stats.LoadsIssued++
	case KindStore:
		line := cache.LineAddr(in.DAddr)
		switch c.l1.Access(now, line, coherence.Store) {
		case coherence.Blocked:
			c.Stats.BackPressure++
			c.retryInstr = in
			c.haveRetry = true
			return false
		}
		// Stores retire via the write buffer: never block commit.
		e = robEntry{mem: false}
		c.Stats.StoresIssued++
	default:
		e = robEntry{mem: false}
	}
	c.rob[(c.head+c.count)%len(c.rob)] = e
	c.count++
	if c.serialize {
		return false // pointer chase: stop dispatching behind the blocker
	}
	return true
}

// accountStall attributes a zero-commit cycle to its cause.
func (c *Core) accountStall() {
	if ctr := c.stallCounter(); ctr != nil {
		*ctr++
	}
}

// stallCounter picks the stat a stalled cycle is attributed to (nil when
// none applies); syncTo uses the same attribution for lazily-accounted
// sleep cycles so the two paths can never diverge.
func (c *Core) stallCounter() *int64 {
	switch {
	case c.fetchStall:
		return &c.Stats.IfetchStall
	case c.headBlocked():
		return &c.Stats.DataStall
	case c.serialize:
		return &c.Stats.SerialStall
	}
	return nil
}
