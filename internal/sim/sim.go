// Package sim provides the deterministic simulation substrate used by every
// timing model in this repository: a clocked engine with a quiescence-aware
// event-scheduled kernel, latched delay pipes for inter-component
// communication, and a seeded RNG.
//
// # Determinism rules
//
//   - A component hands another a value only with a delivery cycle after
//     the current one — through a Pipe, or by writing it into the
//     consumer's own buffer stamped with that cycle, as the noc package's
//     links and credit returns do — or through message queues drained at
//     the start of the receiver's Tick. No component acts on a value
//     before its delivery cycle.
//   - Within a cycle the Engine ticks components in registration order; a
//     correct component only consumes values that were pushed on an earlier
//     cycle, so registration order never changes results.
//
// # The scheduled kernel
//
// By default the Engine does not tick every component every cycle. Each
// registered component is armed in a wake calendar: a timing wheel of 64
// per-cycle bitsets over registration indices, so arming and dispatch are
// O(1), with a min-heap holding the rare arms 64 or more cycles ahead.
// Step advances the clock in jumps to the next armed cycle and, within a
// cycle, ticks only the armed components — still in registration order.
// Three contracts make the skipping invisible:
//
//   - A component implementing Sleeper reports, after each Tick, the next
//     cycle at which it can possibly do work. The report must account for
//     everything already in flight on its inputs (Pipe.NextAt, Queue.Len);
//     NeverWake means "purely reactive: my wake sources will re-arm me".
//     Components that do not implement Sleeper are ticked every cycle,
//     which is always safe.
//   - Every input path is a wake source: Pipe.Push and Queue.Push re-arm
//     the registered consumer (SetWaker / the engine's WakeBinder hook),
//     so a sleeping component can never miss input.
//   - A wake for the current cycle honors registration order: it lands this
//     cycle if the consumer's turn has not passed yet, else next cycle —
//     exactly when the naive kernel would have let the consumer see the
//     input.
//
// Under these contracts the scheduled kernel is cycle-for-cycle identical
// to the naive tick-everything kernel (SetScheduled(false)); the
// conformance suite asserts state-hash equality between the two.
package sim

import (
	"math"
	"math/bits"
)

// Cycle is a simulation timestamp in clock cycles.
type Cycle int64

// NeverWake is the Sleeper report for "purely reactive": the component has
// no self-scheduled work and relies on its wake sources to re-arm it.
const NeverWake Cycle = math.MaxInt64

// Ticker is implemented by every simulated component.
type Ticker interface {
	// Tick advances the component by one cycle. now is the current cycle.
	Tick(now Cycle)
}

// TickFunc adapts a function to the Ticker interface.
type TickFunc func(now Cycle)

// Tick calls f(now).
func (f TickFunc) Tick(now Cycle) { f(now) }

// Sleeper is the quiescence contract. After each Tick the engine asks the
// component for the next cycle at which it can possibly do work:
//
//   - a value <= now means "unknown / always": tick me next cycle (the safe
//     default, equivalent to not implementing Sleeper);
//   - a future cycle sleeps the component until then (or until a wake
//     source re-arms it earlier);
//   - NeverWake sleeps it until a wake source fires.
//
// The report must cover everything already in flight toward the component
// (buffered work, pipe deliveries); wake sources only cover pushes that
// happen after the report.
type Sleeper interface {
	Ticker
	NextWake(now Cycle) Cycle
}

// Waker re-arms one registered component in its engine's wake calendar.
// Wake sources hold the Waker of their consumer; sim.Pipe and sim.Queue
// call it on every push.
type Waker interface {
	// Wake arms the component to tick at cycle at. A value of at that is
	// not in the strict future means "as soon as consistent with the naive
	// kernel": the current cycle if the component's turn in registration
	// order has not passed yet, else the next cycle.
	Wake(at Cycle)
}

// WakeBinder is implemented by components that own wake sources (inbox
// queues, input pipes). The engine calls BindWaker once at registration so
// the component can attach its Waker to them; wiring must therefore be
// complete before the component is registered.
type WakeBinder interface {
	BindWaker(w Waker)
}

// Registrar is implemented by composite components (a router network) that
// prefer to register their internals individually so each can sleep on its
// own. Engine.Register delegates to RegisterInto instead of registering the
// composite as a single ticker.
type Registrar interface {
	RegisterInto(e *Engine)
}

// Flusher is implemented by components that defer per-cycle accounting
// (statistics sampling, stall attribution) while asleep. Flush brings the
// counters up to date at cycle now; Engine.Flush calls it on every
// registered component at measurement boundaries.
type Flusher interface {
	Flush(now Cycle)
}

// Clock is the stepping surface shared by the two kernels: one Engine,
// or a Sharded coordinator over several. A chip drives whichever it was
// built with through it.
type Clock interface {
	Step(n Cycle)
	Flush()
	Now() Cycle
	RestoreAt(at Cycle)
}

var (
	_ Clock = (*Engine)(nil)
	_ Clock = (*Sharded)(nil)
)

// wheelSlots is the timing wheel's span in cycles, one bit of the
// occupancy word per slot. Arms less than a span ahead sit on the wheel;
// later ones wait in the far heap until they come within it.
const wheelSlots = 64

// slotOf returns the wheel slot holding arms for cycle c.
func slotOf(c Cycle) int { return int(c & (wheelSlots - 1)) }

// wakeEntry is one far arm (cycle, component) in the overflow heap.
type wakeEntry struct {
	at  Cycle
	idx int
}

// Engine drives a set of Tickers with a shared clock.
type Engine struct {
	now     Cycle
	tickers []Ticker
	sleeper []Sleeper // parallel to tickers; nil for plain tickers

	naive bool // tick everything every cycle (conformance mode)

	// The wake calendar. wakeAt holds the one cycle each component is
	// armed for (NeverWake = none) and is the single source of truth. An
	// arm less than wheelSlots cycles ahead is one bit on the wheel: slot
	// slotOf(at) is a bitset over registration indices, words uint64s at
	// wheel[slot*words:]. Every wheel bit lies in [now, now+wheelSlots),
	// so a slot names exactly one cycle; occ marks the non-empty slots.
	// Later arms wait in far, which may hold stale entries that are
	// validated against wakeAt.
	wakeAt []Cycle
	wheel  []uint64
	words  int
	occ    uint64
	far    MinHeap[wakeEntry]

	inCycle bool // a cycle is being processed
	cursor  int  // index currently being ticked within the cycle
}

// NewEngine returns an engine with the clock at cycle 0, running the
// scheduled kernel. SetScheduled(false) selects the naive kernel.
func NewEngine() *Engine { return &Engine{} }

// Register appends components to the tick order. A Registrar is expanded
// via RegisterInto; a WakeBinder receives its Waker here, so components
// must be fully wired before registration.
func (e *Engine) Register(ts ...Ticker) {
	for _, t := range ts {
		if r, ok := t.(Registrar); ok {
			r.RegisterInto(e)
			continue
		}
		e.add(t)
	}
}

func (e *Engine) add(t Ticker) {
	idx := len(e.tickers)
	e.tickers = append(e.tickers, t)
	s, _ := t.(Sleeper)
	e.sleeper = append(e.sleeper, s)
	e.wakeAt = append(e.wakeAt, NeverWake)
	if idx%64 == 0 {
		e.growWheel()
	}
	if b, ok := t.(WakeBinder); ok {
		b.BindWaker(&engineWaker{e: e, idx: idx})
	}
	e.arm(idx, e.now+1)
}

// growWheel widens every slot's bitset by one word, keeping its bits.
func (e *Engine) growWheel() {
	words := e.words + 1
	wheel := make([]uint64, wheelSlots*words)
	for s := 0; s < wheelSlots; s++ {
		copy(wheel[s*words:], e.wheel[s*e.words:(s+1)*e.words])
	}
	e.wheel, e.words = wheel, words
}

// SetScheduled selects between the scheduled kernel (the default) and the
// naive tick-everything kernel. Switching back to scheduled re-arms every
// component for the next cycle, from which each Sleeper's report (which
// must cover all in-flight input) rebuilds the calendar.
func (e *Engine) SetScheduled(on bool) {
	if e.naive != on {
		return // already in the requested mode
	}
	e.naive = !on
	if on {
		e.rearmAll()
	}
}

// rearmAll empties the calendar and arms every component for the next
// cycle; SetScheduled and RestoreAt share it.
func (e *Engine) rearmAll() {
	clear(e.wheel)
	e.occ = 0
	e.far.Clear()
	e.inCycle = false
	for i := range e.wakeAt {
		e.wakeAt[i] = NeverWake
	}
	for i := range e.tickers {
		e.arm(i, e.now+1)
	}
}

// Scheduled reports whether the event-scheduled kernel is active.
func (e *Engine) Scheduled() bool { return !e.naive }

// Now returns the current cycle (the last cycle that was ticked).
func (e *Engine) Now() Cycle { return e.now }

// Flush brings every lazily-accounted component (sim.Flusher) up to date at
// the current cycle. Call it before reading statistics that are sampled per
// cycle (measurement boundaries, state hashes).
func (e *Engine) Flush() {
	for _, t := range e.tickers {
		if f, ok := t.(Flusher); ok {
			f.Flush(e.now)
		}
	}
}

// Step advances the simulation by n cycles; n <= 0 is a no-op, so the
// clock never runs backwards. The scheduled kernel jumps the clock between
// armed cycles; cycles on which every component sleeps are skipped
// entirely (they are provably side-effect free).
func (e *Engine) Step(n Cycle) {
	if n <= 0 {
		return
	}
	target := e.now + n
	if e.naive {
		for e.now < target {
			e.now++
			e.tickAll()
		}
		return
	}
	for {
		at, ok := e.NextArmed()
		if !ok || at > target {
			e.now = target
			return
		}
		e.now = at
		e.runCycle()
	}
}

// RunUntil advances the simulation until cond returns true or limit cycles
// have elapsed, and reports whether cond was satisfied.
//
// Semantics are check-then-step: cond is evaluated once against the current
// state before any stepping, then exactly once after each subsequent cycle
// in which work ran — never twice against the same state. Under the
// scheduled kernel, cycles on which every component sleeps are skipped
// (component state cannot change on them) and cond is evaluated once more
// after any final idle jump to the limit; cond should therefore depend on
// simulation state, not on intermediate values of Now(), to behave
// identically on both kernels.
func (e *Engine) RunUntil(cond func() bool, limit Cycle) bool {
	if cond() {
		return true
	}
	target := e.now + limit
	for e.now < target {
		if e.naive {
			e.now++
			e.tickAll()
		} else {
			at, ok := e.NextArmed()
			if !ok || at > target {
				e.now = target
				return cond() // the clock moved; cond may read it
			}
			e.now = at
			e.runCycle()
		}
		if cond() {
			return true
		}
	}
	return false
}

// tickAll runs one naive cycle.
func (e *Engine) tickAll() {
	for _, t := range e.tickers {
		t.Tick(e.now)
	}
}

// NextArmed returns the earliest cycle at which any component of this
// engine is armed to do work, and false when the calendar is empty (every
// component sleeps until an external wake): the first occupied wheel slot
// after now, or the earliest live far entry if that is sooner. Stale far
// entries met on the way are discarded. The Sharded coordinator uses it
// as the domain's published horizon: the domain provably performs no
// pushes before this cycle.
func (e *Engine) NextArmed() (Cycle, bool) {
	at, ok := NeverWake, false
	if e.occ != 0 {
		d := bits.TrailingZeros64(bits.RotateLeft64(e.occ, -slotOf(e.now+1)))
		at, ok = e.now+1+Cycle(d), true
	}
	for e.far.Len() > 0 {
		top := e.far.Min()
		if e.wakeAt[top.idx] != top.at {
			e.far.Pop() // superseded by an earlier arm or already ticked
			continue
		}
		if top.at < at {
			at, ok = top.at, true
		}
		break
	}
	return at, ok
}

// runCycle ticks every component armed for e.now in registration order,
// after moving far arms that have come within the wheel's span onto it.
// Each word of the slot is re-read after every tick, so a wake raised
// during the cycle for a component whose turn has not passed yet joins
// the same cycle; all others land on a later cycle.
func (e *Engine) runCycle() {
	for e.far.Len() > 0 && e.far.Min().at < e.now+wheelSlots {
		if top := e.far.Pop(); e.wakeAt[top.idx] == top.at {
			e.set(top.idx, top.at)
		}
	}
	s := slotOf(e.now)
	slot := e.wheel[s*e.words : (s+1)*e.words]
	e.inCycle = true
	for w := range slot {
		for slot[w] != 0 {
			b := bits.TrailingZeros64(slot[w])
			slot[w] &^= 1 << b
			idx := w<<6 | b
			e.cursor = idx
			e.wakeAt[idx] = NeverWake
			e.tickers[idx].Tick(e.now)
			rep := e.now + 1
			if sl := e.sleeper[idx]; sl != nil {
				rep = sl.NextWake(e.now)
			}
			// The report supersedes arms raised during the component's
			// own tick.
			if at := e.wakeAt[idx]; at != NeverWake {
				e.unset(idx, at)
				e.wakeAt[idx] = NeverWake
			}
			e.arm(idx, rep)
		}
	}
	e.occ &^= 1 << s
	e.inCycle = false
}

// arm schedules component idx to tick at cycle at. Values not in the strict
// future are clamped to the earliest cycle consistent with the naive
// kernel's registration-order semantics (see Waker). A component holds one
// arm, its earliest: a sooner arm replaces a later one, a later arm is
// ignored.
func (e *Engine) arm(idx int, at Cycle) {
	if e.naive || at == NeverWake {
		return
	}
	if at <= e.now {
		if e.inCycle && idx > e.cursor {
			at = e.now
		} else {
			at = e.now + 1
		}
	}
	old := e.wakeAt[idx]
	if at >= old {
		return
	}
	if old != NeverWake {
		e.unset(idx, old) // a far arm has no bit; its heap entry goes stale
	}
	e.wakeAt[idx] = at
	if at-e.now < wheelSlots {
		e.set(idx, at)
	} else {
		e.far.Push(wakeEntry{at: at, idx: idx})
	}
}

// set puts component idx's bit in the wheel slot for cycle at.
func (e *Engine) set(idx int, at Cycle) {
	s := slotOf(at)
	e.wheel[s*e.words+idx>>6] |= 1 << (idx & 63)
	e.occ |= 1 << s
}

// unset clears component idx's bit in the wheel slot for cycle at, and
// the slot's occupancy bit once the slot is empty.
func (e *Engine) unset(idx int, at Cycle) {
	s := slotOf(at)
	slot := e.wheel[s*e.words : (s+1)*e.words]
	slot[idx>>6] &^= 1 << (idx & 63)
	for _, w := range slot {
		if w != 0 {
			return
		}
	}
	e.occ &^= 1 << s
}

// engineWaker is the Waker handed to a component's wake sources.
type engineWaker struct {
	e   *Engine
	idx int
}

// Wake implements Waker.
func (w *engineWaker) Wake(at Cycle) { w.e.arm(w.idx, at) }

// Less orders entries by (cycle, registration index) so same-cycle pops
// come out in deterministic registration order.
func (a wakeEntry) Less(b wakeEntry) bool {
	return a.at < b.at || (a.at == b.at && a.idx < b.idx)
}
