package cpu

import (
	"bytes"
	"slices"
	"testing"

	"nocout/internal/ckpt"
	"nocout/internal/coherence"
	"nocout/internal/sim"
)

// retired is one OnRetire report.
type retired struct {
	at sim.Cycle
	n  int
}

// retireLog is a RetireObserver that records every report in call order.
type retireLog struct{ log []retired }

func (l *retireLog) OnRetire(now sim.Cycle, n int) { l.log = append(l.log, retired{now, n}) }

func (l *retireLog) reports() []retired { return l.log }

// scriptStream is a TimedStream on a scripted arrival schedule: arrival i
// releases progs[i], one instruction per NextAt, and the stream answers
// KindIdle while nothing is released. It records every NextAt cycle and
// every OnRetire report.
type scriptStream struct {
	retireLog
	arrivals []sim.Cycle
	progs    [][]Instr
	next     int     // index of the first arrival not yet released
	pending  []Instr // released instructions not yet fetched
	calls    []sim.Cycle
}

func (s *scriptStream) NextAt(now sim.Cycle) Instr {
	s.calls = append(s.calls, now)
	if len(s.pending) == 0 && s.next < len(s.arrivals) && s.arrivals[s.next] <= now {
		s.pending = s.progs[s.next]
		s.next++
	}
	if len(s.pending) == 0 {
		return Instr{Kind: KindIdle}
	}
	in := s.pending[0]
	s.pending = s.pending[1:]
	return in
}

func (s *scriptStream) IdleUntil() sim.Cycle {
	switch {
	case len(s.pending) > 0:
		return 0
	case s.next < len(s.arrivals):
		return s.arrivals[s.next]
	}
	return sim.NeverWake
}

func (s *scriptStream) Next() Instr { panic("a core fetches a TimedStream through NextAt") }

// callsIn counts NextAt calls on cycles in [lo, hi].
func (s *scriptStream) callsIn(lo, hi sim.Cycle) int {
	n := 0
	for _, c := range s.calls {
		if c >= lo && c <= hi {
			n++
		}
	}
	return n
}

func aluBurst(n int) []Instr {
	out := make([]Instr, n)
	for i := range out {
		out[i] = Instr{Kind: KindALU, IAddr: 0x1000}
	}
	return out
}

// loopStream is a closed-loop program, repeated, that records every
// OnRetire report.
type loopStream struct {
	retireLog
	prog []Instr
	i    int
}

func (s *loopStream) Next() Instr {
	in := s.prog[s.i%len(s.prog)]
	s.i++
	return in
}

// tickedCore is a core registered through a wrapper that records the
// cycle of every tick.
type tickedCore struct {
	*Core
	ticks []sim.Cycle
}

func (c *tickedCore) Tick(now sim.Cycle) {
	c.ticks = append(c.ticks, now)
	c.Core.Tick(now)
}

// ticksIn counts ticks on cycles in [lo, hi].
func (c *tickedCore) ticksIn(lo, hi sim.Cycle) int {
	n := 0
	for _, at := range c.ticks {
		if at >= lo && at <= hi {
			n++
		}
	}
	return n
}

// idleSide is one core with its own stream, L1 and engine.
type idleSide struct {
	core   *tickedCore
	stream *scriptStream // nil when the core runs a loopStream
	l1     *fakeL1
	eng    *sim.Engine
}

// idleRig runs one script on a scheduled and on a naive engine. outcome
// and stream build each side's L1 outcome function and stream, so
// scripted state is not shared between the two.
type idleRig struct{ sched, naive idleSide }

func newRig(p Params, outcome func() func(uint64, coherence.AccessKind) coherence.Outcome, stream func() Stream) *idleRig {
	side := func(scheduled bool) idleSide {
		st := stream()
		s := idleSide{l1: &fakeL1{outcome: outcome()}, eng: sim.NewEngine()}
		s.stream, _ = st.(*scriptStream)
		s.core = &tickedCore{Core: New(0, p, s.l1, st)}
		s.eng.SetScheduled(scheduled)
		s.eng.Register(s.core)
		return s
	}
	return &idleRig{sched: side(true), naive: side(false)}
}

func newIdleRig(outcome func() func(uint64, coherence.AccessKind) coherence.Outcome, arrivals []sim.Cycle, progs [][]Instr) *idleRig {
	return newRig(DefaultParams(), outcome, func() Stream { return &scriptStream{arrivals: arrivals, progs: progs} })
}

func hitAll() func(uint64, coherence.AccessKind) coherence.Outcome { return alwaysHit }

func (r *idleRig) stepTo(at sim.Cycle) {
	for _, s := range []idleSide{r.sched, r.naive} {
		s.eng.Step(at - s.eng.Now())
	}
}

// fill delivers an L1 fill to both cores at cycle at, as the L1 would
// from its tick on that cycle, and runs the cycle.
func (r *idleRig) fill(at sim.Cycle, line uint64, instr, write bool) {
	r.stepTo(at - 1)
	for _, s := range []idleSide{r.sched, r.naive} {
		s.l1.fill(at, line, instr, write)
	}
	r.stepTo(at)
}

// same requires the sleeping core's settled Stats, checkpoint walk (the
// window, commit credit, fetch state and lastSeen) and OnRetire reports
// to equal the naively ticked core's at cycle at.
func (r *idleRig) same(t *testing.T, at sim.Cycle) {
	t.Helper()
	r.stepTo(at)
	r.sched.eng.Flush()
	r.naive.eng.Flush()
	cs, cn := r.sched.core.Core, r.naive.core.Core
	if cs.Stats != cn.Stats || !bytes.Equal(walk(cs), walk(cn)) {
		t.Fatalf("cycle %d: scheduled core %+v credit %v window %d, naive core %+v credit %v window %d",
			at, cs.Stats, cs.credit, cs.count, cn.Stats, cn.credit, cn.count)
	}
	ls, ln := reports(cs), reports(cn)
	if !slices.Equal(ls, ln) {
		i := 0
		for i < min(len(ls), len(ln)) && ls[i] == ln[i] {
			i++
		}
		t.Fatalf("cycle %d: OnRetire reports differ from report %d: scheduled %v, naive %v",
			at, i, ls[i:min(i+3, len(ls))], ln[i:min(i+3, len(ln))])
	}
}

// walk returns the core's checkpoint walk bytes.
func walk(c *Core) []byte {
	var e ckpt.Enc
	c.State(ckpt.Encoding(&e), c.lastSeen)
	return e.Bytes()
}

// reports returns the OnRetire reports c's stream has recorded.
func reports(c *Core) []retired {
	return c.retire.(interface{ reports() []retired }).reports()
}

// TestIdleCoreSleepsUntilArrival: a core with an empty window and an idle
// stream sleeps until the stream's next arrival instead of polling it
// every cycle, and its settled counters match a naively ticked core's.
func TestIdleCoreSleepsUntilArrival(t *testing.T) {
	r := newIdleRig(hitAll, []sim.Cycle{1000, 5000}, [][]Instr{aluBurst(10), aluBurst(10)})
	r.same(t, 999)
	if n := r.sched.stream.callsIn(1, 999); n > 2 {
		t.Fatalf("idle core polled its stream %d times before the arrival at 1000", n)
	}
	r.same(t, 1000)
	if n := r.sched.stream.callsIn(1000, 1000); n == 0 {
		t.Fatal("core did not fetch on the arrival cycle")
	}
	r.same(t, 1500)
	if r.sched.core.Stats.Instrs != 10 {
		t.Fatalf("committed %d instructions of the first request, want 10", r.sched.core.Stats.Instrs)
	}
	r.same(t, 5000)
	if n := r.sched.stream.callsIn(1100, 4999); n != 0 {
		t.Fatalf("idle core polled its stream %d times between requests", n)
	}
	r.same(t, 6000)
	if r.sched.core.Stats.Instrs != 20 {
		t.Fatalf("committed %d instructions, want 20", r.sched.core.Stats.Instrs)
	}
}

// TestBlockedStoreRetriesEveryCycle: an instruction held for MSHR
// back-pressure is retried every cycle even though the window is empty
// and the stream has nothing more to serve.
func TestBlockedStoreRetriesEveryCycle(t *testing.T) {
	blockedStores := func() func(uint64, coherence.AccessKind) coherence.Outcome {
		refusals := 10
		return func(line uint64, kind coherence.AccessKind) coherence.Outcome {
			if kind == coherence.Store && refusals > 0 {
				refusals--
				return coherence.Blocked
			}
			return coherence.Hit
		}
	}
	store := Instr{Kind: KindStore, IAddr: 0x1000, DAddr: 0x400000}
	r := newIdleRig(blockedStores, []sim.Cycle{100}, [][]Instr{{store}})
	r.same(t, 200)
	var tries []sim.Cycle
	for i, k := range r.sched.l1.log {
		if k == coherence.Store {
			tries = append(tries, r.sched.l1.at[i])
		}
	}
	if len(tries) != 11 {
		t.Fatalf("store accessed the L1 on cycles %v, want 11 tries", tries)
	}
	for i, at := range tries {
		if at != 100+sim.Cycle(i) {
			t.Fatalf("store accessed the L1 on cycles %v, want every cycle from 100", tries)
		}
	}
	if got := r.sched.core.Stats; got.BackPressure != 10 || got.StoresIssued != 1 {
		t.Fatalf("stats %+v, want 10 back-pressure cycles and 1 store", got)
	}
}

// TestStoreFillWakesSleepingCore: a store miss retires through the write
// buffer, so its fill can land while the core sleeps on an empty stream.
// The fill wakes the core for one tick, and it goes back to sleep.
func TestStoreFillWakesSleepingCore(t *testing.T) {
	missStores := func() func(uint64, coherence.AccessKind) coherence.Outcome {
		return func(line uint64, kind coherence.AccessKind) coherence.Outcome {
			if kind == coherence.Store {
				return coherence.Miss
			}
			return coherence.Hit
		}
	}
	store := Instr{Kind: KindStore, IAddr: 0x1000, DAddr: 0x400000}
	r := newIdleRig(missStores, []sim.Cycle{100, 5000}, [][]Instr{{store}, aluBurst(3)})
	r.same(t, 299)
	if n := r.sched.stream.callsIn(200, 299); n != 0 {
		t.Fatalf("idle core polled its stream %d times after the store", n)
	}
	r.fill(300, 0x400000/64, false, true)
	r.same(t, 300)
	r.same(t, 5000)
	if n := r.sched.stream.callsIn(200, 4999); n != 1 || r.sched.stream.callsIn(300, 300) != 1 {
		t.Fatalf("core polled its stream on cycles %v, want once on the fill cycle 300", r.sched.stream.calls)
	}
	r.same(t, 5100)
	if r.sched.core.Stats.Instrs != 4 {
		t.Fatalf("committed %d instructions, want 4", r.sched.core.Stats.Instrs)
	}
}

// TestCommitReplaysThroughFetchStall: a closed-loop core whose fetch
// waits about 200 cycles on a fill, while its window still holds
// committable instructions, sleeps through the stall: it ticks on the
// cycle that blocks fetch and on the fill's cycle, no more. Its commits
// in between are replayed, so flushed on every cycle, or only at the
// end, its Stats, checkpoint walk and OnRetire reports equal a naively
// ticked core's. Fetch blocks once on an L1-I miss and once on a
// serializing load miss.
func TestCommitReplaysThroughFetchStall(t *testing.T) {
	const (
		stall = 200
		end   = 600
	)
	iLine, dLine := uint64(0x8000/64), uint64(0x400000/64)
	prog := func(blocker Instr) []Instr {
		return append(append(aluBurst(150), blocker), aluBurst(50)...)
	}
	// missOnce misses the first access of kind to line and hits the rest.
	missOnce := func(kind coherence.AccessKind, line uint64) func() func(uint64, coherence.AccessKind) coherence.Outcome {
		return func() func(uint64, coherence.AccessKind) coherence.Outcome {
			missed := false
			return func(l uint64, k coherence.AccessKind) coherence.Outcome {
				if k == kind && l == line && !missed {
					missed = true
					return coherence.Miss
				}
				return coherence.Hit
			}
		}
	}
	serial := DefaultParams()
	serial.DepChance = 1 // every load miss serializes
	for _, c := range []struct {
		name    string
		p       Params
		prog    []Instr
		outcome func() func(uint64, coherence.AccessKind) coherence.Outcome
		line    uint64
		instr   bool
		blocked func(*Core) bool
	}{
		{"ifetch", DefaultParams(), prog(Instr{Kind: KindALU, IAddr: 0x8000}),
			missOnce(coherence.Ifetch, iLine), iLine, true, func(c *Core) bool { return c.fetchStall }},
		{"serialize", serial, prog(Instr{Kind: KindLoad, IAddr: 0x1000, DAddr: 0x400000}),
			missOnce(coherence.Load, dLine), dLine, false, func(c *Core) bool { return c.serialize }},
	} {
		for _, every := range []sim.Cycle{1, end} {
			r := newRig(c.p, c.outcome, func() Stream { return &loopStream{prog: c.prog} })
			var blockedAt, fillAt sim.Cycle
			for cy := sim.Cycle(1); cy <= end; cy++ {
				if cy == fillAt {
					r.fill(cy, c.line, c.instr, false)
				}
				r.stepTo(cy)
				if cy%every == 0 {
					r.same(t, cy)
				}
				if n := r.naive.core.Core; blockedAt == 0 && c.blocked(n) {
					if n.count == 0 || n.headBlocked() {
						t.Fatalf("%s: fetch blocked at cycle %d with nothing to commit", c.name, cy)
					}
					blockedAt, fillAt = cy, cy+stall
				}
			}
			if blockedAt == 0 {
				t.Fatalf("%s: fetch never blocked", c.name)
			}
			r.same(t, end)
			if n := r.sched.core.ticksIn(blockedAt, fillAt); n > 2 {
				t.Fatalf("%s: scheduled core ticked %d times from the stall at cycle %d to the fill at %d, want at most 2",
					c.name, n, blockedAt, fillAt)
			}
			if r.sched.core.Stats.Instrs < 300 {
				t.Fatalf("%s: committed %d instructions by cycle %d", c.name, r.sched.core.Stats.Instrs, end)
			}
		}
	}
}
