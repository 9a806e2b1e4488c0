package cpu

import (
	"testing"

	"nocout/internal/coherence"
	"nocout/internal/sim"
)

// scriptStream is a TimedStream on a scripted arrival schedule: arrival i
// releases progs[i], one instruction per NextAt, and the stream answers
// KindIdle while nothing is released. It records every NextAt cycle.
type scriptStream struct {
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

// idleSide is one core with its own stream, L1 and engine.
type idleSide struct {
	core   *Core
	stream *scriptStream
	l1     *fakeL1
	eng    *sim.Engine
}

// idleRig runs one script on a scheduled and on a naive engine. outcome
// builds each side's L1 outcome function, so scripted L1 state is not
// shared between the two.
type idleRig struct{ sched, naive idleSide }

func newIdleRig(outcome func() func(uint64, coherence.AccessKind) coherence.Outcome, arrivals []sim.Cycle, progs [][]Instr) *idleRig {
	side := func(scheduled bool) idleSide {
		s := idleSide{
			stream: &scriptStream{arrivals: arrivals, progs: progs},
			l1:     &fakeL1{outcome: outcome()},
			eng:    sim.NewEngine(),
		}
		s.core = New(0, DefaultParams(), s.l1, s.stream)
		s.eng.SetScheduled(scheduled)
		s.eng.Register(s.core)
		return s
	}
	return &idleRig{sched: side(true), naive: side(false)}
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

// same requires the sleeping core's settled Stats and commit credit to
// equal the naively ticked core's at cycle at.
func (r *idleRig) same(t *testing.T, at sim.Cycle) {
	t.Helper()
	r.stepTo(at)
	r.sched.eng.Flush()
	r.naive.eng.Flush()
	cs, cn := r.sched.core, r.naive.core
	if cs.Stats != cn.Stats || cs.credit != cn.credit {
		t.Fatalf("cycle %d: scheduled core %+v credit %v, naive core %+v credit %v",
			at, cs.Stats, cs.credit, cn.Stats, cn.credit)
	}
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
