package sim

import (
	"reflect"
	"testing"
)

// These tests pin the timing-wheel calendar against the naive kernel at
// the wheel's edges: arms just inside and just beyond its span, long idle
// jumps, same-cycle wakes across bitset words, and re-arming mid-span.
// Every test component logs the cycles on which it did work into one
// shared log, whose order is the tick order; the scheduled kernel must
// reproduce the naive kernel's log exactly.

// event is one logged action: component ID did work at cycle At (V is
// the value it consumed, if any).
type event struct {
	ID int
	At Cycle
	V  int
}

type actionLog struct{ ev []event }

func (l *actionLog) add(id int, at Cycle, v int) { l.ev = append(l.ev, event{ID: id, At: at, V: v}) }

// after returns the events later than cycle c.
func (l *actionLog) after(c Cycle) []event {
	var out []event
	for _, e := range l.ev {
		if e.At > c {
			out = append(out, e)
		}
	}
	return out
}

// strider works on every multiple of its stride and sleeps exactly until
// the next one, so under the scheduled kernel it ticks at cycle 1 (the
// registration arm) and on its work cycles, nowhere else.
type strider struct {
	id     int
	log    *actionLog
	stride Cycle
	ticks  []Cycle
}

func (s *strider) Tick(now Cycle) {
	s.ticks = append(s.ticks, now)
	if now%s.stride == 0 {
		s.log.add(s.id, now, 0)
	}
}

func (s *strider) NextWake(now Cycle) Cycle { return (now/s.stride + 1) * s.stride }

// scripted runs act at each cycle of at (ascending) and sleeps between
// them; a missed cycle stalls the script, which the log comparison shows.
type scripted struct {
	at   []Cycle
	act  func(now Cycle)
	next int
}

func (s *scripted) Tick(now Cycle) {
	if s.next < len(s.at) && s.at[s.next] == now {
		s.act(now)
		s.next++
	}
}

func (s *scripted) NextWake(now Cycle) Cycle {
	if s.next < len(s.at) {
		return s.at[s.next]
	}
	return NeverWake
}

// pipeLogger drains its pipes into the log, sleeping on their in-flight
// schedule.
type pipeLogger struct {
	id    int
	log   *actionLog
	ps    []*Pipe[int]
	ticks []Cycle
}

func (c *pipeLogger) BindWaker(w Waker) {
	for _, p := range c.ps {
		p.SetWaker(w)
	}
}

func (c *pipeLogger) Tick(now Cycle) {
	c.ticks = append(c.ticks, now)
	for _, p := range c.ps {
		for {
			v, ok := p.Pop(now)
			if !ok {
				break
			}
			c.log.add(c.id, now, v)
		}
	}
}

func (c *pipeLogger) NextWake(now Cycle) Cycle {
	next := NeverWake
	for _, p := range c.ps {
		if at, ok := p.NextAt(); ok && at < next {
			next = at
		}
	}
	return next
}

// queueLogger drains a queue into the log; fwd, when set, is pushed each
// consumed value plus one, so wakes cascade within a cycle.
type queueLogger struct {
	id  int
	log *actionLog
	q   *Queue[int]
	fwd *Queue[int]
}

func (c *queueLogger) BindWaker(w Waker) { c.q.SetWaker(w) }

func (c *queueLogger) Tick(now Cycle) {
	for {
		v, ok := c.q.Pop()
		if !ok {
			return
		}
		c.log.add(c.id, now, v)
		if c.fwd != nil {
			c.fwd.Push(v + 1)
		}
	}
}

func (c *queueLogger) NextWake(now Cycle) Cycle {
	if c.q.Len() > 0 {
		return now + 1
	}
	return NeverWake
}

// watchdog works when timeout cycles pass without input on its queue;
// every input restarts the timeout. An input lowers the watchdog's arm
// below the pending deadline, and the report after it moves the arm past
// that deadline, so the abandoned arm must not fire.
type watchdog struct {
	id       int
	log      *actionLog
	q        *Queue[int]
	timeout  Cycle
	deadline Cycle
	ticks    []Cycle
}

func (w *watchdog) BindWaker(wk Waker) { w.q.SetWaker(wk) }

func (w *watchdog) Tick(now Cycle) {
	w.ticks = append(w.ticks, now)
	for {
		v, ok := w.q.Pop()
		if !ok {
			break
		}
		w.deadline = now + w.timeout
		w.log.add(w.id, now, v)
	}
	if now == w.deadline {
		w.log.add(w.id, now, -1)
		w.deadline = now + w.timeout
	}
}

func (w *watchdog) NextWake(now Cycle) Cycle { return w.deadline }

// workCycles returns the distinct cycles on which component id worked.
func (l *actionLog) workCycles(id int) []Cycle {
	var out []Cycle
	for _, e := range l.ev {
		if e.ID == id && (len(out) == 0 || out[len(out)-1] != e.At) {
			out = append(out, e.At)
		}
	}
	return out
}

// pad registers idle sleepers until the engine holds n components, so the
// next registration lands at index n.
func pad(e *Engine, n int) {
	for len(e.tickers) < n {
		e.Register(&countingSleeper{})
	}
}

// steps are uneven Step lengths, so runs cross Step boundaries at every
// phase of the wheel.
var steps = []Cycle{1, 62, 3, 64, 65, 700, 129, 1, 2000}

func stepAll(t *testing.T, e *Engine) {
	t.Helper()
	for _, n := range steps {
		e.Step(n)
		checkCalendar(t, e)
	}
}

// checkCalendar verifies the calendar's invariants between Steps: every
// wheel bit is its component's one arm, within the span ahead of the
// clock and in that arm's slot; occ marks exactly the non-empty slots;
// and every arm not on the wheel has a live far entry.
func checkCalendar(t *testing.T, e *Engine) {
	t.Helper()
	if e.naive {
		return
	}
	onWheel := make([]bool, len(e.tickers))
	for s := 0; s < wheelSlots; s++ {
		empty := true
		for w := 0; w < e.words; w++ {
			for b := 0; b < 64; b++ {
				if e.wheel[s*e.words+w]&(1<<b) == 0 {
					continue
				}
				empty = false
				idx := w*64 + b
				at := e.wakeAt[idx]
				if at == NeverWake || slotOf(at) != s || at <= e.now || at >= e.now+wheelSlots || onWheel[idx] {
					t.Fatalf("now %d: stray wheel bit for component %d in slot %d (armed for %d)", e.now, idx, s, at)
				}
				onWheel[idx] = true
			}
		}
		if occupied := e.occ&(1<<s) != 0; occupied == empty {
			t.Fatalf("now %d: occupancy bit %d is %v for a slot that is empty=%v", e.now, s, occupied, empty)
		}
	}
	live := make(map[int]bool)
	for _, f := range e.far.s {
		if e.wakeAt[f.idx] == f.at {
			live[f.idx] = true
		}
	}
	for idx, at := range e.wakeAt {
		if at != NeverWake && !onWheel[idx] && !live[idx] {
			t.Fatalf("now %d: component %d armed for %d is in neither the wheel nor the far heap", e.now, idx, at)
		}
	}
}

// onBothKernels builds the same scenario on a naive and a scheduled
// engine, steps both through steps, and requires identical logs.
func onBothKernels(t *testing.T, build func(e *Engine, log *actionLog)) *actionLog {
	t.Helper()
	var logs [2]*actionLog
	for i, scheduled := range []bool{false, true} {
		e := NewEngine()
		e.SetScheduled(scheduled)
		logs[i] = &actionLog{}
		build(e, logs[i])
		stepAll(t, e)
	}
	if len(logs[0].ev) == 0 {
		t.Fatal("scenario logged nothing; the comparison is vacuous")
	}
	if !reflect.DeepEqual(logs[0].ev, logs[1].ev) {
		t.Fatalf("kernels disagree:\nnaive %v\nsched %v", logs[0].ev, logs[1].ev)
	}
	return logs[1]
}

// TestWheelStridesAcrossSpan: sleepers whose next wake is 1, 63, 64, 65
// and 1000 cycles out work on the same cycles under both kernels, and the
// scheduled kernel ticks them on exactly those cycles.
func TestWheelStridesAcrossSpan(t *testing.T) {
	var sched []*strider
	onBothKernels(t, func(e *Engine, log *actionLog) {
		sched = sched[:0]
		for i, stride := range []Cycle{1, 63, 64, 65, 1000} {
			s := &strider{id: i, log: log, stride: stride}
			sched = append(sched, s)
			e.Register(s)
		}
	})
	end := Cycle(0)
	for _, n := range steps {
		end += n
	}
	for _, s := range sched {
		want := []Cycle{1}
		for c := s.stride; c <= end; c += s.stride {
			if c != 1 {
				want = append(want, c)
			}
		}
		if !reflect.DeepEqual(s.ticks, want) {
			t.Fatalf("stride %d ticked on %v, want %v", s.stride, s.ticks, want)
		}
	}
}

// TestWheelPipeDeliveryDistances: values delivered 63, 64 and 65 cycles
// after their push land on the wheel's last slot and just beyond it, with
// every component asleep in between (idle jumps far longer than the
// span). A push onto a consumer's 101-cycle pipe followed by one onto its
// 1-cycle pipe lowers a far arm onto the wheel, leaving a stale far entry
// behind.
func TestWheelPipeDeliveryDistances(t *testing.T) {
	var loggers []*pipeLogger
	onBothKernels(t, func(e *Engine, log *actionLog) {
		loggers = loggers[:0]
		var pipes []*Pipe[int]
		for _, d := range []Cycle{63, 64, 65, 101, 1} {
			pipes = append(pipes, NewPipe[int]("dist", d))
		}
		for i := range 3 {
			loggers = append(loggers, &pipeLogger{id: i, log: log, ps: pipes[i : i+1]})
		}
		loggers = append(loggers, &pipeLogger{id: 3, log: log, ps: pipes[3:]})
		v := 0
		prod := &scripted{at: []Cycle{5, 300, 301, 1300, 1400, 1401}, act: func(now Cycle) {
			if now == 1400 || now == 1401 {
				p := pipes[3] // arrives at 1501
				if now == 1401 {
					p = pipes[4] // arrives at 1402, an earlier arm
				}
				p.Push(now, v)
				v++
				return
			}
			for _, p := range pipes[:3] {
				p.Push(now, v)
				v++
			}
		}}
		e.Register(prod)
		for _, l := range loggers {
			e.Register(l)
		}
	})
	// The delay-d consumers sleep until exactly push+d.
	for i, d := range []Cycle{63, 64, 65} {
		want := []Cycle{1, 5 + d, 300 + d, 301 + d, 1300 + d}
		if got := loggers[i].ticks; !reflect.DeepEqual(got, want) {
			t.Fatalf("delay-%d consumer ticked on %v, want %v", d, got, want)
		}
	}
	// The lowered arm ticks for the short pipe's value, then sleeps until
	// the long pipe's is due.
	if got, want := loggers[3].ticks, []Cycle{1, 1402, 1501}; !reflect.DeepEqual(got, want) {
		t.Fatalf("lowered-arm consumer ticked on %v, want %v", got, want)
	}
}

// TestWheelSameCycleWakes: a producer in the second bitset word wakes a
// lower-indexed consumer (its turn has passed: next cycle) and higher
// ones in the same word and in the next word (same cycle), and one of
// those wakes another consumer further on within the cycle.
func TestWheelSameCycleWakes(t *testing.T) {
	log := onBothKernels(t, func(e *Engine, log *actionLog) {
		var qLow, qMid, qHigh, qChain Queue[int]
		pad(e, 3)
		e.Register(&queueLogger{id: 0, log: log, q: &qLow})
		pad(e, 70)
		e.Register(&scripted{at: []Cycle{10, 11, 200, 265, 266}, act: func(now Cycle) {
			v := int(now) * 10
			qLow.Push(v)
			qMid.Push(v)
			qHigh.Push(v)
		}})
		e.Register(&queueLogger{id: 1, log: log, q: &qMid, fwd: &qChain})
		pad(e, 129)
		e.Register(&queueLogger{id: 2, log: log, q: &qChain})
		e.Register(&queueLogger{id: 3, log: log, q: &qHigh})
	})
	for _, ev := range log.ev {
		push := Cycle(ev.V / 10)
		if ev.ID == 2 {
			push = Cycle((ev.V - 1) / 10)
		}
		want := push
		if ev.ID == 0 {
			want = push + 1
		}
		if ev.At != want {
			t.Fatalf("consumer %d saw the cycle-%d push on cycle %d, want %d", ev.ID, push, ev.At, want)
		}
	}
}

// TestWheelLoweredArms: inputs restart two watchdogs' timeouts, one
// inside the wheel's span and one beyond it. Each input lowers the
// watchdog's arm below its pending deadline; the abandoned deadline must
// not tick it, so it ticks exactly on the cycles it works. A strider in
// the next bitset word shares the first abandoned deadline's slot, which
// must stay occupied.
func TestWheelLoweredArms(t *testing.T) {
	var dogs []*watchdog
	log := onBothKernels(t, func(e *Engine, log *actionLog) {
		var q0, q1 Queue[int]
		e.Register(&scripted{at: []Cycle{35, 65, 200, 230, 1000, 1090}, act: func(now Cycle) {
			q0.Push(int(now))
			q1.Push(int(now))
		}})
		dogs = []*watchdog{
			{id: 0, log: log, q: &q0, timeout: 40, deadline: 40},
			{id: 1, log: log, q: &q1, timeout: 100, deadline: 100},
		}
		e.Register(dogs[0])
		pad(e, 64)
		e.Register(&strider{id: 2, log: log, stride: 10}, dogs[1])
	})
	for _, d := range dogs {
		want := append([]Cycle{1}, log.workCycles(d.id)...)
		if !reflect.DeepEqual(d.ticks, want) {
			t.Fatalf("timeout-%d watchdog ticked on %v, want its work cycles %v", d.timeout, d.ticks, want)
		}
	}
}

// TestWheelStaleFarEntries: a watchdog's far deadline is abandoned for a
// nearer input while a strider's far arm sits ahead of it in the heap, so
// the stale entry reaches the migration onto the wheel, which must drop
// it.
func TestWheelStaleFarEntries(t *testing.T) {
	var dog *watchdog
	log := onBothKernels(t, func(e *Engine, log *actionLog) {
		var q Queue[int]
		e.Register(&scripted{at: []Cycle{50, 100}, act: func(now Cycle) { q.Push(int(now)) }})
		dog = &watchdog{id: 0, log: log, q: &q, timeout: 160, deadline: 160}
		e.Register(dog, &strider{id: 1, log: log, stride: 150})
	})
	if want := append([]Cycle{1}, log.workCycles(0)...); !reflect.DeepEqual(dog.ticks, want) {
		t.Fatalf("watchdog ticked on %v, want its work cycles %v", dog.ticks, want)
	}
}

// TestWheelExternalWakesBetweenSteps: pushes made between Steps, as a
// sharded domain's commits are, land on the wheel and in the far heap;
// after an idle jump that ran no cycle, a far arm made before the jump is
// due before a wheel arm made after it. Deliveries must match the naive
// kernel's.
func TestWheelExternalWakesBetweenSteps(t *testing.T) {
	delays := []Cycle{1, 40, 63, 64, 65, 100}
	schedule := []struct {
		push []int // indices into delays
		step Cycle
	}{
		{nil, 10},            // past the registration ticks
		{[]int{5}, 50},       // far arm, then an idle jump with no cycle
		{[]int{2}, 100},      // a wheel arm later than the pending far arm
		{[]int{3, 4, 5}, 64}, // all beyond the span
		{[]int{0, 1}, 65},
		{[]int{2, 3}, 1},
		{[]int{4}, 300},
		{[]int{0, 1, 2, 3, 4, 5}, 7},
		{nil, 500},
	}
	var got [2]*actionLog
	for i, scheduled := range []bool{false, true} {
		e := NewEngine()
		e.SetScheduled(scheduled)
		got[i] = &actionLog{}
		var pipes []*Pipe[int]
		for id, d := range delays {
			p := NewPipe[int]("ext", d)
			pipes = append(pipes, p)
			e.Register(&pipeLogger{id: id, log: got[i], ps: []*Pipe[int]{p}})
		}
		for v, s := range schedule {
			for _, k := range s.push {
				pipes[k].Push(e.Now(), v)
			}
			e.Step(s.step)
			checkCalendar(t, e)
		}
	}
	if len(got[0].ev) == 0 || !reflect.DeepEqual(got[0].ev, got[1].ev) {
		t.Fatalf("kernels disagree:\nnaive %v\nsched %v", got[0].ev, got[1].ev)
	}
}

// TestOwnTickArmSupersededByReport: an arm a component raises during its
// own tick (here a push into its own queue) is replaced by the NextWake
// report that follows the tick.
func TestOwnTickArmSupersededByReport(t *testing.T) {
	e := NewEngine()
	c := &selfWaker{}
	e.Register(c)
	e.Step(100)
	if want := []Cycle{1, 50}; !reflect.DeepEqual(c.ticks, want) {
		t.Fatalf("self-arming component ticked on %v, want %v", c.ticks, want)
	}
}

// selfWaker pushes into its own queue on its first tick but reports cycle
// 50 as its next wake.
type selfWaker struct {
	q     Queue[int]
	ticks []Cycle
}

func (c *selfWaker) BindWaker(w Waker) { c.q.SetWaker(w) }
func (c *selfWaker) Tick(now Cycle) {
	c.ticks = append(c.ticks, now)
	if now == 1 {
		c.q.Push(1)
	}
}
func (c *selfWaker) NextWake(now Cycle) Cycle {
	if now < 50 {
		return 50
	}
	return NeverWake
}

// TestWheelRestoreMidSpan: RestoreAt between arms pending on the wheel
// and in the far heap — forward to the same cycle, and backward to an
// earlier one — reproduces the uninterrupted run's log from there on.
func TestWheelRestoreMidSpan(t *testing.T) {
	build := func(e *Engine, log *actionLog) {
		for i, stride := range []Cycle{1, 63, 64, 65, 1000} {
			e.Register(&strider{id: i, log: log, stride: stride})
		}
	}
	const end = 3000
	ref := &actionLog{}
	e := NewEngine()
	build(e, ref)
	e.Step(end)

	for _, scheduled := range []bool{false, true} {
		// Same cycle: every pending arm is dropped and rebuilt.
		got := &actionLog{}
		e := NewEngine()
		e.SetScheduled(scheduled)
		build(e, got)
		e.Step(130)
		e.RestoreAt(130)
		checkCalendar(t, e)
		e.Step(end - 130)
		if !reflect.DeepEqual(got.ev, ref.ev) {
			t.Fatalf("scheduled=%v: restore at 130 diverged:\n got %v\nwant %v", scheduled, got.ev, ref.ev)
		}

		// Backward: the clock returns to 130 with arms up to 1000
		// cycles ahead of the abandoned clock still in the calendar.
		e = NewEngine()
		e.SetScheduled(scheduled)
		back := &actionLog{}
		build(e, back)
		e.Step(1500)
		back.ev = back.ev[:0]
		e.RestoreAt(130)
		checkCalendar(t, e)
		e.Step(end - 130)
		if want := ref.after(130); !reflect.DeepEqual(back.ev, want) {
			t.Fatalf("scheduled=%v: restore back to 130 diverged:\n got %v\nwant %v", scheduled, back.ev, want)
		}
	}
}

// TestStepNonPositiveIsNoOp: Step(0) and a negative Step leave the clock
// where it is on both kernels and on the sharded coordinator, so the
// scheduled clock never runs back while the naive one holds.
func TestStepNonPositiveIsNoOp(t *testing.T) {
	for _, scheduled := range []bool{false, true} {
		e := NewEngine()
		e.SetScheduled(scheduled)
		ticks := 0
		e.Register(TickFunc(func(Cycle) { ticks++ }))
		e.Step(10)
		e.Step(-5)
		e.Step(0)
		if e.Now() != 10 || ticks != 10 {
			t.Fatalf("scheduled=%v: after Step(10), Step(-5), Step(0): Now=%d ticks=%d, want 10 and 10", scheduled, e.Now(), ticks)
		}
		e.Step(5)
		if e.Now() != 15 || ticks != 15 {
			t.Fatalf("scheduled=%v: Step(5) after the no-ops: Now=%d ticks=%d, want 15 and 15", scheduled, e.Now(), ticks)
		}
	}

	doms := []*Engine{NewEngine(), NewEngine()}
	for _, d := range doms {
		d.Register(&strider{log: &actionLog{}, stride: 3})
	}
	s := NewSharded(doms, make([][]CrossStage, 2), 4)
	s.Step(10)
	s.Step(-5)
	s.Step(0)
	if s.Now() != 10 {
		t.Fatalf("sharded Now after Step(10), Step(-5), Step(0) = %d, want 10", s.Now())
	}
	for i, d := range doms {
		if d.Now() != 10 {
			t.Fatalf("domain %d Now = %d, want 10", i, d.Now())
		}
	}
}
