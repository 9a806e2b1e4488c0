package sim

import "testing"

// periodicSleeper wakes every stride cycles — the steady-state shape of
// a quiescent router or a memory channel between bursts. Each wake is one
// wheel dispatch and one re-arm (through the far heap when the stride
// reaches past the wheel's span), and none may allocate.
type periodicSleeper struct {
	stride Cycle
	ticks  int64
}

func (p *periodicSleeper) Tick(now Cycle)           { p.ticks++ }
func (p *periodicSleeper) NextWake(now Cycle) Cycle { return now + p.stride }

// BenchmarkWakeCalendar measures the scheduled kernel's per-cycle cost
// with 64 sleepers cycling through the wake calendar at co-prime
// strides, so every cycle dispatches a different subset of the wheel's
// slots. The headline number is allocs/op: steady state must be zero.
func BenchmarkWakeCalendar(b *testing.B) {
	e := NewEngine()
	strides := []Cycle{3, 5, 7, 11}
	for i := 0; i < 64; i++ {
		e.Register(&periodicSleeper{stride: strides[i%len(strides)]})
	}
	e.Step(1024) // settle the calendar's capacities
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step(1)
	}
}

// TestWakeCalendarZeroAlloc enforces what the benchmark reports: arming,
// dispatching, and re-arming sleepers through the calendar allocates
// nothing once capacities are warm — on the wheel, and through the far
// heap for strides at and beyond the wheel's span.
func TestWakeCalendarZeroAlloc(t *testing.T) {
	if RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	e := NewEngine()
	strides := []Cycle{3, 5, 7, 11, 63, 64, 65, 100, 1000}
	for i := 0; i < 72; i++ {
		e.Register(&periodicSleeper{stride: strides[i%len(strides)]})
	}
	e.Step(2048)
	if avg := testing.AllocsPerRun(200, func() { e.Step(7) }); avg != 0 {
		t.Fatalf("wake calendar steady state allocates %.1f allocs per 7 cycles, want 0", avg)
	}
}
