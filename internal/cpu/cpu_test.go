package cpu

import (
	"testing"

	"nocout/internal/coherence"
	"nocout/internal/sim"
)

// fakeL1 answers accesses from a scripted outcome function and lets tests
// trigger fills manually.
type fakeL1 struct {
	outcome func(line uint64, kind coherence.AccessKind) coherence.Outcome
	fill    func(now sim.Cycle, line uint64, instr, write bool)
	log     []coherence.AccessKind
	at      []sim.Cycle // cycle of each logged access
}

func (f *fakeL1) Access(now sim.Cycle, line uint64, kind coherence.AccessKind) coherence.Outcome {
	f.log = append(f.log, kind)
	f.at = append(f.at, now)
	return f.outcome(line, kind)
}

func (f *fakeL1) SetFillListener(fn func(now sim.Cycle, line uint64, instr, write bool)) {
	f.fill = fn
}

// fixedStream yields a repeating program.
type fixedStream struct {
	prog []Instr
	i    int
}

func (s *fixedStream) Next() Instr {
	in := s.prog[s.i%len(s.prog)]
	s.i++
	return in
}

func aluProg() Stream {
	return &fixedStream{prog: []Instr{{Kind: KindALU, IAddr: 0x1000}}}
}

func alwaysHit(line uint64, kind coherence.AccessKind) coherence.Outcome { return coherence.Hit }

func TestALUThroughputMatchesBaseCPI(t *testing.T) {
	for _, cpi := range []float64{0.5, 1.0, 2.0} {
		l1 := &fakeL1{outcome: alwaysHit}
		p := DefaultParams()
		p.BaseCPI = cpi
		c := New(0, p, l1, aluProg())
		for cyc := sim.Cycle(1); cyc <= 10000; cyc++ {
			c.Tick(cyc)
		}
		got := c.Stats.IPC()
		want := 1.0 / cpi
		if want > float64(p.Width) {
			want = float64(p.Width)
		}
		if got < want*0.95 || got > want*1.05 {
			t.Errorf("BaseCPI %v: IPC = %v, want ~%v", cpi, got, want)
		}
	}
}

func TestIfetchMissStallsUntilFill(t *testing.T) {
	missOnce := true
	l1 := &fakeL1{}
	l1.outcome = func(line uint64, kind coherence.AccessKind) coherence.Outcome {
		if kind == coherence.Ifetch && missOnce {
			missOnce = false
			return coherence.Miss
		}
		return coherence.Hit
	}
	p := DefaultParams()
	p.BaseCPI = 1.0
	c := New(0, p, l1, aluProg())
	// First tick: fetch misses, no instructions in flight.
	for cyc := sim.Cycle(1); cyc <= 50; cyc++ {
		c.Tick(cyc)
	}
	if c.Stats.Instrs != 0 {
		t.Fatalf("committed %d instructions while fetch-stalled", c.Stats.Instrs)
	}
	if c.Stats.IfetchStall < 40 {
		t.Fatalf("ifetch stall cycles = %d, want ~49", c.Stats.IfetchStall)
	}
	// Fill arrives: execution resumes.
	l1.fill(51, 0x1000/64, true, false)
	for cyc := sim.Cycle(51); cyc <= 100; cyc++ {
		c.Tick(cyc)
	}
	if c.Stats.Instrs == 0 {
		t.Fatal("no commits after the fetch fill")
	}
}

func TestLoadMissBlocksCommitAtROBHead(t *testing.T) {
	l1 := &fakeL1{}
	l1.outcome = func(line uint64, kind coherence.AccessKind) coherence.Outcome {
		if kind == coherence.Load {
			return coherence.Miss
		}
		return coherence.Hit
	}
	p := DefaultParams()
	p.DepChance = 0 // no serialization: fetch continues
	prog := &fixedStream{prog: []Instr{
		{Kind: KindLoad, IAddr: 0x1000, DAddr: 0x200000},
		{Kind: KindALU, IAddr: 0x1000},
	}}
	c := New(0, p, l1, prog)
	for cyc := sim.Cycle(1); cyc <= 100; cyc++ {
		c.Tick(cyc)
	}
	// The first load never fills: nothing can commit, but the window keeps
	// filling until the ROB is full (MLP without commit).
	if c.Stats.Instrs != 0 {
		t.Fatalf("committed %d with the head load outstanding", c.Stats.Instrs)
	}
	if c.Stats.DataStall == 0 {
		t.Fatal("cycles should be attributed to data stall")
	}
	if c.Stats.PeakOutstand < 2 {
		t.Fatalf("expected overlapped misses, peak = %d", c.Stats.PeakOutstand)
	}
}

func TestDepChanceSerializesMisses(t *testing.T) {
	// With DepChance 1 every load miss serializes: outstanding misses never
	// exceed 1.
	l1 := &fakeL1{}
	l1.outcome = func(line uint64, kind coherence.AccessKind) coherence.Outcome {
		if kind == coherence.Load {
			return coherence.Miss
		}
		return coherence.Hit
	}
	p := DefaultParams()
	p.DepChance = 1
	next := uint64(0)
	prog := &fixedStream{prog: []Instr{{Kind: KindLoad, IAddr: 0x1000, DAddr: 0}}}
	_ = next
	c := New(0, p, l1, prog)
	for cyc := sim.Cycle(1); cyc <= 20; cyc++ {
		c.Tick(cyc)
	}
	if c.Stats.PeakOutstand != 1 {
		t.Fatalf("serializing workload peak MLP = %d, want 1", c.Stats.PeakOutstand)
	}
	if c.Stats.SerialStall == 0 && c.Stats.DataStall == 0 {
		t.Fatal("stall cycles should be attributed")
	}
}

func TestStoreMissDoesNotBlockCommit(t *testing.T) {
	l1 := &fakeL1{}
	l1.outcome = func(line uint64, kind coherence.AccessKind) coherence.Outcome {
		if kind == coherence.Store {
			return coherence.Miss
		}
		return coherence.Hit
	}
	p := DefaultParams()
	p.BaseCPI = 1.0
	prog := &fixedStream{prog: []Instr{
		{Kind: KindStore, IAddr: 0x1000, DAddr: 0x400000},
		{Kind: KindALU, IAddr: 0x1000},
	}}
	c := New(0, p, l1, prog)
	for cyc := sim.Cycle(1); cyc <= 1000; cyc++ {
		c.Tick(cyc)
	}
	if got := c.Stats.IPC(); got < 0.9 {
		t.Fatalf("store misses must not throttle commit: IPC = %v", got)
	}
	if c.Stats.StoresIssued == 0 {
		t.Fatal("no stores issued")
	}
}

func TestMSHRBackPressureRetries(t *testing.T) {
	blocked := true
	l1 := &fakeL1{}
	l1.outcome = func(line uint64, kind coherence.AccessKind) coherence.Outcome {
		if kind == coherence.Load && blocked {
			return coherence.Blocked
		}
		return coherence.Hit
	}
	p := DefaultParams()
	prog := &fixedStream{prog: []Instr{{Kind: KindLoad, IAddr: 0x1000, DAddr: 0x99000}}}
	c := New(0, p, l1, prog)
	for cyc := sim.Cycle(1); cyc <= 10; cyc++ {
		c.Tick(cyc)
	}
	if c.Stats.BackPressure == 0 {
		t.Fatal("blocked accesses should be counted")
	}
	committedWhileBlocked := c.Stats.Instrs
	blocked = false
	for cyc := sim.Cycle(11); cyc <= 200; cyc++ {
		c.Tick(cyc)
	}
	if c.Stats.Instrs <= committedWhileBlocked {
		t.Fatal("execution must resume once the MSHR frees up")
	}
}

func TestDisabledCoreDoesNothing(t *testing.T) {
	l1 := &fakeL1{outcome: alwaysHit}
	c := New(0, DefaultParams(), l1, aluProg())
	c.SetEnabled(false)
	for cyc := sim.Cycle(1); cyc <= 100; cyc++ {
		c.Tick(cyc)
	}
	if c.Stats.Instrs != 0 || c.Stats.Cycles != 0 {
		t.Fatal("disabled core must not execute or count cycles")
	}
	if len(l1.log) != 0 {
		t.Fatal("disabled core must not touch the L1")
	}
	if c.Enabled() {
		t.Fatal("Enabled() should report false")
	}
}

func TestSequentialFetchOneIAccessPerLine(t *testing.T) {
	// 16 4-byte instructions per line: sequential code does one I-access
	// per 64B line, not per instruction.
	l1 := &fakeL1{outcome: alwaysHit}
	seq := &seqStream{}
	p := DefaultParams()
	p.BaseCPI = 1.0 / 3.0
	c := New(0, p, l1, seq)
	for cyc := sim.Cycle(1); cyc <= 1000; cyc++ {
		c.Tick(cyc)
	}
	iAccesses := 0
	for _, k := range l1.log {
		if k == coherence.Ifetch {
			iAccesses++
		}
	}
	perInstr := float64(iAccesses) / float64(c.Stats.Instrs)
	if perInstr > 0.12 { // ~1/16 with slack for window effects
		t.Fatalf("I-accesses per instruction = %v, want ~0.0625", perInstr)
	}
}

// seqStream models straight-line code: the PC advances 4 bytes per
// instruction.
type seqStream struct{ pc uint64 }

func (s *seqStream) Next() Instr {
	in := Instr{Kind: KindALU, IAddr: s.pc}
	s.pc += 4
	return in
}

func TestResetStats(t *testing.T) {
	l1 := &fakeL1{outcome: alwaysHit}
	c := New(0, DefaultParams(), l1, aluProg())
	for cyc := sim.Cycle(1); cyc <= 100; cyc++ {
		c.Tick(cyc)
	}
	if c.Stats.Instrs == 0 {
		t.Fatal("warm-up should commit")
	}
	c.ResetStats()
	if c.Stats.Instrs != 0 || c.Stats.Cycles != 0 {
		t.Fatal("ResetStats must zero counters")
	}
}

func TestInvalidParamsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l1 := &fakeL1{outcome: alwaysHit}
	New(0, Params{Width: 3, ROB: 64, BaseCPI: 0.1}, l1, aluProg())
}
