package coherence_test

import (
	"testing"

	. "nocout/internal/coherence"

	"nocout/internal/mem"
	"nocout/internal/noc"
	"nocout/internal/sim"
	"nocout/internal/topo"
)

// rig is a minimal chip: nCores L1s (nodes 0..n-1), one LLC bank (node n),
// one memory channel (node n+1), connected by an ideal network.
type rig struct {
	e     *sim.Engine
	net   noc.Network
	l1s   []*L1
	bank  *Bank
	mc    *mem.Controller
	fills []int // per-core fill count
}

func newRig(t *testing.T, nCores int, l1Bytes, llcBytes int) *rig {
	t.Helper()
	bankNode := noc.NodeID(nCores)
	mcNode := noc.NodeID(nCores + 1)
	net := topo.NewIdealWithDelay(nCores+2, func(a, b noc.NodeID) sim.Cycle { return 3 })
	r := &rig{e: sim.NewEngine(), net: net, fills: make([]int, nCores)}

	home := func(line uint64) (noc.NodeID, int) { return bankNode, 0 }
	l1node := func(core int) noc.NodeID { return noc.NodeID(core) }

	l1cfg := DefaultL1Config()
	l1cfg.ISizeBytes, l1cfg.DSizeBytes = l1Bytes, l1Bytes
	for i := 0; i < nCores; i++ {
		i := i
		l1 := NewL1(i, noc.NodeID(i), net, l1cfg, nil, home, l1node)
		l1.SetFillListener(func(now sim.Cycle, line uint64, instr, write bool) { r.fills[i]++ })
		net.SetDeliver(noc.NodeID(i), func(now sim.Cycle, p *noc.Packet) {
			l1.Deliver((*p.Payload.(*Msg)))
		})
		r.l1s = append(r.l1s, l1)
	}
	bcfg := BankConfig{SizeBytes: llcBytes, Ways: 4, AccessLat: 4, LinkBits: 128, NumCores: nCores}
	r.bank = NewBank(0, bankNode, net, bcfg, nil,
		func(line uint64) (noc.NodeID, int) { return mcNode, 0 },
		l1node)
	net.SetDeliver(bankNode, func(now sim.Cycle, p *noc.Packet) { r.bank.Deliver((*p.Payload.(*Msg))) })

	r.mc = mem.NewController(0, mcNode, net, mem.DefaultConfig(), nil,
		func(bank int) noc.NodeID { return bankNode })
	net.SetDeliver(mcNode, func(now sim.Cycle, p *noc.Packet) { r.mc.Deliver((*p.Payload.(*Msg))) })

	r.e.Register(net)
	for _, l1 := range r.l1s {
		r.e.Register(sim.TickFunc(l1.Tick))
	}
	r.e.Register(sim.TickFunc(r.bank.Tick), sim.TickFunc(r.mc.Tick))
	return r
}

// access issues one access and runs until the resulting miss (if any) fills.
func (r *rig) access(t *testing.T, core int, line uint64, kind AccessKind) Outcome {
	t.Helper()
	out := r.l1s[core].Access(r.e.Now(), line, kind)
	if out == Miss || out == MissMerged {
		before := r.fills[core]
		if !r.e.RunUntil(func() bool { return r.fills[core] > before }, 5000) {
			t.Fatalf("core %d miss on line %#x never filled", core, line)
		}
	}
	return out
}

// settle runs until all protocol agents drain.
func (r *rig) settle(t *testing.T) {
	t.Helper()
	idle := func() bool { return !r.bank.PendingWork() && !r.mc.PendingWork() }
	if !r.e.RunUntil(idle, 20000) {
		t.Fatal("protocol never drained")
	}
	r.e.Step(50) // let trailing acks land
}

func TestColdReadMissFillsFromMemory(t *testing.T) {
	r := newRig(t, 2, 32<<10, 1<<20)
	if out := r.access(t, 0, 100, Load); out != Miss {
		t.Fatalf("cold access = %v, want Miss", out)
	}
	if !r.bank.Resident(100) {
		t.Fatal("LLC should hold the line after the fill")
	}
	if r.bank.Stats.Misses != 1 || r.bank.Stats.MemReads != 1 {
		t.Fatalf("stats: %+v", r.bank.Stats)
	}
	if st, ok := r.l1s[0].StateOf(100); !ok || st != StateS {
		t.Fatalf("L1 state = %v,%v want S", st, ok)
	}
	// Re-access hits locally.
	if out := r.l1s[0].Access(r.e.Now(), 100, Load); out != Hit {
		t.Fatalf("warm access = %v, want Hit", out)
	}
}

func TestInstructionSharingNoSnoops(t *testing.T) {
	// All cores fetch the same instruction lines: everyone hits in the LLC
	// after the first fill and no snoops ever fire (read-only sharing).
	r := newRig(t, 4, 32<<10, 1<<20)
	for core := 0; core < 4; core++ {
		r.access(t, core, 42, Ifetch)
	}
	r.settle(t)
	if r.bank.SharerCount(42) != 4 {
		t.Fatalf("sharers = %d, want 4", r.bank.SharerCount(42))
	}
	if r.bank.Stats.SnoopMsgs != 0 {
		t.Fatalf("read-only sharing must not snoop: %+v", r.bank.Stats)
	}
	if r.bank.Stats.Misses != 1 {
		t.Fatalf("only the first fetch should miss: %+v", r.bank.Stats)
	}
}

func TestStoreInvalidatesSharers(t *testing.T) {
	r := newRig(t, 3, 32<<10, 1<<20)
	r.access(t, 0, 7, Load)
	r.access(t, 1, 7, Load)
	r.access(t, 2, 7, Store) // must invalidate cores 0 and 1
	r.settle(t)
	if r.bank.OwnerOf(7) != 2 {
		t.Fatalf("owner = %d, want 2", r.bank.OwnerOf(7))
	}
	if r.l1s[0].HasLine(7) || r.l1s[1].HasLine(7) {
		t.Fatal("sharers must be invalidated")
	}
	if st, _ := r.l1s[2].StateOf(7); st != StateM {
		t.Fatal("writer must hold the line in M")
	}
	if r.bank.Stats.SnoopAccesses != 1 || r.bank.Stats.SnoopMsgs != 2 {
		t.Fatalf("snoop accounting: %+v", r.bank.Stats)
	}
	if r.l1s[0].Stats.SnoopsReceived != 1 || r.l1s[1].Stats.SnoopsReceived != 1 {
		t.Fatal("both sharers should have seen an Inv")
	}
}

func TestReadOfModifiedLineForwards(t *testing.T) {
	r := newRig(t, 2, 32<<10, 1<<20)
	r.access(t, 0, 9, Store)
	r.settle(t)
	if r.bank.OwnerOf(9) != 0 {
		t.Fatalf("owner = %d", r.bank.OwnerOf(9))
	}
	r.access(t, 1, 9, Load) // FwdGetS path
	r.settle(t)
	if r.bank.OwnerOf(9) != -1 {
		t.Fatal("owner must be cleared after the copy-back")
	}
	if r.bank.SharerCount(9) != 2 {
		t.Fatalf("sharers = %d, want 2 (old owner + requester)", r.bank.SharerCount(9))
	}
	st0, _ := r.l1s[0].StateOf(9)
	st1, _ := r.l1s[1].StateOf(9)
	if st0 != StateS || st1 != StateS {
		t.Fatalf("states = %v,%v want S,S", st0, st1)
	}
	if r.l1s[0].Stats.SnoopsReceived != 1 {
		t.Fatal("owner should have received FwdGetS")
	}
}

func TestWriteOfModifiedLineTransfersOwnership(t *testing.T) {
	r := newRig(t, 2, 32<<10, 1<<20)
	r.access(t, 0, 11, Store)
	r.settle(t)
	r.access(t, 1, 11, Store) // FwdGetX path
	r.settle(t)
	if r.bank.OwnerOf(11) != 1 {
		t.Fatalf("owner = %d, want 1", r.bank.OwnerOf(11))
	}
	if r.l1s[0].HasLine(11) {
		t.Fatal("old owner must be invalidated")
	}
	if st, _ := r.l1s[1].StateOf(11); st != StateM {
		t.Fatal("new owner must be in M")
	}
}

func TestUpgradeFromSharedGetsAckEx(t *testing.T) {
	r := newRig(t, 2, 32<<10, 1<<20)
	r.access(t, 0, 13, Load)
	r.settle(t)
	// Store to an S line: upgrade; no other sharers, so AckEx and owner.
	out := r.access(t, 0, 13, Store)
	if out != Miss {
		t.Fatalf("upgrade should miss in L1 (needs GetX), got %v", out)
	}
	r.settle(t)
	if r.bank.OwnerOf(13) != 0 {
		t.Fatal("upgrade must set ownership")
	}
	if st, _ := r.l1s[0].StateOf(13); st != StateM {
		t.Fatal("upgraded line must be M")
	}
}

func TestDirtyL1EvictionWritesBack(t *testing.T) {
	// Tiny L1 (4 lines, 2-way) to force evictions quickly.
	r := newRig(t, 1, 4*64, 1<<20)
	r.access(t, 0, 0, Store) // set 0
	r.settle(t)
	r.access(t, 0, 2, Store) // set 0 again (2 sets: lines 0,2 collide)
	r.settle(t)
	r.access(t, 0, 4, Store) // evicts line 0 (LRU), must PutM
	r.settle(t)
	if r.l1s[0].Stats.Writebacks == 0 {
		t.Fatal("dirty eviction must send PutM")
	}
	if r.bank.Stats.Writebacks == 0 {
		t.Fatal("bank must receive the PutM")
	}
	if r.bank.OwnerOf(0) != -1 {
		t.Fatal("writeback must clear ownership")
	}
}

func TestMSHRLimitBlocks(t *testing.T) {
	r := newRig(t, 1, 32<<10, 1<<20)
	l1 := r.l1s[0]
	// Fill the 16-entry MSHR file with distinct misses without running the
	// simulation.
	for i := uint64(0); i < 16; i++ {
		if out := l1.Access(r.e.Now(), 1000+i, Load); out != Miss {
			t.Fatalf("access %d = %v, want Miss", i, out)
		}
	}
	if out := l1.Access(r.e.Now(), 2000, Load); out != Blocked {
		t.Fatalf("17th outstanding miss = %v, want Blocked", out)
	}
	// A merged miss is still accepted.
	if out := l1.Access(r.e.Now(), 1000, Load); out != MissMerged {
		t.Fatalf("merge = %v, want MissMerged", out)
	}
	if l1.OutstandingMisses() != 16 {
		t.Fatalf("outstanding = %d", l1.OutstandingMisses())
	}
}

func TestLLCEvictionRecallsModifiedVictim(t *testing.T) {
	// LLC with 4 lines (4-way, 1 set... need power-of-two sets: 4 lines,
	// 4 ways = 1 set). Write line 0 (owned M by core), then stream reads
	// until line 0 is evicted -> Recall -> MemWrite.
	r := newRig(t, 1, 32<<10, 4*64)
	r.access(t, 0, 0, Store)
	r.settle(t)
	for i := uint64(1); i <= 4; i++ {
		r.access(t, 0, 100+i, Load)
		r.settle(t)
	}
	if r.bank.Stats.Recalls == 0 {
		t.Fatalf("evicting an owned line must recall it: %+v", r.bank.Stats)
	}
	if r.bank.Stats.MemWrites == 0 {
		t.Fatal("recalled dirty line must be written to memory")
	}
	if r.l1s[0].HasLine(0) {
		t.Fatal("recalled line must leave the L1")
	}
}

func TestLLCEvictionBackInvalidatesSharers(t *testing.T) {
	r := newRig(t, 2, 32<<10, 4*64)
	r.access(t, 0, 0, Load)
	r.access(t, 1, 0, Load)
	r.settle(t)
	for i := uint64(1); i <= 4; i++ {
		r.access(t, 0, 100+i, Load)
		r.settle(t)
	}
	if r.bank.Stats.BackInvals == 0 {
		t.Fatal("evicting a shared line must back-invalidate")
	}
	// Back-invals are not demand snoops: Figure 4 accounting unaffected.
	if r.bank.Stats.SnoopAccesses != 0 {
		t.Fatalf("back-invals must not count as snoop-triggering accesses: %+v", r.bank.Stats)
	}
	r.e.Step(100)
	if r.l1s[0].HasLine(0) || r.l1s[1].HasLine(0) {
		t.Fatal("sharers should have dropped the line")
	}
}

func TestMemoryChannelBandwidth(t *testing.T) {
	// A burst of reads is serviced one line per LinePeriod.
	r := newRig(t, 1, 64*64, 1<<20)
	l1 := r.l1s[0]
	start := r.e.Now()
	for i := uint64(0); i < 8; i++ {
		l1.Access(r.e.Now(), 5000+i*64, Load) // distinct sets, all LLC misses
	}
	before := r.fills[0]
	if !r.e.RunUntil(func() bool { return r.fills[0] == before+8 }, 5000) {
		t.Fatalf("only %d/8 fills", r.fills[0]-before)
	}
	elapsed := int64(r.e.Now() - start)
	cfg := mem.DefaultConfig()
	minTime := int64(cfg.AccessLat) + 7*int64(cfg.LinePeriod)
	if elapsed < minTime {
		t.Fatalf("8 fills in %d cycles beats the channel's bandwidth floor %d", elapsed, minTime)
	}
	if r.mc.Stats.Reads != 8 {
		t.Fatalf("MC reads = %d", r.mc.Stats.Reads)
	}
}

func TestSnoopRateMetric(t *testing.T) {
	r := newRig(t, 2, 32<<10, 1<<20)
	// 1 snooping access (store to a line owned M elsewhere) among several
	// plain accesses.
	r.access(t, 0, 1, Store)
	r.settle(t)
	r.access(t, 1, 1, Store)
	r.settle(t)
	for i := uint64(10); i < 18; i++ {
		r.access(t, 0, i, Load)
		r.settle(t)
	}
	st := r.bank.Stats
	if st.SnoopAccesses != 1 {
		t.Fatalf("snoop accesses = %d, want 1", st.SnoopAccesses)
	}
	want := 1.0 / float64(st.Accesses)
	if got := st.SnoopRate(); got != want {
		t.Fatalf("SnoopRate = %v, want %v", got, want)
	}
}

func TestDirStatsAdd(t *testing.T) {
	a := DirStats{Accesses: 1, Hits: 2, Misses: 3, SnoopAccesses: 4, SnoopMsgs: 5, BackInvals: 6, Recalls: 7, Writebacks: 8, MemReads: 9, MemWrites: 10}
	var sum DirStats
	sum.Add(a)
	sum.Add(a)
	if sum.Accesses != 2 || sum.MemWrites != 20 || sum.SnoopMsgs != 10 {
		t.Fatalf("Add broken: %+v", sum)
	}
}
