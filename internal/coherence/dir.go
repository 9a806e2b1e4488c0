package coherence

import (
	"fmt"

	"nocout/internal/cache"
	"nocout/internal/noc"
	"nocout/internal/sim"
)

// DirStats counts directory/LLC-bank activity; Figure 4's snoop rate is
// SnoopAccesses / Accesses.
type DirStats struct {
	Accesses      int64 // demand GetS+GetX processed
	Hits          int64
	Misses        int64
	SnoopAccesses int64 // demand accesses that triggered >= 1 snoop
	SnoopMsgs     int64 // demand snoop messages sent (Fwd*, Inv)
	BackInvals    int64 // fire-and-forget invalidations on LLC evictions
	Recalls       int64
	Writebacks    int64 // PutM received
	MemReads      int64
	MemWrites     int64
}

// Add accumulates o into s (for chip-level aggregation).
func (s *DirStats) Add(o DirStats) {
	s.Accesses += o.Accesses
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.SnoopAccesses += o.SnoopAccesses
	s.SnoopMsgs += o.SnoopMsgs
	s.BackInvals += o.BackInvals
	s.Recalls += o.Recalls
	s.Writebacks += o.Writebacks
	s.MemReads += o.MemReads
	s.MemWrites += o.MemWrites
}

// SnoopRate returns the fraction of LLC accesses that triggered a snoop.
func (s *DirStats) SnoopRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.SnoopAccesses) / float64(s.Accesses)
}

// MissRate returns the LLC miss rate.
func (s *DirStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

type transState uint8

const (
	tWaitMem transState = iota
	tWaitCopyBack
	tWaitFwdAck
	tWaitInvAcks
	tWaitRecall
)

type trans struct {
	origin       Msg
	state        transState
	acksLeft     int
	reqWasSharer bool
	victim       uint64 // line being recalled (tWaitRecall)
	hasVictim    bool
	pending      []Msg // demand requests queued behind this line
}

// Bank is one LLC bank with its slice of the directory. It services demand
// requests at one per cycle through an access pipeline of AccessLat cycles
// and serializes transactions per line.
//
// The full-map directory vectors live in one slab, sharerW, allocated
// once: the vector of array slot s is sharerW[s*words : (s+1)*words], with
// words = ceil(NumCores/64) and core c at bit c%64 of word c/64. owner and
// dirty are indexed by the same slot. Checkpoints store the slab as is.
type Bank struct {
	BankID int
	Node   noc.NodeID

	net      noc.Network
	linkBits int
	pool     *noc.PacketPool
	idBase   uint64
	pktSeq   uint64

	arr     *cache.Array
	sharerW []uint64 // directory vectors, words per slot (see Bank)
	words   int
	owner   []int32
	dirty   []bool

	stride uint64 // bank interleave factor
	phase  uint64 // this bank's residue mod stride

	busy   map[uint64]*trans
	freeTr []*trans // recycled transactions (steady state allocates none)
	reqQ   sim.Queue[Msg]
	inPipe *sim.Pipe[Msg]
	inbox  sim.Queue[Msg]

	mcNode   func(line uint64) (noc.NodeID, int)
	l1Node   func(core int) noc.NodeID
	numCores int

	Stats DirStats
}

// BankConfig sizes an LLC bank. The bank no longer assumes a global
// modulo interleave: the memory hierarchy that places it injects the
// line-compaction parameters (Stride/Phase) to match its home mapping.
type BankConfig struct {
	SizeBytes int
	Ways      int
	AccessLat sim.Cycle // tag+data pipeline depth (default 4)
	LinkBits  int
	NumCores  int
	// Interleave is the number of banks lines are striped across
	// (bank = line mod Interleave). The bank strips those bits before set
	// indexing so its full set count is usable. Default 1.
	Interleave int
	// Stride/Phase, when Stride is non-zero, override the Interleave
	// derivation (stride = Interleave, phase = bankID mod Interleave): the
	// bank owns exactly the lines with line mod Stride == Phase and
	// compacts them by Stride before set indexing. Hierarchies whose home
	// mapping is not an arithmetic progression (XOR-hashed, region-affine,
	// private slices) set Stride 1 / Phase 0 so every line is accepted
	// as-is and the hashed set index does the spreading.
	Stride, Phase uint64
}

// NewBank builds an LLC bank/directory controller. pool recycles the
// packets delivered in this node's scheduling domain into the bank's
// sends; nil gives it a private pool.
func NewBank(bankID int, node noc.NodeID, net noc.Network, cfg BankConfig, pool *noc.PacketPool,
	mcNode func(line uint64) (noc.NodeID, int), l1Node func(core int) noc.NodeID) *Bank {
	if cfg.AccessLat < 1 {
		cfg.AccessLat = 4
	}
	if cfg.Interleave < 1 {
		cfg.Interleave = 1
	}
	stride, phase := cfg.Stride, cfg.Phase
	if stride == 0 {
		stride = uint64(cfg.Interleave)
		phase = uint64(bankID % cfg.Interleave)
	}
	if phase >= stride {
		panic(fmt.Sprintf("coherence: bank %d phase %d out of range for stride %d", bankID, phase, stride))
	}
	arr := cache.NewArray(cfg.SizeBytes, cfg.Ways)
	arr.SetHash(true)
	if pool == nil {
		pool = &noc.PacketPool{}
	}
	words := (cfg.NumCores + 63) / 64
	b := &Bank{
		BankID:   bankID,
		Node:     node,
		stride:   stride,
		phase:    phase,
		net:      net,
		linkBits: cfg.LinkBits,
		pool:     pool,
		idBase:   noc.PacketIDBase(noc.PktTagDir, bankID),
		arr:      arr,
		sharerW:  make([]uint64, arr.Lines()*words),
		words:    words,
		owner:    make([]int32, arr.Lines()),
		dirty:    make([]bool, arr.Lines()),
		busy:     make(map[uint64]*trans),
		inPipe:   sim.NewPipe[Msg](fmt.Sprintf("llc.bank%d.access", bankID), cfg.AccessLat),
		mcNode:   mcNode,
		l1Node:   l1Node,
		numCores: cfg.NumCores,
	}
	for i := range b.owner {
		b.owner[i] = -1
	}
	return b
}

// sharers returns slot's directory vector, a view into the slab.
func (b *Bank) sharers(slot int) Bitset {
	return Bitset{w: b.sharerW[slot*b.words : (slot+1)*b.words]}
}

// aline converts a chip-wide line address to this bank's array index space
// (stripping the interleave bits so all sets are usable).
func (b *Bank) aline(line uint64) uint64 {
	if line%b.stride != b.phase {
		panic(fmt.Sprintf("coherence: line %#x does not belong to bank %d (stride %d phase %d)",
			line, b.BankID, b.stride, b.phase))
	}
	return line / b.stride
}

// fullLine is the inverse of aline.
func (b *Bank) fullLine(aline uint64) uint64 { return aline*b.stride + b.phase }

// Stripe reports the bank's line compaction: it owns exactly the lines
// with line mod stride == phase.
func (b *Bank) Stripe() (stride, phase uint64) { return b.stride, b.phase }

// Deliver is the network delivery callback for this bank.
func (b *Bank) Deliver(m Msg) { b.inbox.Push(m) }

// PendingWork reports whether the bank still has queued or in-flight work.
func (b *Bank) PendingWork() bool {
	return b.inbox.Len() > 0 || b.reqQ.Len() > 0 || b.inPipe.Len() > 0 || len(b.busy) > 0
}

// BindWaker implements sim.WakeBinder: the delivery inbox, the per-line
// retry queue and the access pipeline are the bank's wake sources.
func (b *Bank) BindWaker(w sim.Waker) {
	b.inbox.SetWaker(w)
	b.reqQ.SetWaker(w)
	b.inPipe.SetWaker(w)
}

// NextWake implements sim.Sleeper: awake while queued messages wait to
// enter the access pipeline, then again when the pipeline's oldest access
// completes; otherwise the bank waits on the network (open transactions in
// busy have nothing to do until a response lands in the inbox).
func (b *Bank) NextWake(now sim.Cycle) sim.Cycle {
	if b.inbox.Len() > 0 || b.reqQ.Len() > 0 {
		return now + 1
	}
	if at, ok := b.inPipe.NextAt(); ok {
		return at
	}
	return sim.NeverWake
}

// BusyLines returns the number of lines with an open transaction (state
// hashing and diagnostics).
func (b *Bank) BusyLines() int { return len(b.busy) }

// Tick advances the bank: one new message enters the access pipeline per
// cycle; completed accesses run the protocol logic.
func (b *Bank) Tick(now sim.Cycle) {
	for {
		m, ok := b.inbox.Pop()
		if !ok {
			break
		}
		b.reqQ.Push(m)
	}
	if m, ok := b.reqQ.Pop(); ok {
		b.inPipe.Push(now, m)
	}
	for {
		m, ok := b.inPipe.Pop(now)
		if !ok {
			break
		}
		b.process(now, m)
	}
}

func isDemand(t MsgType) bool { return t == GetS || t == GetX || t == PutM }

func (b *Bank) process(now sim.Cycle, m Msg) {
	if isDemand(m.Type) {
		if tr, ok := b.busy[m.Addr]; ok {
			tr.pending = append(tr.pending, m)
			return
		}
	}
	switch m.Type {
	case GetS:
		b.Stats.Accesses++
		b.handleGetS(now, m)
	case GetX:
		b.Stats.Accesses++
		b.handleGetX(now, m)
	case PutM:
		b.Stats.Writebacks++
		if slot, hit := b.arr.Probe(b.aline(m.Addr)); hit {
			b.dirty[slot] = true
			if b.owner[slot] == int32(m.SrcID) {
				b.owner[slot] = -1
			}
		}
	case MemData:
		b.handleMemData(now, m)
	case CopyBack:
		tr := b.mustTrans(m.Addr, tWaitCopyBack)
		slot, hit := b.arr.Probe(b.aline(m.Addr))
		if hit {
			b.dirty[slot] = true
			b.owner[slot] = -1
			b.sharers(slot).Set(m.SrcID)
			b.sharers(slot).Set(tr.origin.SrcID)
		}
		// Requester's data comes via the owner's FwdData; nothing to send.
		b.finish(now, m.Addr, tr)
	case FwdAck:
		tr := b.mustTrans(m.Addr, tWaitFwdAck)
		if slot, hit := b.arr.Probe(b.aline(m.Addr)); hit {
			b.owner[slot] = int32(tr.origin.SrcID)
			b.sharers(slot).Reset()
			b.dirty[slot] = true // line is dirty somewhere off-chip view
		}
		b.finish(now, m.Addr, tr)
	case InvAck:
		tr, ok := b.busy[m.Addr]
		if !ok || tr.state != tWaitInvAcks {
			return // unsolicited ack from a fire-and-forget back-inval
		}
		tr.acksLeft--
		if tr.acksLeft > 0 {
			return
		}
		if slot, hit := b.arr.Probe(b.aline(m.Addr)); hit {
			b.owner[slot] = int32(tr.origin.SrcID)
			b.sharers(slot).Reset()
		}
		t := DataEx
		if tr.reqWasSharer {
			t = AckEx
		}
		b.reply(now, tr.origin.SrcID, Msg{Type: t, Addr: m.Addr, Dst: AgentL1, DstID: tr.origin.SrcID, SrcID: b.BankID})
		b.finish(now, m.Addr, tr)
	case RecallAck:
		b.handleRecallAck(now, m)
	default:
		panic(fmt.Sprintf("coherence: bank %d received unexpected %v", b.BankID, m.Type))
	}
}

func (b *Bank) handleGetS(now sim.Cycle, m Msg) {
	slot, hit := b.arr.Lookup(b.aline(m.Addr))
	if !hit {
		b.Stats.Misses++
		tr := b.newTrans()
		tr.origin, tr.state = m, tWaitMem
		b.busy[m.Addr] = tr
		b.sendMemRead(now, m.Addr)
		return
	}
	b.Stats.Hits++
	own := b.owner[slot]
	if own >= 0 && own != int32(m.SrcID) {
		b.Stats.SnoopAccesses++
		b.Stats.SnoopMsgs++
		tr := b.newTrans()
		tr.origin, tr.state = m, tWaitCopyBack
		b.busy[m.Addr] = tr
		b.reply(now, int(own), Msg{Type: FwdGetS, Addr: m.Addr, Dst: AgentL1, DstID: int(own), SrcID: b.BankID, Req: m.SrcID})
		return
	}
	if own == int32(m.SrcID) {
		// Racy re-request from the owner; regrant exclusivity.
		b.reply(now, m.SrcID, Msg{Type: DataEx, Addr: m.Addr, Dst: AgentL1, DstID: m.SrcID, SrcID: b.BankID})
		return
	}
	b.sharers(slot).Set(m.SrcID)
	b.reply(now, m.SrcID, Msg{Type: Data, Addr: m.Addr, Dst: AgentL1, DstID: m.SrcID, SrcID: b.BankID})
}

func (b *Bank) handleGetX(now sim.Cycle, m Msg) {
	slot, hit := b.arr.Lookup(b.aline(m.Addr))
	if !hit {
		b.Stats.Misses++
		tr := b.newTrans()
		tr.origin, tr.state = m, tWaitMem
		b.busy[m.Addr] = tr
		b.sendMemRead(now, m.Addr)
		return
	}
	b.Stats.Hits++
	own := b.owner[slot]
	if own >= 0 && own != int32(m.SrcID) {
		b.Stats.SnoopAccesses++
		b.Stats.SnoopMsgs++
		tr := b.newTrans()
		tr.origin, tr.state = m, tWaitFwdAck
		b.busy[m.Addr] = tr
		b.reply(now, int(own), Msg{Type: FwdGetX, Addr: m.Addr, Dst: AgentL1, DstID: int(own), SrcID: b.BankID, Req: m.SrcID})
		return
	}
	if own == int32(m.SrcID) {
		b.reply(now, m.SrcID, Msg{Type: AckEx, Addr: m.Addr, Dst: AgentL1, DstID: m.SrcID, SrcID: b.BankID})
		return
	}
	sh := b.sharers(slot)
	wasSharer := sh.Has(m.SrcID)
	others := 0
	sh.ForEach(func(id int) {
		if id != m.SrcID {
			others++
		}
	})
	if others > 0 {
		b.Stats.SnoopAccesses++
		tr := b.newTrans()
		tr.origin, tr.state = m, tWaitInvAcks
		tr.acksLeft, tr.reqWasSharer = others, wasSharer
		b.busy[m.Addr] = tr
		sh.ForEach(func(id int) {
			if id == m.SrcID {
				return
			}
			b.Stats.SnoopMsgs++
			b.reply(now, id, Msg{Type: Inv, Addr: m.Addr, Dst: AgentL1, DstID: id, SrcID: b.BankID})
		})
		return
	}
	b.owner[slot] = int32(m.SrcID)
	sh.Reset()
	t := DataEx
	if wasSharer {
		t = AckEx
	}
	b.reply(now, m.SrcID, Msg{Type: t, Addr: m.Addr, Dst: AgentL1, DstID: m.SrcID, SrcID: b.BankID})
}

func (b *Bank) handleMemData(now sim.Cycle, m Msg) {
	tr := b.mustTrans(m.Addr, tWaitMem)
	b.insertAndComplete(now, m.Addr, tr)
}

// insertAndComplete installs the filled line, recalling an owned victim
// first if necessary, then completes the original request.
func (b *Bank) insertAndComplete(now sim.Cycle, line uint64, tr *trans) {
	slotV, victimA, had := b.arr.VictimOf(b.aline(line))
	victim := b.fullLine(victimA)
	if had {
		if _, victimBusy := b.busy[victim]; victimBusy {
			// The victim is mid-transaction (being recalled by another
			// fill, or serving a forward). Claiming it now would corrupt
			// that transaction; retry this fill once the victim settles.
			tr.state = tWaitMem
			b.reqQ.Push(Msg{Type: MemData, Addr: line, Dst: AgentDir, DstID: b.BankID})
			return
		}
	}
	if had && b.owner[slotV] >= 0 {
		// The victim is dirty in some L1: recall it before dropping.
		b.Stats.Recalls++
		b.Stats.SnoopMsgs++
		own := int(b.owner[slotV])
		tr.state = tWaitRecall
		tr.victim = victim
		tr.hasVictim = true
		b.busy[victim] = tr
		b.reply(now, own, Msg{Type: Recall, Addr: victim, Dst: AgentL1, DstID: own, SrcID: b.BankID})
		return
	}
	if had {
		if b.dirty[slotV] {
			b.Stats.MemWrites++
			b.sendMC(now, Msg{Type: MemWrite, Addr: victim, SrcID: b.BankID})
		}
		b.sharers(slotV).ForEach(func(id int) {
			b.Stats.BackInvals++
			b.reply(now, id, Msg{Type: Inv, Addr: victim, Dst: AgentL1, DstID: id, SrcID: b.BankID})
		})
		b.arr.Invalidate(b.aline(victim))
	}
	slot, _, evicted := b.arr.Insert(b.aline(line))
	if evicted {
		panic("coherence: victim handling should have freed a way")
	}
	b.sharers(slot).Reset()
	b.owner[slot] = -1
	b.dirty[slot] = false

	// Complete the original request on the now-resident line.
	m := tr.origin
	switch m.Type {
	case GetS:
		b.sharers(slot).Set(m.SrcID)
		b.reply(now, m.SrcID, Msg{Type: Data, Addr: line, Dst: AgentL1, DstID: m.SrcID, SrcID: b.BankID})
	case GetX:
		b.owner[slot] = int32(m.SrcID)
		b.reply(now, m.SrcID, Msg{Type: DataEx, Addr: line, Dst: AgentL1, DstID: m.SrcID, SrcID: b.BankID})
	default:
		panic(fmt.Sprintf("coherence: fill completing unexpected %v", m.Type))
	}
	b.finish(now, line, tr)
}

func (b *Bank) handleRecallAck(now sim.Cycle, m Msg) {
	tr, ok := b.busy[m.Addr]
	if !ok || tr.state != tWaitRecall || !tr.hasVictim || tr.victim != m.Addr {
		return
	}
	delete(b.busy, m.Addr) // release the victim key
	// The recalled data is dirty: write it back, then free the way.
	if _, hit := b.arr.Probe(b.aline(m.Addr)); hit {
		b.Stats.MemWrites++
		b.sendMC(now, Msg{Type: MemWrite, Addr: m.Addr, SrcID: b.BankID})
		b.arr.Invalidate(b.aline(m.Addr))
	}
	tr.state = tWaitMem // re-enter the insert path
	b.insertAndComplete(now, tr.origin.Addr, tr)
}

// mustTrans fetches the transaction for line, asserting its state.
func (b *Bank) mustTrans(line uint64, st transState) *trans {
	tr, ok := b.busy[line]
	if !ok || tr.state != st {
		panic(fmt.Sprintf("coherence: bank %d: no transaction in state %d for line %#x", b.BankID, st, line))
	}
	return tr
}

// newTrans returns a zeroed transaction from the bank's free list. finish
// recycles every transaction it closes, so misses in the steady state reuse
// the same handful of trans structs (and their pending-queue capacity)
// instead of allocating per miss.
func (b *Bank) newTrans() *trans {
	n := len(b.freeTr)
	if n == 0 {
		return &trans{}
	}
	tr := b.freeTr[n-1]
	b.freeTr[n-1] = nil
	b.freeTr = b.freeTr[:n-1]
	return tr
}

// finish closes a transaction, requeues any requests that piled up behind
// the line, and recycles the transaction struct.
func (b *Bank) finish(now sim.Cycle, line uint64, tr *trans) {
	delete(b.busy, line)
	if tr.hasVictim {
		if vt, ok := b.busy[tr.victim]; ok && vt == tr {
			delete(b.busy, tr.victim)
		}
	}
	for _, m := range tr.pending {
		b.reqQ.Push(m)
	}
	pending := tr.pending[:0]
	*tr = trans{pending: pending}
	b.freeTr = append(b.freeTr, tr)
}

func (b *Bank) sendMemRead(now sim.Cycle, line uint64) {
	b.Stats.MemReads++
	b.sendMC(now, Msg{Type: MemRead, Addr: line, SrcID: b.BankID})
}

func (b *Bank) sendMC(now sim.Cycle, m Msg) {
	node, ch := b.mcNode(m.Addr)
	m.Dst = AgentMC
	m.DstID = ch
	b.send(now, node, m)
}

func (b *Bank) reply(now sim.Cycle, core int, m Msg) {
	b.send(now, b.l1Node(core), m)
}

func (b *Bank) send(now sim.Cycle, dst noc.NodeID, m Msg) {
	b.pktSeq++
	p := b.pool.Get()
	cell, _ := p.Payload.(*Msg)
	if cell == nil {
		cell = new(Msg)
		p.Payload = cell
	}
	*cell = m
	p.ID = b.idBase | b.pktSeq
	p.Class = m.Type.Class()
	p.Src = b.Node
	p.Dst = dst
	p.Size = noc.FlitsFor(m.PacketBytes(), b.linkBits)
	b.net.Send(now, p)
}

// Resident reports whether line is in this bank (tests).
func (b *Bank) Resident(line uint64) bool { return b.arr.Contains(b.aline(line)) }

// OwnerOf returns the owning core of line, or -1 (tests).
func (b *Bank) OwnerOf(line uint64) int {
	if slot, hit := b.arr.Probe(b.aline(line)); hit {
		return int(b.owner[slot])
	}
	return -1
}

// SharerCount returns the number of recorded sharers of line (tests).
func (b *Bank) SharerCount(line uint64) int {
	if slot, hit := b.arr.Probe(b.aline(line)); hit {
		return b.sharers(slot).Count()
	}
	return 0
}

// PrewarmShared functionally installs line as a clean LLC-resident line
// with no sharers, modelling the paper's warmed-cache checkpoints. It must
// only be called before simulation starts. Lines whose set is already full
// are left cold (they will fault in during the timing warm-up) and the
// function reports false.
func (b *Bank) PrewarmShared(line uint64) bool {
	_, ok := b.prewarm(line)
	return ok
}

// PrewarmOwned functionally installs line owned (M) by core, reporting
// false if the set had no free way.
func (b *Bank) PrewarmOwned(line uint64, core int) bool {
	slot, ok := b.prewarm(line)
	if ok {
		b.owner[slot] = int32(core)
	}
	return ok
}

// prewarm makes line resident with one set scan: a resident line keeps
// its directory entry, a newly installed one starts clean with no sharers
// and no owner, and a full set leaves line cold (ok == false).
func (b *Bank) prewarm(line uint64) (slot int, ok bool) {
	slot, installed, ok := b.arr.Fill(b.aline(line))
	if installed {
		b.sharers(slot).Reset()
		b.owner[slot] = -1
		b.dirty[slot] = false
	}
	return slot, ok
}
