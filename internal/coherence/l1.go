package coherence

import (
	"fmt"

	"nocout/internal/cache"
	"nocout/internal/noc"
	"nocout/internal/sim"
)

// LineState is the MSI state of a line in an L1.
type LineState uint8

// L1 line states (Invalid is represented by absence from the array).
const (
	StateS LineState = iota
	StateM
)

// AccessKind distinguishes the core's three memory operations.
type AccessKind uint8

// Access kinds.
const (
	Ifetch AccessKind = iota
	Load
	Store
)

// Outcome is the immediate result of an L1 access.
type Outcome uint8

// Access outcomes.
const (
	Hit        Outcome = iota // serviced locally
	Miss                      // MSHR allocated, request sent
	MissMerged                // joined an outstanding miss to the same line
	Blocked                   // MSHR file full; retry later
)

// L1Stats counts controller activity.
type L1Stats struct {
	IfetchAccesses, IfetchMisses int64
	LoadAccesses, LoadMisses     int64
	StoreAccesses, StoreMisses   int64
	Writebacks                   int64
	SnoopsReceived               int64
	Fills                        int64
}

// L1 is a core's private cache controller: a 32KB L1-I and a 32KB L1-D
// (Table 1) in front of the network, with a bounded MSHR file providing the
// core's memory-level parallelism.
type L1 struct {
	CoreID int
	Node   noc.NodeID

	net      noc.Network
	linkBits int
	pool     *noc.PacketPool
	idBase   uint64
	pktSeq   uint64

	iArr, dArr     *cache.Array
	iState, dState []LineState
	mshrs          *cache.MSHRFile

	home   func(line uint64) (noc.NodeID, int)
	l1Node func(core int) noc.NodeID

	onFill func(now sim.Cycle, line uint64, instr, write bool)
	inbox  sim.Queue[Msg]

	Stats L1Stats
}

// L1Config sizes an L1 controller.
type L1Config struct {
	ISizeBytes, IWays int
	DSizeBytes, DWays int
	MSHRs             int
	LinkBits          int
}

// DefaultL1Config returns the Table 1 core cache configuration: 32KB L1-I,
// 32KB L1-D, and a 16-entry miss file matching the LSQ size.
func DefaultL1Config() L1Config {
	return L1Config{ISizeBytes: 32 << 10, IWays: 2, DSizeBytes: 32 << 10, DWays: 2, MSHRs: 16, LinkBits: 128}
}

// NewL1 builds a controller for core coreID attached at network node. pool
// recycles the packets delivered in this node's scheduling domain into the
// controller's sends; nil gives the controller a private pool.
func NewL1(coreID int, node noc.NodeID, net noc.Network, cfg L1Config, pool *noc.PacketPool,
	home func(line uint64) (noc.NodeID, int), l1Node func(core int) noc.NodeID) *L1 {
	ia := cache.NewArray(cfg.ISizeBytes, cfg.IWays)
	da := cache.NewArray(cfg.DSizeBytes, cfg.DWays)
	if pool == nil {
		pool = &noc.PacketPool{}
	}
	return &L1{
		CoreID:   coreID,
		Node:     node,
		net:      net,
		linkBits: cfg.LinkBits,
		pool:     pool,
		idBase:   noc.PacketIDBase(noc.PktTagL1, coreID),
		iArr:     ia,
		dArr:     da,
		iState:   make([]LineState, ia.Lines()),
		dState:   make([]LineState, da.Lines()),
		mshrs:    cache.NewMSHRFile(cfg.MSHRs),
		home:     home,
		l1Node:   l1Node,
	}
}

// SetFillListener registers the core's fill callback.
func (l *L1) SetFillListener(fn func(now sim.Cycle, line uint64, instr, write bool)) {
	l.onFill = fn
}

// Deliver is the network delivery callback for this controller.
func (l *L1) Deliver(m Msg) { l.inbox.Push(m) }

// OutstandingMisses returns the number of live MSHRs.
func (l *L1) OutstandingMisses() int { return l.mshrs.Len() }

// Access performs one memory operation against the L1 at cycle now.
func (l *L1) Access(now sim.Cycle, line uint64, kind AccessKind) Outcome {
	instr := kind == Ifetch
	arr, states := l.arrays(instr)
	switch kind {
	case Ifetch:
		l.Stats.IfetchAccesses++
	case Load:
		l.Stats.LoadAccesses++
	case Store:
		l.Stats.StoreAccesses++
	}
	if slot, hit := arr.Lookup(line); hit {
		if kind == Store && states[slot] != StateM {
			// Upgrade: needs exclusive ownership.
			return l.miss(now, line, kind)
		}
		return Hit
	}
	return l.miss(now, line, kind)
}

func (l *L1) miss(now sim.Cycle, line uint64, kind AccessKind) Outcome {
	if m, ok := l.mshrs.Get(line); ok {
		m.Waiters++
		return MissMerged
	}
	if l.mshrs.Full() {
		// Back-pressure retries must not inflate the miss counters.
		return Blocked
	}
	switch kind {
	case Ifetch:
		l.Stats.IfetchMisses++
	case Load:
		l.Stats.LoadMisses++
	case Store:
		l.Stats.StoreMisses++
	}
	write := kind == Store
	l.mshrs.Alloc(line, write, kind == Ifetch)
	t := GetS
	if write {
		t = GetX
	}
	node, bank := l.home(line)
	l.send(now, node, Msg{Type: t, Addr: line, Dst: AgentDir, DstID: bank, SrcID: l.CoreID})
	return Miss
}

// BindWaker implements sim.WakeBinder: the delivery inbox is the
// controller's wake source.
func (l *L1) BindWaker(w sim.Waker) { l.inbox.SetWaker(w) }

// NextWake implements sim.Sleeper: the controller is purely reactive — it
// only ever drains its inbox (core-driven Accesses run synchronously inside
// the core's tick and need no controller cycle).
func (l *L1) NextWake(now sim.Cycle) sim.Cycle {
	if l.inbox.Len() > 0 {
		return now + 1
	}
	return sim.NeverWake
}

// Tick drains delivered protocol messages.
func (l *L1) Tick(now sim.Cycle) {
	for {
		m, ok := l.inbox.Pop()
		if !ok {
			return
		}
		l.handle(now, m)
	}
}

func (l *L1) handle(now sim.Cycle, m Msg) {
	switch m.Type {
	case Data:
		l.fill(now, m.Addr, StateS)
	case DataEx, AckEx:
		l.fill(now, m.Addr, StateM)
	case FwdData:
		st := StateS
		if mshr, ok := l.mshrs.Get(m.Addr); ok && mshr.IsWrite {
			st = StateM
		}
		l.fill(now, m.Addr, st)
	case FwdGetS:
		l.Stats.SnoopsReceived++
		// Forward the line to the requester and write it back to the
		// directory; downgrade to S. Responds even if the line was lost to
		// a racing eviction (timing-only race tolerance; see package doc).
		l.send(now, l.l1Node(m.Req), Msg{Type: FwdData, Addr: m.Addr, Dst: AgentL1, DstID: m.Req, SrcID: l.CoreID})
		node, bank := l.home(m.Addr)
		l.send(now, node, Msg{Type: CopyBack, Addr: m.Addr, Dst: AgentDir, DstID: bank, SrcID: l.CoreID})
		if slot, hit := l.dArr.Probe(m.Addr); hit {
			l.dState[slot] = StateS
		}
	case FwdGetX:
		l.Stats.SnoopsReceived++
		l.send(now, l.l1Node(m.Req), Msg{Type: FwdData, Addr: m.Addr, Dst: AgentL1, DstID: m.Req, SrcID: l.CoreID})
		node, bank := l.home(m.Addr)
		l.send(now, node, Msg{Type: FwdAck, Addr: m.Addr, Dst: AgentDir, DstID: bank, SrcID: l.CoreID})
		l.invalidate(m.Addr)
	case Inv:
		l.Stats.SnoopsReceived++
		l.invalidate(m.Addr)
		node, bank := l.home(m.Addr)
		l.send(now, node, Msg{Type: InvAck, Addr: m.Addr, Dst: AgentDir, DstID: bank, SrcID: l.CoreID})
	case Recall:
		l.Stats.SnoopsReceived++
		l.invalidate(m.Addr)
		node, bank := l.home(m.Addr)
		l.send(now, node, Msg{Type: RecallAck, Addr: m.Addr, Dst: AgentDir, DstID: bank, SrcID: l.CoreID})
	default:
		panic(fmt.Sprintf("coherence: L1 %d received unexpected %v", l.CoreID, m.Type))
	}
}

// fill installs a line on miss completion and wakes the core.
func (l *L1) fill(now sim.Cycle, line uint64, st LineState) {
	mshr, ok := l.mshrs.Get(line)
	if !ok {
		// A fill for a line we no longer track (e.g. duplicate response
		// after a race): drop.
		return
	}
	instr := mshr.Instr
	write := mshr.IsWrite
	squashed := mshr.Squashed
	l.mshrs.Free(line)
	l.Stats.Fills++

	if squashed {
		// The line was invalidated while the fill was in flight: deliver
		// the data to the core (it consumes the value) but do not install.
		if l.onFill != nil {
			l.onFill(now, line, instr, write)
		}
		return
	}
	arr, states := l.arrays(instr)
	if slot, hit := arr.Probe(line); hit {
		// Upgrade completion: the S copy is already resident.
		states[slot] = st
	} else {
		slot, victim, evicted := arr.Insert(line)
		if evicted && states[slot] == StateM && !instr {
			// Dirty victim: write back. Instruction lines are read-only.
			node, bank := l.home(victim)
			l.send(now, node, Msg{Type: PutM, Addr: victim, Dst: AgentDir, DstID: bank, SrcID: l.CoreID})
			l.Stats.Writebacks++
		}
		states[slot] = st
	}
	if l.onFill != nil {
		l.onFill(now, line, instr, write)
	}
}

func (l *L1) invalidate(line uint64) {
	l.iArr.Invalidate(line)
	l.dArr.Invalidate(line)
	// An invalidation that races ahead of an outstanding fill must squash
	// the install, or the core would keep a copy the directory no longer
	// tracks.
	if mshr, ok := l.mshrs.Get(line); ok {
		mshr.Squashed = true
	}
}

func (l *L1) arrays(instr bool) (*cache.Array, []LineState) {
	if instr {
		return l.iArr, l.iState
	}
	return l.dArr, l.dState
}

func (l *L1) send(now sim.Cycle, dst noc.NodeID, m Msg) {
	l.pktSeq++
	p := l.pool.Get()
	cell, _ := p.Payload.(*Msg)
	if cell == nil {
		cell = new(Msg)
		p.Payload = cell
	}
	*cell = m
	p.ID = l.idBase | l.pktSeq
	p.Class = m.Type.Class()
	p.Src = l.Node
	p.Dst = dst
	p.Size = noc.FlitsFor(m.PacketBytes(), l.linkBits)
	l.net.Send(now, p)
}

// HasLine reports whether the controller holds line (either array), for
// tests and invariant checks.
func (l *L1) HasLine(line uint64) bool {
	return l.iArr.Contains(line) || l.dArr.Contains(line)
}

// StateOf returns the data-array state of line, for tests.
func (l *L1) StateOf(line uint64) (LineState, bool) {
	if slot, hit := l.dArr.Probe(line); hit {
		return l.dState[slot], true
	}
	return 0, false
}

// PrewarmData functionally installs line into the L1-D in state st
// (warmed-checkpoint methodology; call before simulation starts).
func (l *L1) PrewarmData(line uint64, st LineState) {
	if slot, hit := l.dArr.Probe(line); hit {
		l.dState[slot] = st
		return
	}
	slot, _, _ := l.dArr.Insert(line)
	l.dState[slot] = st
}
