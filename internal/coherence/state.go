package coherence

import (
	"math"
	"sort"

	"nocout/internal/ckpt"
)

// Checkpoint serialization of the protocol controllers. Wiring (network,
// pool, home/l1Node mapping, geometry) is structural and rebuilt by the
// restoring chip; only protocol state travels: tag arrays, MSI state,
// directory vectors, open transactions, queued messages, and packet
// sequence counters. Measurement Stats are excluded.

// EncodeMsg serializes a protocol message. Exported so the chip layer can
// use it as the packet-payload codec for in-flight network state (noc
// cannot import coherence).
func EncodeMsg(e *ckpt.Enc, m Msg) {
	e.U64(uint64(m.Type))
	e.U64(m.Addr)
	e.U64(uint64(m.Dst))
	e.Int(m.DstID)
	e.Int(m.SrcID)
	e.Int(m.Req)
}

// DecodeMsg is the inverse of EncodeMsg.
func DecodeMsg(d *ckpt.Dec) Msg {
	t := d.U64()
	if t > uint64(MemData) {
		d.Corrupt("invalid protocol message type %d", t)
		return Msg{}
	}
	m := Msg{Type: MsgType(t), Addr: d.U64()}
	dst := d.U64()
	if dst > uint64(AgentMC) {
		d.Corrupt("invalid protocol agent %d", dst)
		return Msg{}
	}
	m.Dst = Agent(dst)
	m.DstID = d.Int()
	m.SrcID = d.Int()
	m.Req = d.Int()
	return m
}

// saveLineStates packs an MSI state slice (values are only S/M) as a bit
// vector.
func saveLineStates(e *ckpt.Enc, st []LineState) {
	e.BoolsFunc(len(st), func(i int) bool { return st[i] == StateM })
}

// loadLineStates decodes a bit vector from saveLineStates into st, whose
// length the built array fixes.
func loadLineStates(d *ckpt.Dec, st []LineState) {
	d.BoolsFunc(len(st), func(i int, m bool) {
		if m {
			st[i] = StateM
		} else {
			st[i] = StateS
		}
	})
}

// SaveState implements ckpt.Saver for an L1 controller.
func (l *L1) SaveState(e *ckpt.Enc) {
	l.iArr.SaveState(e)
	saveLineStates(e, l.iState)
	l.dArr.SaveState(e)
	saveLineStates(e, l.dState)
	l.mshrs.SaveState(e)
	l.inbox.SaveState(e, EncodeMsg)
	e.U64(l.pktSeq)
}

// LoadState implements ckpt.Loader.
func (l *L1) LoadState(d *ckpt.Dec) {
	l.iArr.LoadState(d)
	loadLineStates(d, l.iState)
	l.dArr.LoadState(d)
	loadLineStates(d, l.dState)
	l.mshrs.LoadState(d)
	l.inbox.LoadState(d, DecodeMsg)
	l.pktSeq = d.U64()
}

func saveTrans(e *ckpt.Enc, tr *trans) {
	EncodeMsg(e, tr.origin)
	e.U64(uint64(tr.state))
	e.Int(tr.acksLeft)
	e.Bool(tr.reqWasSharer)
	e.U64(tr.victim)
	e.Bool(tr.hasVictim)
	e.U64(uint64(len(tr.pending)))
	for _, m := range tr.pending {
		EncodeMsg(e, m)
	}
}

func loadTrans(d *ckpt.Dec) *trans {
	tr := &trans{origin: DecodeMsg(d)}
	st := d.U64()
	if st > uint64(tWaitRecall) {
		d.Corrupt("invalid transaction state %d", st)
		return tr
	}
	tr.state = transState(st)
	tr.acksLeft = d.Int()
	tr.reqWasSharer = d.Bool()
	tr.victim = d.U64()
	tr.hasVictim = d.Bool()
	n := d.Count()
	for i := 0; i < n && d.Err() == nil; i++ {
		tr.pending = append(tr.pending, DecodeMsg(d))
	}
	return tr
}

// SaveState implements ckpt.Saver for an LLC bank. Open transactions are
// serialized once each under their origin line in ascending order; the
// victim-key alias a recall holds (busy[victim] == busy[origin]) is
// reconstructed from the transaction state on load, so the double-keyed
// map round-trips exactly. The freeTr recycling pool is not state.
func (b *Bank) SaveState(e *ckpt.Enc) {
	b.arr.SaveState(e)
	e.U64s(b.sharerW) // the directory slab, slot-major
	e.U64sFunc(len(b.owner), func(i int) uint64 { return uint64(uint32(b.owner[i])) })
	e.Bools(b.dirty)

	lines := make([]uint64, 0, len(b.busy))
	for line, tr := range b.busy {
		if line == tr.origin.Addr {
			lines = append(lines, line)
		}
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	e.U64(uint64(len(lines)))
	for _, line := range lines {
		saveTrans(e, b.busy[line])
	}

	b.reqQ.SaveState(e, EncodeMsg)
	b.inPipe.SaveState(e, EncodeMsg)
	b.inbox.SaveState(e, EncodeMsg)
	e.U64(b.pktSeq)
}

// LoadState implements ckpt.Loader. Owners and sharers are core indexes
// the bank later forwards and invalidates to, so a directory entry naming
// a core the chip does not have is corruption, not state.
func (b *Bank) LoadState(d *ckpt.Dec) {
	b.arr.LoadState(d)
	// Each vector's last word may name no core at or above numCores.
	pad := b.numCores % 64
	d.U64sFunc(len(b.sharerW), func(i int, w uint64) {
		if pad != 0 && i%b.words == b.words-1 && w>>pad != 0 {
			d.Corrupt("bank %d slot %d: sharer vector names a core at or above %d", b.BankID, i/b.words, b.numCores)
			return
		}
		b.sharerW[i] = w
	})
	d.U64sFunc(len(b.owner), func(i int, o uint64) {
		own := int32(uint32(o))
		if o > math.MaxUint32 || own < -1 || int(own) >= b.numCores {
			d.Corrupt("bank %d slot %d: owner %#x is neither none nor a core below %d", b.BankID, i, o, b.numCores)
			return
		}
		b.owner[i] = own
	})
	d.BoolsFunc(len(b.dirty), func(i int, v bool) { b.dirty[i] = v })
	if d.Err() != nil {
		return
	}

	clear(b.busy)
	n := d.Count()
	for i := 0; i < n && d.Err() == nil; i++ {
		tr := loadTrans(d)
		if d.Err() != nil {
			return
		}
		if _, dup := b.busy[tr.origin.Addr]; dup {
			d.Corrupt("duplicate transaction for line %#x", tr.origin.Addr)
			return
		}
		b.busy[tr.origin.Addr] = tr
		if tr.state == tWaitRecall {
			b.busy[tr.victim] = tr
		}
	}

	b.reqQ.LoadState(d, DecodeMsg)
	b.inPipe.LoadState(d, DecodeMsg)
	b.inbox.LoadState(d, DecodeMsg)
	b.pktSeq = d.U64()
}
