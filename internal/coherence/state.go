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

// lineStates packs an MSI state slice (values are only S/M) as a bit
// vector.
func saveLineStates(e *ckpt.Enc, st []LineState) {
	bits := make([]bool, len(st))
	for i, s := range st {
		bits[i] = s == StateM
	}
	e.Bools(bits)
}

func loadLineStates(d *ckpt.Dec, st []LineState) {
	bits := d.Bools()
	if d.Err() != nil {
		return
	}
	if len(bits) != len(st) {
		d.Corrupt("line-state length %d, built %d", len(bits), len(st))
		return
	}
	for i, b := range bits {
		if b {
			st[i] = StateM
		} else {
			st[i] = StateS
		}
	}
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
	owners := make([]uint64, len(b.owner))
	for i, o := range b.owner {
		owners[i] = uint64(uint32(o))
	}
	e.U64s(owners)
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
	words := d.U64s()
	if d.Err() != nil {
		return
	}
	if len(words) != len(b.sharerW) {
		d.Corrupt("directory vector length %d, built %d", len(words), len(b.sharerW))
		return
	}
	if pad := b.numCores % 64; pad != 0 {
		for i := b.words - 1; i < len(words); i += b.words { // each vector's last word
			if words[i]>>pad != 0 {
				d.Corrupt("bank %d slot %d: sharer vector names a core at or above %d", b.BankID, i/b.words, b.numCores)
				return
			}
		}
	}
	copy(b.sharerW, words)
	owners := d.U64s()
	dirty := d.Bools()
	if d.Err() != nil {
		return
	}
	if len(owners) != len(b.owner) || len(dirty) != len(b.dirty) {
		d.Corrupt("owner/dirty length %d/%d, built %d", len(owners), len(dirty), len(b.owner))
		return
	}
	for i, o := range owners {
		own := int32(uint32(o))
		if o > math.MaxUint32 || own < -1 || int(own) >= b.numCores {
			d.Corrupt("bank %d slot %d: owner %#x is neither none nor a core below %d", b.BankID, i, o, b.numCores)
			return
		}
		b.owner[i] = own
	}
	copy(b.dirty, dirty)

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
