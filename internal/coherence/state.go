package coherence

import (
	"math"
	"slices"

	"nocout/internal/ckpt"
)

// Checkpoint walks of the protocol controllers. Wiring (network, pool,
// home/l1Node mapping, geometry) is structural and rebuilt by the
// restoring chip; only protocol state travels: tag arrays, MSI state,
// directory vectors, open transactions, queued messages, and packet
// sequence counters. Measurement Stats are excluded.

// State walks a protocol message. The chip layer also walks packet
// payloads with it (noc cannot import coherence).
func (m *Msg) State(s *ckpt.State) {
	ckpt.Uint(s, &m.Type, MemData)
	s.U64(&m.Addr)
	ckpt.Uint(s, &m.Dst, AgentMC)
	ckpt.Int(s, &m.DstID)
	ckpt.Int(s, &m.SrcID)
	ckpt.Int(s, &m.Req)
}

// lineStates walks an MSI state slice (values are only S/M), whose length
// the built array fixes, as a bit vector.
func lineStates(s *ckpt.State, st []LineState) {
	s.BoolsFunc(len(st), func(i int) bool { return st[i] == StateM }, func(i int, m bool) {
		if m {
			st[i] = StateM
		} else {
			st[i] = StateS
		}
	})
}

// State implements ckpt.Walker for an L1 controller.
func (l *L1) State(s *ckpt.State) {
	l.iArr.State(s)
	lineStates(s, l.iState)
	l.dArr.State(s)
	lineStates(s, l.dState)
	l.mshrs.State(s)
	l.inbox.State(s, (*Msg).State)
	s.U64(&l.pktSeq)
}

// State walks an open transaction.
func (tr *trans) State(s *ckpt.State) {
	tr.origin.State(s)
	ckpt.Uint(s, &tr.state, tWaitRecall)
	ckpt.Int(s, &tr.acksLeft)
	s.Bool(&tr.reqWasSharer)
	s.U64(&tr.victim)
	s.Bool(&tr.hasVictim)
	n := s.Count(len(tr.pending))
	if s.Loading() && n > 0 {
		tr.pending = make([]Msg, n)
	}
	for i := 0; i < n && s.Err() == nil; i++ {
		tr.pending[i].State(s)
	}
}

// State implements ckpt.Walker for an LLC bank. Open transactions are
// walked once each under their origin line in ascending order; the
// victim-key alias a recall holds (busy[victim] == busy[origin]) is
// reconstructed from the transaction state on load, so the double-keyed
// map round-trips exactly. The freeTr recycling pool is not state.
//
// Owners and sharers are core indexes the bank later forwards and
// invalidates to, so a load rejects a directory entry naming a core the
// chip does not have.
func (b *Bank) State(s *ckpt.State) {
	b.arr.State(s)
	s.U64s(b.sharerW) // the directory slab, slot-major
	if pad := b.numCores % 64; s.Loading() && pad != 0 {
		// Each vector's last word may name no core at or above numCores.
		for i := b.words - 1; i < len(b.sharerW) && s.Err() == nil; i += b.words {
			if b.sharerW[i]>>pad != 0 {
				s.Corrupt("bank %d slot %d: sharer vector names a core at or above %d", b.BankID, i/b.words, b.numCores)
			}
		}
	}
	s.U64sFunc(len(b.owner), func(i int) uint64 { return uint64(uint32(b.owner[i])) }, func(i int, o uint64) {
		own := int32(uint32(o))
		if o > math.MaxUint32 || own < -1 || int(own) >= b.numCores {
			s.Corrupt("bank %d slot %d: owner %#x is neither none nor a core below %d", b.BankID, i, o, b.numCores)
			return
		}
		b.owner[i] = own
	})
	s.Bools(b.dirty)
	if s.Err() != nil {
		return
	}

	var lines []uint64
	if !s.Loading() {
		lines = make([]uint64, 0, len(b.busy))
		for line, tr := range b.busy {
			if line == tr.origin.Addr {
				lines = append(lines, line)
			}
		}
		slices.Sort(lines)
	}
	n := s.Count(len(lines))
	if s.Loading() {
		clear(b.busy)
	}
	for i := 0; i < n && s.Err() == nil; i++ {
		if !s.Loading() {
			b.busy[lines[i]].State(s)
			continue
		}
		tr := &trans{}
		tr.State(s)
		if _, dup := b.busy[tr.origin.Addr]; dup && s.Err() == nil {
			s.Corrupt("duplicate transaction for line %#x", tr.origin.Addr)
		}
		b.busy[tr.origin.Addr] = tr
		if tr.state == tWaitRecall {
			b.busy[tr.victim] = tr
		}
	}

	b.reqQ.State(s, (*Msg).State)
	b.inPipe.State(s, (*Msg).State)
	b.inbox.State(s, (*Msg).State)
	s.U64(&b.pktSeq)
}
