package noc

import (
	"nocout/internal/ckpt"
	"nocout/internal/sim"
)

// Checkpoint serialization of the router network. Topology, wiring, and
// routing tables are structural; the state is every in-flight packet and
// flit, the VC buffers, credit counters, output-VC ownership, the NIs'
// inject/eject progress, and the folded traffic counters.
//
// Packets are shared by reference (a flit is a pointer into its packet),
// so serialization builds a packet table in one fixed traversal order and
// encodes every reference as a table index; restore rebuilds the table
// and re-links the same sharing structure. Payloads are opaque here (the
// protocol layer sits above noc), so callers supply the payload codec.
//
// Pipe ownership: every flit pipe is serialized at its consumer (router
// input ports and NI eject sides) and every credit pipe at its consumer
// (router output ports and NI inject sides), so each shared pipe is
// written exactly once.

// PayloadEnc encodes one packet payload.
type PayloadEnc func(e *ckpt.Enc, payload any)

// PayloadDec decodes one packet payload.
type PayloadDec func(d *ckpt.Dec) any

// EncodePacket serializes one packet record: identity, transfer progress,
// and payload. Shared by the router network's packet table and by other
// Network implementations (topo.Ideal) that hold packets in flight.
func EncodePacket(e *ckpt.Enc, p *Packet, put PayloadEnc) {
	e.U64(p.ID)
	e.U64(uint64(p.Class))
	e.Int(int(p.Src))
	e.Int(int(p.Dst))
	e.Int(p.Size)
	e.I64(int64(p.InjectedAt))
	e.Int(p.hops)
	e.Int(p.arrived)
	put(e, p.Payload)
}

// DecodePacket is the inverse of EncodePacket; numNodes bounds the valid
// Src/Dst range so a corrupt record cannot index outside the fabric.
func DecodePacket(d *ckpt.Dec, numNodes int, get PayloadDec) *Packet {
	p := &Packet{
		ID:    d.U64(),
		Class: Class(d.U64()),
	}
	p.Src = NodeID(d.Int())
	p.Dst = NodeID(d.Int())
	p.Size = d.Int()
	p.InjectedAt = sim.Cycle(d.I64())
	p.hops = d.Int()
	p.arrived = d.Int()
	if d.Err() != nil {
		return nil
	}
	if p.Class >= NumClasses || p.Size < 1 ||
		p.Src < 0 || int(p.Src) >= numNodes || p.Dst < 0 || int(p.Dst) >= numNodes {
		d.Corrupt("invalid packet record (class %d, size %d, %d->%d)", p.Class, p.Size, p.Src, p.Dst)
		return nil
	}
	p.Payload = get(d)
	return p
}

type pktTable struct {
	idx  map[*Packet]int
	pkts []*Packet
}

func (t *pktTable) add(p *Packet) {
	if _, ok := t.idx[p]; !ok {
		t.idx[p] = len(t.pkts)
		t.pkts = append(t.pkts, p)
	}
}

func (t *pktTable) ref(e *ckpt.Enc, p *Packet) { e.U64(uint64(t.idx[p])) }

func (t *pktTable) deref(d *ckpt.Dec) *Packet {
	i := d.U64()
	if i >= uint64(len(t.pkts)) {
		d.Corrupt("packet index %d out of range (%d packets)", i, len(t.pkts))
		return nil
	}
	return t.pkts[i]
}

func (t *pktTable) putFlit(e *ckpt.Enc, f Flit) {
	t.ref(e, f.Pkt)
	e.Int(f.Seq)
}

func (t *pktTable) getFlit(d *ckpt.Dec) Flit {
	p := t.deref(d)
	seq := d.Int()
	if p != nil && (seq < 0 || seq >= p.Size) {
		d.Corrupt("flit seq %d out of range for %d-flit packet", seq, p.Size)
	}
	return Flit{Pkt: p, Seq: seq}
}

func putCredit(e *ckpt.Enc, c Credit) { e.U64(uint64(c.VC)) }

func getCredit(d *ckpt.Dec) Credit {
	vc := d.U64()
	if vc >= NumClasses {
		d.Corrupt("credit VC %d out of range", vc)
	}
	return Credit{VC: Class(vc)}
}

// forEachPacket walks every live packet reference in the fixed traversal
// order the codec relies on.
func (rn *RouterNetwork) forEachPacket(visit func(p *Packet)) {
	for _, ni := range rn.NIs {
		if ni == nil {
			continue
		}
		for c := range ni.injectQ {
			ni.injectQ[c].Each(func(p *Packet) { visit(p) })
		}
		if ni.eject != nil {
			ni.eject.Each(func(_ sim.Cycle, f Flit) { visit(f.Pkt) })
		}
	}
	for _, r := range rn.Routers {
		for _, ip := range r.ins {
			for c := range ip.vcs {
				q := &ip.vcs[c]
				for i := 0; i < q.n; i++ {
					visit(q.buf[(q.head+i)%len(q.buf)].Pkt)
				}
			}
			if ip.in != nil {
				ip.in.Each(func(_ sim.Cycle, f Flit) { visit(f.Pkt) })
			}
		}
		for _, op := range r.outs {
			for c := range op.owner {
				if op.owner[c] != nil {
					visit(op.owner[c])
				}
			}
		}
	}
}

// SaveState implements the network's side of ckpt.Saver; put encodes each
// packet's payload. The network's local accounting is folded into the
// shared Stats first, so per-router/per-port deltas are zero at the
// snapshot and only the folded totals travel.
func (rn *RouterNetwork) SaveState(e *ckpt.Enc, put PayloadEnc) {
	rn.fold()
	t := &pktTable{idx: make(map[*Packet]int)}
	rn.forEachPacket(t.add)

	e.U64(uint64(len(t.pkts)))
	for _, p := range t.pkts {
		EncodePacket(e, p, put)
	}

	for _, ni := range rn.NIs {
		if ni == nil {
			continue
		}
		for c := range ni.injectQ {
			ni.injectQ[c].SaveState(e, func(e *ckpt.Enc, p *Packet) { t.ref(e, p) })
			e.Int(ni.nextSeq[c])
		}
		e.Int(ni.rr)
		for c := range ni.out.credits {
			e.Int(ni.out.credits[c])
		}
		if ni.out.creditIn != nil {
			ni.out.creditIn.SaveState(e, putCredit)
		}
		if ni.eject != nil {
			ni.eject.SaveState(e, t.putFlit)
		}
	}

	for _, r := range rn.Routers {
		e.I64(r.flits)
		for _, ip := range r.ins {
			for c := range ip.vcs {
				q := &ip.vcs[c]
				e.U64(uint64(q.n))
				for i := 0; i < q.n; i++ {
					t.putFlit(e, q.buf[(q.head+i)%len(q.buf)])
				}
			}
			if ip.in != nil {
				ip.in.SaveState(e, t.putFlit)
			}
		}
		for _, op := range r.outs {
			for c := range op.credits {
				e.Int(op.credits[c])
			}
			for c := range op.owner {
				if op.owner[c] == nil {
					e.Bool(false)
				} else {
					e.Bool(true)
					t.ref(e, op.owner[c])
				}
			}
			e.I64(op.sent)
			if op.creditIn != nil {
				op.creditIn.SaveState(e, putCredit)
			}
		}
	}

	s := &rn.stats
	e.I64(s.Injected)
	e.I64(s.Delivered)
	for c := 0; c < NumClasses; c++ {
		e.I64(s.LatencySum[c])
		e.I64(s.Count[c])
	}
	e.I64(s.FlitHops)
	e.F64(s.FlitLinkMM)
	e.I64(s.PacketHops)
	e.I64(s.InjectFlits)
}

// LoadState is the inverse of SaveState; get decodes each payload. The
// network must be built with the donor's topology. Each router's derived
// state — its buffered count, occupancy and due sets and last-grant
// stamps — is rebuilt from the restored buffers and pipes.
func (rn *RouterNetwork) LoadState(d *ckpt.Dec, get PayloadDec) {
	n := d.Count()
	if d.Err() != nil {
		return
	}
	t := &pktTable{idx: make(map[*Packet]int), pkts: make([]*Packet, 0, n)}
	for i := 0; i < n && d.Err() == nil; i++ {
		p := DecodePacket(d, len(rn.NIs), get)
		if p == nil {
			return
		}
		t.pkts = append(t.pkts, p)
	}
	if d.Err() != nil {
		return
	}

	for _, ni := range rn.NIs {
		if ni == nil {
			continue
		}
		for c := range ni.injectQ {
			ni.injectQ[c].LoadState(d, func(d *ckpt.Dec) *Packet { return t.deref(d) })
			ni.nextSeq[c] = d.Int()
		}
		ni.rr = d.Int()
		for c := range ni.out.credits {
			ni.out.credits[c] = d.Int()
		}
		if ni.out.creditIn != nil {
			ni.out.creditIn.LoadState(d, getCredit)
		}
		if ni.eject != nil {
			ni.eject.LoadState(d, t.getFlit)
		}
		if d.Err() != nil {
			return
		}
	}

	for _, r := range rn.Routers {
		r.flits = d.I64()
		r.flitsFolded = r.flits
		for _, ip := range r.ins {
			for c := range ip.vcs {
				q := &ip.vcs[c]
				cnt := d.Count()
				if d.Err() != nil {
					return
				}
				if cnt > len(q.buf) {
					d.Corrupt("VC occupancy %d exceeds buffer capacity %d", cnt, len(q.buf))
					return
				}
				q.head = 0
				q.n = cnt
				for i := range q.buf {
					q.buf[i] = Flit{}
				}
				for i := 0; i < cnt; i++ {
					q.buf[i] = t.getFlit(d)
				}
			}
			if ip.in != nil {
				ip.in.LoadState(d, t.getFlit)
			}
		}
		for _, op := range r.outs {
			for c := range op.credits {
				op.credits[c] = d.Int()
			}
			for c := range op.owner {
				if d.Bool() {
					op.owner[c] = t.deref(d)
				} else {
					op.owner[c] = nil
				}
			}
			op.sent = d.I64()
			op.sentFolded = op.sent
			if op.creditIn != nil {
				op.creditIn.LoadState(d, getCredit)
			}
		}
		if d.Err() != nil {
			return
		}
		r.resync()
	}

	s := &rn.stats
	s.Injected = d.I64()
	s.Delivered = d.I64()
	for c := 0; c < NumClasses; c++ {
		s.LatencySum[c] = d.I64()
		s.Count[c] = d.I64()
	}
	s.FlitHops = d.I64()
	s.FlitLinkMM = d.F64()
	s.PacketHops = d.I64()
	s.InjectFlits = d.I64()
}
