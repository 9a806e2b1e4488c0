package noc

import (
	"nocout/internal/ckpt"
	"nocout/internal/sim"
)

// Checkpoint walk of the router network. Topology, wiring, and routing
// tables are structural; the state is every in-flight packet and flit,
// the VC buffers, credit counters, output-VC ownership, the NIs'
// inject/eject progress, and the folded traffic counters.
//
// Packets are shared by reference (a flit is a pointer into its packet),
// so serialization builds a packet table in one fixed traversal order and
// encodes every reference as a table index; restore rebuilds the table
// and re-links the same sharing structure. Payloads are opaque here (the
// protocol layer sits above noc), so callers supply the payload walk.
//
// Link ownership: every link's flits are walked at its consumer (router
// input ports and NI eject sides) and its credit returns at its producer
// (router output ports and NI inject sides), so each link is walked
// exactly once in each direction. Both directions walk as the pipes they
// replaced. A link's flits are its in-flight ones — those behind the
// arrived ones in the input's VCs, or every flit in an NI's eject ring,
// then any its OutPort stages — in send order with their arrival cycles.
// Its credits are the counts usable at the snapshot cycle, then, as pipe
// entries, the returns not yet usable: a pending return made at the
// snapshot cycle and any a cross-domain link stages.

// PayloadWalk walks one packet payload (*payload is nil while a load
// walks a fresh packet).
type PayloadWalk func(payload *any, s *ckpt.State)

// PacketState walks one packet record: identity, transfer progress, and
// payload. Loading allocates the packet into *pp; numNodes bounds the
// valid Src/Dst range so a corrupt record cannot index outside the
// fabric. Shared by the router network's packet table and by other
// Network implementations (topo.Ideal) that hold packets in flight.
func PacketState(pp **Packet, s *ckpt.State, numNodes int, payload PayloadWalk) {
	if s.Loading() {
		*pp = &Packet{}
	}
	p := *pp
	s.U64(&p.ID)
	ckpt.Uint(s, &p.Class, NumClasses-1)
	ckpt.Int(s, &p.Src)
	ckpt.Int(s, &p.Dst)
	ckpt.Int(s, &p.Size)
	ckpt.Int(s, &p.InjectedAt)
	ckpt.Int(s, &p.hops)
	ckpt.Int(s, &p.arrived)
	if s.Loading() && s.Err() == nil && (p.Size < 1 ||
		p.Src < 0 || int(p.Src) >= numNodes || p.Dst < 0 || int(p.Dst) >= numNodes) {
		s.Corrupt("invalid packet record (class %d, size %d, %d->%d)", p.Class, p.Size, p.Src, p.Dst)
		return
	}
	payload(&p.Payload, s)
}

// State walks the traffic counters.
func (st *Stats) State(s *ckpt.State) {
	ckpt.Int(s, &st.Injected)
	ckpt.Int(s, &st.Delivered)
	for c := 0; c < NumClasses; c++ {
		ckpt.Int(s, &st.LatencySum[c])
		ckpt.Int(s, &st.Count[c])
	}
	ckpt.Int(s, &st.FlitHops)
	s.F64(&st.FlitLinkMM)
	ckpt.Int(s, &st.PacketHops)
	ckpt.Int(s, &st.InjectFlits)
}

// pktTable numbers the network's live packets: a save builds it in the
// fixed traversal order of forEachPacket, a load decodes it, and every
// packet reference walks as its table index.
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

// ref walks a packet reference as its table index. A load's table has no
// index map, and the lookup in it reads 0.
func (t *pktTable) ref(p **Packet, s *ckpt.State) {
	i := uint64(t.idx[*p])
	s.U64(&i)
	if !s.Loading() {
		return
	}
	if i >= uint64(len(t.pkts)) {
		s.Corrupt("packet index %d out of range (%d packets)", i, len(t.pkts))
		return
	}
	*p = t.pkts[i]
}

func (t *pktTable) flit(f *Flit, s *ckpt.State) {
	t.ref(&f.Pkt, s)
	ckpt.Int(s, &f.Seq)
	if s.Loading() && f.Pkt != nil && (f.Seq < 0 || f.Seq >= f.Pkt.Size) {
		s.Corrupt("flit seq %d out of range for %d-flit packet", f.Seq, f.Pkt.Size)
	}
}

// forEachPacket walks every live packet reference at cycle now in the
// fixed traversal order the codec relies on.
func (rn *RouterNetwork) forEachPacket(now sim.Cycle, visit func(p *Packet)) {
	for _, ni := range rn.NIs {
		if ni == nil {
			continue
		}
		for c := range ni.injectQ {
			ni.injectQ[c].Each(func(p *Packet) { visit(p) })
		}
		if ni.from != nil {
			ni.from.eachInFlight(now, func(f *linkFlit) { visit(f.Pkt) })
		}
	}
	for _, r := range rn.Routers {
		for _, ip := range r.ins {
			for c := range ip.vcs {
				q := &ip.vcs[c]
				for i, a := 0, q.arrived(now); i < a; i++ {
					visit(q.nth(i).Pkt)
				}
			}
			if ip.from != nil {
				ip.from.eachInFlight(now, func(f *linkFlit) { visit(f.Pkt) })
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

// eachInFlight calls fn for every flit on the link at cycle now, in send
// order: those in the consumer behind the flits arrived by now — the
// input's VCs merged by arrival cycle, or the NI's eject ring — then the
// flits the link stages.
func (op *OutPort) eachInFlight(now sim.Cycle, fn func(f *linkFlit)) {
	if ip := op.down; ip != nil {
		var next [NumClasses]int
		for c := range ip.vcs {
			next[c] = ip.vcs[c].arrived(now)
		}
		for {
			var first *linkFlit
			vc := 0
			for c := range ip.vcs {
				if q := &ip.vcs[c]; next[c] < q.n && (first == nil || q.nth(next[c]).at < first.at) {
					first, vc = q.nth(next[c]), c
				}
			}
			if first == nil {
				break
			}
			fn(first)
			next[vc]++
		}
	} else {
		for q, i := &op.ni.ej, op.ni.ej.arrived(now); i < q.n; i++ {
			fn(q.nth(i))
		}
	}
	for i := range op.staged {
		fn(&op.staged[i])
	}
}

// linkState walks the link's flits as the pipe it replaced wrote them:
// the in-flight count, then each flit with its arrival cycle
// delta-encoded. A load checks what a save can write — each flit arrives
// after the snapshot cycle now, within the link's delay, after the flit
// sent before it, and into a ring with room — and writes the flits into
// the consumer, the ones a cross-domain link had staged included. The
// consumer's rings must hold only arrived flits when a load starts.
func (op *OutPort) linkState(s *ckpt.State, now sim.Cycle, t *pktTable) {
	prev := sim.Cycle(0)
	if !s.Loading() {
		n := 0
		op.eachInFlight(now, func(*linkFlit) { n++ })
		s.Count(n)
		op.eachInFlight(now, func(f *linkFlit) {
			ckpt.Delta(s, &f.at, &prev)
			t.flit(&f.Flit, s)
		})
		return
	}
	op.staged = nil
	last := now
	for n := s.Count(0); n > 0 && s.Err() == nil; n-- {
		var f linkFlit
		ckpt.Delta(s, &f.at, &prev)
		t.flit(&f.Flit, s)
		if s.Err() != nil {
			return
		}
		var q *flitRing
		if op.down != nil {
			q = &op.down.vcs[f.Pkt.Class]
		} else {
			q = &op.ni.ej
		}
		switch {
		case f.at <= now:
			s.Corrupt("%s: flit on the link arrives at cycle %d, not after the snapshot cycle %d", op.consumer(), f.at, now)
		case f.at > now+op.delay:
			s.Corrupt("%s: flit arrives at cycle %d, beyond its %d-cycle link from cycle %d", op.consumer(), f.at, op.delay, now)
		case f.at <= last:
			s.Corrupt("%s: flit arrives at cycle %d, not after the flit sent before it (cycle %d)", op.consumer(), f.at, last)
		case q.n == len(q.buf) && op.down != nil:
			s.Corrupt("%s: VC %v holds more than its %d flits", op.consumer(), f.Pkt.Class, len(q.buf))
		case q.n == len(q.buf):
			s.Corrupt("%s: eject ring holds more than its %d flits", op.consumer(), len(q.buf))
		default:
			q.push(f)
			last = f.at
		}
	}
}

// consumer names the link's consumer for a load error.
func (op *OutPort) consumer() string {
	if op.down != nil {
		return op.down.r.Name + " input " + op.down.name
	}
	return op.ni.name() + " eject side"
}

// creditsState walks the port's credit counters. A save writes each VC's
// credits usable at the snapshot cycle now, the pending return counted
// if it is due, and leaves the port as it is.
func (op *OutPort) creditsState(s *ckpt.State, now sim.Cycle) {
	for c := range op.credits {
		n := op.credits[c]
		if r := op.ret; r.due != 0 && r.due <= now && r.vc == Class(c) {
			n++
		}
		ckpt.Int(s, &n)
		if s.Loading() {
			op.credits[c] = n
		}
	}
}

// returnsState walks the credits returned to the port and not yet usable
// at the snapshot cycle now as the one-cycle credit pipe they replaced:
// the count, then each return's due cycle, delta-encoded, and VC. A save
// writes the pending return if it was made at now, then the returns a
// cross-domain link stages. A load counts a return due by now, as the
// pipe's next drain would have, and takes one due at now+1 as pending; a
// pipe delivers a return one cycle after it is made, at most one per
// cycle, so a load fails on a return due later or on a second one due
// at now+1.
func (op *OutPort) returnsState(s *ckpt.State, now sim.Cycle, owner func() string) {
	prev := sim.Cycle(0)
	walk := func(c *creditReturn) {
		ckpt.Delta(s, &c.due, &prev)
		ckpt.Uint(s, &c.vc, NumClasses-1)
	}
	if !s.Loading() {
		pending := op.ret.due > now
		n := len(op.stagedRet)
		if pending {
			n++
		}
		s.Count(n)
		if pending {
			r := op.ret
			walk(&r)
		}
		for _, r := range op.stagedRet {
			walk(&r)
		}
		return
	}
	op.ret, op.stagedRet = creditReturn{}, nil
	for n := s.Count(0); n > 0 && s.Err() == nil; n-- {
		var r creditReturn
		walk(&r)
		switch {
		case s.Err() != nil:
		case r.due <= now:
			op.credits[r.vc]++
		case r.due > now+1:
			s.Corrupt("%s output %s: credit returned for cycle %d, more than one cycle after the snapshot cycle %d", owner(), op.name, r.due, now)
		case op.ret.due != 0:
			s.Corrupt("%s output %s: two credits returned for cycle %d", owner(), op.name, r.due)
		default:
			op.ret = r
		}
	}
}

// State walks the network's in-flight state; payload walks each
// packet's payload. now is the snapshot cycle: a save writes the flits
// that have arrived by it as buffered and the rest as on their links,
// and the credits usable by it as counted and the rest as returning, and
// a load checks each link's flits and credit returns against it. A save
// first folds the network's local accounting into the shared Stats, so
// per-router and per-port deltas are zero at the snapshot and only the
// folded totals travel; it changes nothing else. A load needs
// the network built with the donor's topology; each router's derived
// state — its buffered count, occupancy set, arrival calendar and
// last-grant stamps — is rebuilt from the restored VCs, and a load whose
// credit sums break conservation (CheckCredits) fails.
func (rn *RouterNetwork) State(s *ckpt.State, now sim.Cycle, payload PayloadWalk) {
	t := &pktTable{}
	if !s.Loading() {
		rn.fold()
		t.idx = make(map[*Packet]int)
		rn.forEachPacket(now, t.add)
	}
	n := s.Count(len(t.pkts))
	if s.Loading() {
		t.pkts = make([]*Packet, n)
	}
	for i := 0; i < n && s.Err() == nil; i++ {
		PacketState(&t.pkts[i], s, len(rn.NIs), payload)
	}

	for _, ni := range rn.NIs {
		if ni == nil || s.Err() != nil {
			continue
		}
		for c := range ni.injectQ {
			ni.injectQ[c].State(s, t.ref)
			ckpt.Int(s, &ni.nextSeq[c])
		}
		ckpt.Int(s, &ni.rr)
		ni.out.creditsState(s, now)
		if ni.out.connected() {
			ni.out.returnsState(s, now, ni.name)
		}
		if ni.from != nil {
			if s.Loading() {
				q := &ni.ej
				clear(q.buf)
				q.head, q.n = 0, 0
			}
			ni.from.linkState(s, now, t)
		}
	}

	for _, r := range rn.Routers {
		if s.Err() != nil {
			return
		}
		ckpt.Int(s, &r.flits)
		r.flitsFolded = r.flits
		for _, ip := range r.ins {
			for c := range ip.vcs {
				q := &ip.vcs[c]
				cnt := s.Count(q.arrived(now))
				if s.Loading() {
					if cnt > len(q.buf) {
						s.Corrupt("VC occupancy %d exceeds buffer capacity %d", cnt, len(q.buf))
						return
					}
					q.head, q.n = 0, cnt
					clear(q.buf) // the arrived flits' cycles read 0, before now
				}
				for i := 0; i < cnt; i++ {
					t.flit(&q.nth(i).Flit, s)
				}
			}
			if ip.from != nil {
				ip.from.linkState(s, now, t)
			}
			for c := range ip.vcs {
				if s.Loading() && r.prio != nil && ip.vcs[c].n > 0 && !hasBit(r.covered, ip.base+c) {
					s.Corrupt("%s input %s: VC %v holds flits its static priority order never grants", r.Name, ip.name, Class(c))
				}
			}
		}
		for _, op := range r.outs {
			op.creditsState(s, now)
			for c := range op.owner {
				owned := op.owner[c] != nil
				s.Bool(&owned)
				if owned {
					t.ref(&op.owner[c], s)
				} else {
					op.owner[c] = nil
				}
			}
			ckpt.Int(s, &op.sent)
			op.sentFolded = op.sent
			if op.connected() {
				op.returnsState(s, now, func() string { return r.Name })
			}
		}
		if s.Loading() && s.Err() == nil {
			r.resync(now)
		}
	}
	if s.Err() == nil {
		rn.stats.State(s)
	}
	// Each field may be in range while the credits of a link still let it
	// send more flits than its downstream VC holds.
	if s.Loading() && s.Err() == nil {
		if err := rn.CheckCredits(); err != nil {
			s.Corrupt("%w", err)
		}
	}
}
