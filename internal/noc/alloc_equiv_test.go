package noc

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"nocout/internal/sim"
)

// preload puts f in input port p's VC as a flit that arrived at cycle 0.
func preload(r *Router, p int, f Flit) {
	ip := r.ins[p]
	ip.vcs[f.Pkt.Class].push(linkFlit{Flit: f})
	setBit(r.occ, ip.base+int(f.Pkt.Class))
	r.buffered++
}

// refAllocate is the full-scan switch allocator the event-driven one
// replaced, kept as the reference: it counts every due credit first, as
// the old tick did, then offers every (port, VC) pair in arbitration
// order, skipping VCs with no arrived flit, routing each front packet
// afresh and marking used ports in per-cycle masks. It reads and writes
// none of the derived state (occupancy set, route memo, last-grant
// stamps).
func refAllocate(r *Router, now sim.Cycle) {
	for _, op := range r.outs {
		op.settle(now)
	}
	if r.buffered == 0 {
		return
	}
	inUsed := make([]bool, len(r.ins))
	outUsed := make([]bool, len(r.outs))
	cands := r.prio
	if cands == nil {
		for i := range r.ins {
			for c := Class(0); c < NumClasses; c++ {
				cands = append(cands, Cand{Port: i, VC: c})
			}
		}
	}
	n := len(cands)
	if n == 0 {
		return
	}
	start := 0
	if r.prio == nil {
		start = int(((now-1)%sim.Cycle(n) + sim.Cycle(n)) % sim.Cycle(n))
	}
	for k, i := 0, start; k < n; k, i = k+1, i+1 {
		if i == n {
			i = 0
		}
		cd := cands[i]
		if inUsed[cd.Port] {
			continue
		}
		ip := r.ins[cd.Port]
		q := &ip.vcs[cd.VC]
		if !q.ready(now) {
			continue
		}
		f := q.front()
		out := r.route(f.Pkt)
		if out < 0 || out >= len(r.outs) || !r.outs[out].connected() {
			panic("reference allocator: invalid route")
		}
		if outUsed[out] {
			continue
		}
		op := r.outs[out]
		need := 1
		if own := op.owner[cd.VC]; own != nil {
			if own != f.Pkt {
				continue
			}
		} else {
			if !f.Head() {
				continue
			}
			if r.headRoom != nil {
				if n := r.headRoom(cd.Port, out, f.Pkt.Size); n > need {
					need = n
				}
			}
		}
		if op.credits[cd.VC] < need {
			continue
		}
		q.pop()
		r.buffered--
		op.credits[cd.VC]--
		if f.Head() {
			op.owner[cd.VC] = f.Pkt
			f.Pkt.hops++
		}
		if f.Tail() {
			op.owner[cd.VC] = nil
		}
		op.send(now, f)
		if ip.from != nil {
			ip.from.returnCredit(now, cd.VC)
		}
		r.flits++
		op.sent++
		inUsed[cd.Port] = true
		outUsed[out] = true
	}
}

// randRouter builds a router in a random mid-run state from seed: ports
// inputs of random capacity, a few outputs, a random per-destination
// route table, optionally a head-room policy and a static priority order,
// VCs holding runs of packets whose front may be a head or a body flit,
// output-VC owners that sometimes match a front packet, random credit
// counts, and on each output a pending returned credit that is usable at
// now, usable a cycle later, or absent. Every output writes into one
// shared eject ring, sink's, so the ring records grants in grant order,
// and every input returns credits to one shared upstream port, up, that
// stages them, so its staged list records returns in grant order. Two
// calls with one seed build identical states.
func randRouter(seed uint64, ports int, prio bool, now sim.Cycle) (r *Router, sink *NI, up *OutPort) {
	rng := sim.NewRNG(seed)
	r = NewRouter(0, "eq", 1, nil)
	for p := 0; p < ports; p++ {
		r.AddIn(fmt.Sprintf("in%d", p), 1+rng.Intn(4))
	}
	outs := 1 + rng.Intn(min(ports+1, 6))
	sink = &NI{ej: flitRing{buf: make([]linkFlit, 3*outs)}}
	up = &OutPort{name: "returns", staging: true}
	for o := 0; o < outs; o++ {
		op := r.outs[r.AddOut(fmt.Sprintf("out%d", o))]
		op.ni, op.delay = sink, 1
		for c := range op.credits {
			op.credits[c] = rng.Intn(4)
		}
		if k := rng.Intn(3); k > 0 {
			op.ret = creditReturn{due: now + sim.Cycle(k-1), vc: Class(rng.Intn(NumClasses))}
		}
	}
	for _, ip := range r.ins {
		ip.from = up
	}
	const dsts = 16
	table := make([]int, dsts)
	for d := range table {
		table[d] = rng.Intn(outs)
	}
	r.SetRoute(func(p *Packet) int { return table[p.Dst] })
	if rng.Bool(0.5) {
		room := make([]int, ports*outs)
		for i := range room {
			room[i] = rng.Intn(4)
		}
		r.SetHeadRoom(func(in, out, size int) int { return room[in*outs+out] + size%2 })
	}
	if prio {
		order := make([]Cand, 0, ports*NumClasses)
		for p := 0; p < ports; p++ {
			for c := Class(0); c < NumClasses; c++ {
				order = append(order, Cand{Port: p, VC: c})
			}
		}
		for i := len(order) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		r.SetPriority(order)
	}

	id := uint64(0)
	newPkt := func(vc Class) *Packet {
		id++
		return &Packet{ID: id, Class: vc, Dst: NodeID(rng.Intn(dsts)), Size: 1 + rng.Intn(5)}
	}
	for p, ip := range r.ins {
		for c := Class(0); c < NumClasses; c++ {
			if rng.Bool(0.6) {
				continue
			}
			pkt := newPkt(c)
			seq := rng.Intn(pkt.Size) // the front may be mid-packet
			for k := 1 + rng.Intn(ip.cap); k > 0; k-- {
				if seq == pkt.Size {
					pkt, seq = newPkt(c), 0
				}
				preload(r, p, Flit{Pkt: pkt, Seq: seq})
				seq++
			}
		}
	}
	for _, op := range r.outs {
		for c := range op.owner {
			switch rng.Intn(3) {
			case 0: // free
			case 1: // the front packet of a random input's VC, if any
				if q := &r.ins[rng.Intn(ports)].vcs[c]; q.n > 0 {
					op.owner[c] = q.front().Pkt
				}
			default: // a packet elsewhere, blocking the VC
				op.owner[c] = newPkt(Class(c))
			}
		}
	}
	// Let most mid-packet fronts own their route's output VC, so body
	// flits are grantable and compete with heads.
	for _, ip := range r.ins {
		for c := range ip.vcs {
			if q := &ip.vcs[c]; q.n > 0 && !q.front().Head() && rng.Bool(0.7) {
				f := q.front()
				r.outs[table[f.Pkt.Dst]].owner[c] = f.Pkt
			}
		}
	}
	return r, sink, up
}

// routerView is the observable state the two allocators must agree on.
type routerView struct {
	Grants   []string // flits in the shared eject ring, in grant order
	Returns  []Class  // credits returned upstream, in grant order
	Credits  [][NumClasses]int
	Owners   [][NumClasses]uint64
	VCs      []string
	Buffered int
	Flits    int64
	Sent     []int64
}

// view captures r's state at cycle now. Credits count a pending return
// due by now as held, since a grant at now would count exactly that.
func view(r *Router, sink *NI, up *OutPort, now sim.Cycle) routerView {
	v := routerView{Buffered: r.buffered, Flits: r.flits}
	for i := 0; i < sink.ej.n; i++ {
		f := sink.ej.nth(i)
		v.Grants = append(v.Grants, fmt.Sprintf("%d.%d", f.Pkt.ID, f.Seq))
	}
	for _, c := range up.stagedRet {
		v.Returns = append(v.Returns, c.vc)
	}
	for _, op := range r.outs {
		cr := op.credits
		if op.ret.due != 0 && op.ret.due <= now {
			cr[op.ret.vc]++
		}
		v.Credits = append(v.Credits, cr)
		var own [NumClasses]uint64
		for c, p := range op.owner {
			if p != nil {
				own[c] = p.ID
			}
		}
		v.Owners = append(v.Owners, own)
		v.Sent = append(v.Sent, op.sent)
	}
	for _, ip := range r.ins {
		var b strings.Builder
		for c := range ip.vcs {
			q := &ip.vcs[c]
			for i := 0; i < q.n; i++ {
				f := q.nth(i)
				fmt.Fprintf(&b, "%d.%d ", f.Pkt.ID, f.Seq)
			}
			b.WriteString("|")
		}
		v.VCs = append(v.VCs, b.String())
	}
	return v
}

// TestAllocatorMatchesFullScan is the equivalence property of the
// event-driven allocator: on random router states it must make the same
// grants in the same order as the full-scan reference, and leave the same
// credits, owners, VC contents and buffered count, over three consecutive
// cycles. Port counts put the end of the occupancy set inside, on and
// across 64-bit words; rotating routers are checked at every rotation
// start, static-priority routers at random cycles.
func TestAllocatorMatchesFullScan(t *testing.T) {
	seed, grants := uint64(0), 0
	check := func(ports int, prio bool, now sim.Cycle) {
		seed++
		ref, refSink, refUp := randRouter(seed, ports, prio, now)
		got, gotSink, gotUp := randRouter(seed, ports, prio, now)
		for at := now; at < now+3; at++ {
			refAllocate(ref, at)
			got.allocate(at)
			want, have := view(ref, refSink, refUp, at), view(got, gotSink, gotUp, at)
			if !reflect.DeepEqual(have, want) {
				t.Fatalf("%d ports, priority %v, seed %d, cycle %d (start %d):\n got  %+v\n want %+v",
					ports, prio, seed, at, (at-1)%sim.Cycle(ports*NumClasses), have, want)
			}
			for p, ip := range got.ins {
				for c := range ip.vcs {
					if hasBit(got.occ, p*NumClasses+c) != (ip.vcs[c].n > 0) {
						t.Fatalf("%d ports, seed %d, cycle %d: occupancy bit of input %d VC %d disagrees with its %d flits",
							ports, seed, at, p, c, ip.vcs[c].n)
					}
				}
			}
		}
		grants += gotSink.ej.n
	}
	for _, ports := range []int{1, 2, 5, 15, 21, 22, 43, 70} {
		n := ports * NumClasses
		for start := 0; start < n; start++ {
			for lap := sim.Cycle(0); lap < 2; lap++ {
				check(ports, false, sim.Cycle(start+1)+lap*sim.Cycle(n)*7)
			}
		}
		for k := 0; k < 40; k++ {
			check(ports, true, sim.Cycle(1+k*13))
		}
	}
	if grants < int(seed) {
		t.Fatalf("%d grants over %d states: the random states rarely grant", grants, seed)
	}
}
