package noc

import (
	"errors"
	"fmt"

	"nocout/internal/sim"
)

// NI is a network interface: the boundary between a protocol agent (core,
// LLC bank, memory controller) and the network. It serializes packets into
// flits on the inject side (one flit per cycle through the local port,
// credit-gated) and reassembles flits into packets on the eject side, and
// counts its own injections and deliveries.
type NI struct {
	Node NodeID

	injectQ [NumClasses]sim.Queue[*Packet]
	nextSeq [NumClasses]int
	out     OutPort // local port into the router's local input

	// ej holds the flits the router's eject link has written, each
	// stamped with its arrival cycle; from is that link, and each flit
	// taken out returns its credit to it. The NI takes a flit the cycle
	// it arrives, so every flit in ej is still on the link.
	ej    flitRing
	from  *OutPort
	waker sim.Waker // engine wake handle every eject-link write raises

	deliver func(now sim.Cycle, p *Packet)
	rr      int

	// stats counts the packets and flits this NI injected and the packets
	// it delivered since the last ResetStats: only the NI writes it, so
	// NIs ticking in different domains share no counter.
	// RouterNetwork.Stats adds it in.
	stats Stats
}

// NewNI returns an unconnected network interface for node n.
func NewNI(n NodeID) *NI { return &NI{Node: n} }

// name names the NI in errors.
func (ni *NI) name() string { return fmt.Sprintf("ni%d", ni.Node) }

// SetDeliver registers the packet delivery callback.
func (ni *NI) SetDeliver(fn func(now sim.Cycle, p *Packet)) { ni.deliver = fn }

// ConnectNI wires an NI to its router: the NI's inject side feeds router
// input port in (injDelay cycles of wire), and router output port out feeds
// the NI's eject side (router pipeline + ejDelay cycles). ejectBuf is the
// eject-side buffering per VC the router sees as credits.
func ConnectNI(ni *NI, r *Router, in, out int, injDelay, ejDelay sim.Cycle, ejectBuf int) {
	ConnectNIInject(ni, r, in, injDelay)
	ConnectNIEject(ni, r, out, ejDelay, ejectBuf)
}

// ConnectNIInject wires only the NI's inject side into router input port in.
func ConnectNIInject(ni *NI, r *Router, in int, injDelay sim.Cycle) {
	ni.out.name = "inject"
	r.feed(in, &ni.out, injDelay)
}

// ConnectNIEject wires only the NI's eject side to router output port
// out. The NI's eject ring holds ejectBuf flits per class, the buffering
// the router's credits count.
func ConnectNIEject(ni *NI, r *Router, out int, ejDelay sim.Cycle, ejectBuf int) {
	if ejectBuf < 1 {
		ejectBuf = 1
	}
	delay := r.PipeDelay + ejDelay
	if delay < 1 || ni.from != nil {
		panic(fmt.Sprintf("noc: ni%d eject side: a link needs a delay of at least 1 cycle (got %d) and an NI no other link feeds", ni.Node, delay))
	}
	op := r.outs[out]
	op.wire(ejectBuf)
	op.ni, op.delay = ni, delay
	ni.from = op
	ni.ej.buf = make([]linkFlit, ejectBuf*NumClasses)
}

// arrive writes flit f into the eject ring and wakes the NI for its
// arrival.
func (ni *NI) arrive(f linkFlit) {
	if ni.ej.n == len(ni.ej.buf) {
		panic(fmt.Sprintf("noc: ni%d eject ring overflow (credit protocol violated)", ni.Node))
	}
	ni.ej.push(f)
	if ni.waker != nil {
		ni.waker.Wake(f.at)
	}
}

// Send enqueues a packet for injection. The inject queue is unbounded; real
// back-pressure comes from the protocol agents' MSHR limits.
func (ni *NI) Send(now sim.Cycle, p *Packet) {
	p.InjectedAt = now
	ni.stats.Injected++
	ni.injectQ[p.Class].Push(p)
}

// Pending returns the number of packets waiting or partially injected.
func (ni *NI) Pending() int {
	n := 0
	for c := range ni.injectQ {
		n += ni.injectQ[c].Len()
	}
	return n
}

// Tick delivers the flits ejected by now, returning their credits at
// once, then injects at most one flit. An inject-side return is counted
// only when a class waiting to inject has no credit left.
func (ni *NI) Tick(now sim.Cycle) {
	for ni.ej.ready(now) {
		f := ni.ej.front()
		ni.ej.pop()
		ni.from.returnCredit(now, f.Pkt.Class)
		p := f.Pkt
		p.arrived++
		if p.arrived == p.Size {
			p.DeliveredAt = now
			ni.stats.RecordDelivery(p)
			if ni.deliver == nil {
				panic(fmt.Sprintf("noc: node %d has no delivery callback", ni.Node))
			}
			ni.deliver(now, p)
		}
	}
	ni.inject(now)
}

// BindWaker implements sim.WakeBinder: the inject queues and the eject
// link become wake sources. Inject-side credit returns are not wake
// events for the same reason as the router's: they enable no work while
// the inject queues are empty, a non-empty inject queue keeps the NI
// awake, and inject counts them when it runs out.
func (ni *NI) BindWaker(w sim.Waker) {
	for c := range ni.injectQ {
		ni.injectQ[c].SetWaker(w)
	}
	ni.waker = w
}

// NextWake implements sim.Sleeper: awake every cycle while packets wait to
// inject (injection may be credit-gated, and returned credits wake no
// one), asleep until the next flit on the eject link arrives otherwise.
func (ni *NI) NextWake(now sim.Cycle) sim.Cycle {
	for c := range ni.injectQ {
		if ni.injectQ[c].Len() > 0 {
			return now + 1
		}
	}
	if ni.ej.n > 0 {
		return ni.ej.nth(0).at
	}
	return sim.NeverWake
}

// inject sends at most one flit through the local port, rotating across
// classes for fairness.
func (ni *NI) inject(now sim.Cycle) {
	if ni.out.down == nil {
		return
	}
	for k := 0; k < NumClasses; k++ {
		c := Class((ni.rr + k) % NumClasses)
		p, ok := ni.injectQ[c].Peek()
		if !ok {
			continue
		}
		if ni.out.credits[c] <= 0 {
			ni.out.settle(now)
			if ni.out.credits[c] <= 0 {
				continue
			}
		}
		seq := ni.nextSeq[c]
		ni.out.send(now, Flit{Pkt: p, Seq: seq})
		ni.out.credits[c]--
		ni.stats.InjectFlits++
		if seq == p.Size-1 {
			ni.injectQ[c].Pop()
			ni.nextSeq[c] = 0
		} else {
			ni.nextSeq[c] = seq + 1
		}
		ni.rr = (int(c) + 1) % NumClasses
		return
	}
}

// RouterNetwork is a generic network built from Routers and NIs; the
// concrete topologies (mesh, torus, flattened butterfly, crossbar,
// NOC-Out) are constructed by the topo package. Every traffic counter
// lives in the component that counts it — each router output's flit
// count, each NI's injections and deliveries — and Stats sums them on
// read, so no read or save changes one.
type RouterNetwork struct {
	Name    string
	Routers []*Router
	NIs     []*NI // indexed by NodeID; entries may be nil for internal nodes

	// loaded holds the NI counters' totals a checkpoint load carried in,
	// since a load restarts every NI's own counters at zero. Its FlitHops
	// and FlitLinkMM are zero: Stats derives those from the output counts.
	loaded Stats
}

// NewRouterNetwork returns an empty network shell with n NI slots.
func NewRouterNetwork(name string, n int) *RouterNetwork {
	return &RouterNetwork{Name: name, NIs: make([]*NI, n)}
}

// RN returns rn itself. The benchmark module's tracer finds a chip's
// routers by asserting interface{ RN() *RouterNetwork } on the chip's
// network, which is the only reason this method exists.
func (rn *RouterNetwork) RN() *RouterNetwork { return rn }

// Stats implements Network: the totals since the last ResetStats, summed
// in one fixed order from the counters where they are counted. Starting
// from the NI totals a load carried, it derives FlitHops and FlitLinkMM
// from the output counts in router and port order: every grant counts
// one flit at its output, so the float FlitLinkMM sum is a function of
// those counts alone, bit-identical across kernels, domain counts and
// saves. It then adds the NIs' integer counters, exact in any order.
func (rn *RouterNetwork) Stats() Stats {
	s := rn.loaded
	for _, r := range rn.Routers {
		for _, op := range r.outs {
			if op.sent != 0 {
				s.FlitHops += op.sent
				s.FlitLinkMM += op.lengthMM * float64(op.sent)
			}
		}
	}
	for _, ni := range rn.NIs {
		if ni == nil {
			continue
		}
		st := &ni.stats
		s.Injected += st.Injected
		s.Delivered += st.Delivered
		s.PacketHops += st.PacketHops
		s.InjectFlits += st.InjectFlits
		for c := 0; c < NumClasses; c++ {
			s.LatencySum[c] += st.LatencySum[c]
			s.Count[c] += st.Count[c]
		}
	}
	return s
}

// ResetStats implements Network: it zeroes every counter Stats sums.
func (rn *RouterNetwork) ResetStats() {
	for _, r := range rn.Routers {
		for _, op := range r.outs {
			op.sent = 0
		}
	}
	for _, ni := range rn.NIs {
		if ni != nil {
			ni.stats = Stats{}
		}
	}
	rn.loaded = Stats{}
}

// Send implements Network.
func (rn *RouterNetwork) Send(now sim.Cycle, p *Packet) {
	ni := rn.NIs[p.Src]
	if ni == nil {
		panic(fmt.Sprintf("noc: %s: node %d has no NI", rn.Name, p.Src))
	}
	ni.Send(now, p)
}

// SetDeliver implements Network.
func (rn *RouterNetwork) SetDeliver(n NodeID, fn func(now sim.Cycle, p *Packet)) {
	if rn.NIs[n] == nil {
		panic(fmt.Sprintf("noc: %s: node %d has no NI", rn.Name, n))
	}
	rn.NIs[n].SetDeliver(fn)
}

// Tick advances all routers then all NIs by one cycle. Every link
// delivers at least a cycle after its send, so the relative order is
// immaterial.
func (rn *RouterNetwork) Tick(now sim.Cycle) {
	for _, r := range rn.Routers {
		r.Tick(now)
	}
	for _, ni := range rn.NIs {
		if ni != nil {
			ni.Tick(now)
		}
	}
}

// ErrCreditConservation is wrapped by CheckCredits when a link's credits
// do not add up to its downstream buffering.
var ErrCreditConservation = errors.New("noc: credit conservation violated")

// CheckCredits verifies credit conservation on every wired link, router to
// router and at both NI ends: for each output and VC, the credits the
// sender holds, plus the credits returning — the pending return and any
// a cross-domain link stages — plus the flits downstream or on the link
// — in the downstream VC or NI eject ring, arrived or not, or staged on a
// cross-domain link — must equal the downstream buffer capacity, and the
// sender's credits must not fall below zero. A lost or double-counted
// credit breaks the sum within a cycle. A negative count balanced by one
// flit too many downstream keeps the sum but lets a class take another
// class's slot in an NI's shared eject ring. It must only run while no
// domain is stepping.
func (rn *RouterNetwork) CheckCredits() error {
	for _, r := range rn.Routers {
		for _, op := range r.outs {
			if err := op.checkCredits(); err != nil {
				return fmt.Errorf("%w: %s %v", ErrCreditConservation, r.Name, err)
			}
		}
	}
	for _, ni := range rn.NIs {
		if ni != nil {
			if err := ni.out.checkCredits(); err != nil {
				return fmt.Errorf("%w: %s %v", ErrCreditConservation, ni.name(), err)
			}
		}
	}
	return nil
}

// checkCredits checks one output's credit sum; CheckCredits names the
// output's owner, so a sum that holds formats nothing.
func (op *OutPort) checkCredits() error {
	if !op.connected() {
		return nil
	}
	var returning, down [NumClasses]int
	if op.ret.due != 0 {
		returning[op.ret.vc]++
	}
	for _, c := range op.stagedRet {
		returning[c.vc]++
	}
	if op.down != nil {
		for vc := range down {
			down[vc] = op.down.vcs[vc].n
		}
	} else {
		for q, i := &op.ni.ej, 0; i < q.n; i++ {
			down[q.nth(i).Pkt.Class]++
		}
	}
	for _, f := range op.staged {
		down[f.Pkt.Class]++
	}
	for vc := range op.credits {
		if sum := op.credits[vc] + returning[vc] + down[vc]; sum != op.downCap {
			return fmt.Errorf("output %s VC %v: credits %d + returning %d + downstream or on the link %d = %d, downstream capacity %d",
				op.name, Class(vc), op.credits[vc], returning[vc], down[vc], sum, op.downCap)
		}
		if op.credits[vc] < 0 {
			return fmt.Errorf("output %s VC %v: credits %d, below zero", op.name, Class(vc), op.credits[vc])
		}
	}
	return nil
}

// RegisterInto implements sim.Registrar: instead of ticking the whole
// network as one component, every router and NI registers individually (in
// the same order whole-network ticking uses, so results are unchanged) and
// becomes an independent sleeper — quiescent regions of the fabric drop
// out of the simulation loop entirely. The network must be fully built
// before registration: links wired afterwards would miss their wakers.
func (rn *RouterNetwork) RegisterInto(e *sim.Engine) {
	for _, r := range rn.Routers {
		e.Register(r)
	}
	for _, ni := range rn.NIs {
		if ni != nil {
			e.Register(ni)
		}
	}
}

var _ Network = (*RouterNetwork)(nil)
var _ sim.Registrar = (*RouterNetwork)(nil)
var _ sim.Sleeper = (*Router)(nil)
var _ sim.Sleeper = (*NI)(nil)
