package noc

import (
	"errors"
	"fmt"

	"nocout/internal/sim"
)

// NI is a network interface: the boundary between a protocol agent (core,
// LLC bank, memory controller) and the network. It serializes packets into
// flits on the inject side (one flit per cycle through the local port,
// credit-gated) and reassembles flits into packets on the eject side.
type NI struct {
	Node NodeID

	injectQ [NumClasses]sim.Queue[*Packet]
	nextSeq [NumClasses]int
	out     OutPort // local port into the router's local input

	eject       *sim.Pipe[Flit]
	ejectCredit *sim.Pipe[Credit]

	deliver func(now sim.Cycle, p *Packet)
	stats   *Stats
	rr      int
}

// NewNI returns an unconnected network interface for node n.
func NewNI(n NodeID, stats *Stats) *NI {
	return &NI{Node: n, stats: stats}
}

// SetDeliver registers the packet delivery callback.
func (ni *NI) SetDeliver(fn func(now sim.Cycle, p *Packet)) { ni.deliver = fn }

// SetStats retargets the NI's counter sink. The shard planner points every
// NI at its domain's private shard so concurrent domains never write one
// Stats struct; RouterNetwork.fold drains the shards back into the shared
// counters (integer adds, so the merge is exact in any order).
func (ni *NI) SetStats(s *Stats) { ni.stats = s }

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
	inj := sim.NewPipe[Flit](fmt.Sprintf("ni%d->%s", ni.Node, r.Name), injDelay)
	injCr := sim.NewPipe[Credit](fmt.Sprintf("%s->ni%d.credit", r.Name, ni.Node), 1)
	ni.out.name = "inject"
	ni.out.wire(inj, injCr, r.ins[in], r.ins[in].cap)
	r.feed(in, inj, injCr)
}

// ConnectNIEject wires only the NI's eject side to router output port out.
func ConnectNIEject(ni *NI, r *Router, out int, ejDelay sim.Cycle, ejectBuf int) {
	if ejectBuf < 1 {
		ejectBuf = 1
	}
	ej := sim.NewPipe[Flit](fmt.Sprintf("%s->ni%d", r.Name, ni.Node), r.PipeDelay+ejDelay)
	ejCr := sim.NewPipe[Credit](fmt.Sprintf("ni%d->%s.credit", ni.Node, r.Name), 1)
	r.outs[out].wire(ej, ejCr, nil, ejectBuf)
	ni.eject = ej
	ni.ejectCredit = ejCr
}

// Send enqueues a packet for injection. The inject queue is unbounded; real
// back-pressure comes from the protocol agents' MSHR limits.
func (ni *NI) Send(now sim.Cycle, p *Packet) {
	p.InjectedAt = now
	if ni.stats != nil {
		ni.stats.Injected++
	}
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
// once, then injects at most one flit. Inject-side credits are drained
// only when a class waiting to inject has none left.
func (ni *NI) Tick(now sim.Cycle) {
	if ni.eject != nil {
		for {
			f, ok := ni.eject.Pop(now)
			if !ok {
				break
			}
			ni.ejectCredit.Push(now, Credit{VC: f.Pkt.Class})
			p := f.Pkt
			p.arrived++
			if p.arrived == p.Size {
				p.DeliveredAt = now
				if ni.stats != nil {
					ni.stats.RecordDelivery(p)
				}
				if ni.deliver == nil {
					panic(fmt.Sprintf("noc: node %d has no delivery callback", ni.Node))
				}
				ni.deliver(now, p)
			}
		}
	}
	ni.inject(now)
}

// BindWaker implements sim.WakeBinder: the inject queues and the eject
// pipe become wake sources. Inject-side credit returns are not wake events
// for the same reason as the router's: they enable no work while the
// inject queues are empty, a non-empty inject queue keeps the NI awake,
// and inject drains them when it runs out. The NI must be fully connected
// before registration.
func (ni *NI) BindWaker(w sim.Waker) {
	for c := range ni.injectQ {
		ni.injectQ[c].SetWaker(w)
	}
	if ni.eject != nil {
		ni.eject.SetWaker(w)
	}
}

// NextWake implements sim.Sleeper: awake every cycle while packets wait to
// inject (injection may be credit-gated, and returned credits wake no
// one), asleep until the next in-flight ejecting flit otherwise.
func (ni *NI) NextWake(now sim.Cycle) sim.Cycle {
	for c := range ni.injectQ {
		if ni.injectQ[c].Len() > 0 {
			return now + 1
		}
	}
	if ni.eject != nil {
		if at, ok := ni.eject.NextAt(); ok {
			return at
		}
	}
	return sim.NeverWake
}

// inject sends at most one flit through the local port, rotating across
// classes for fairness.
func (ni *NI) inject(now sim.Cycle) {
	if ni.out.link == nil {
		return
	}
	for k := 0; k < NumClasses; k++ {
		c := Class((ni.rr + k) % NumClasses)
		p, ok := ni.injectQ[c].Peek()
		if !ok {
			continue
		}
		if ni.out.credits[c] <= 0 {
			ni.out.drainCredits(now)
			if ni.out.credits[c] <= 0 {
				continue
			}
		}
		seq := ni.nextSeq[c]
		ni.out.link.Push(now, Flit{Pkt: p, Seq: seq})
		ni.out.credits[c]--
		if ni.stats != nil {
			ni.stats.InjectFlits++
		}
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
// NOC-Out) are constructed by the topo package.
type RouterNetwork struct {
	Name    string
	Routers []*Router
	NIs     []*NI // indexed by NodeID; entries may be nil for internal nodes
	stats   Stats

	// shards are the per-domain NI counter sinks when the network is
	// sharded (see BuildShardPlan); empty for single-domain use, where
	// every NI writes rn.stats directly.
	shards []Stats
}

// NewRouterNetwork returns an empty network shell with n NI slots.
func NewRouterNetwork(name string, n int) *RouterNetwork {
	return &RouterNetwork{Name: name, NIs: make([]*NI, n)}
}

// StatsRef returns the shared counters for builders to hand to NIs.
func (rn *RouterNetwork) StatsRef() *Stats { return &rn.stats }

// RN returns rn itself. The benchmark module's tracer finds a chip's
// routers by asserting interface{ RN() *RouterNetwork } on the chip's
// network, which is the only reason this method exists.
func (rn *RouterNetwork) RN() *RouterNetwork { return rn }

// Stats implements Network. It folds the routers' (and, when sharded, the
// per-domain NI shards') local accounting into the shared counters first,
// so callers always see up-to-date totals; callers that reset the
// counters with *Stats() = Stats{} therefore discard exactly the activity
// up to this call.
func (rn *RouterNetwork) Stats() *Stats {
	rn.fold()
	return &rn.stats
}

// fold drains local accounting deltas into rn.stats: router flit/link
// counters in router order (the FlitLinkMM float accumulation order is
// fixed, so it is bit-identical across kernels and domain counts), then
// the per-domain NI shards in domain order (integer counters, exact).
// It must only run while no domain is stepping.
func (rn *RouterNetwork) fold() {
	for _, r := range rn.Routers {
		r.foldInto(&rn.stats)
	}
	for d := range rn.shards {
		sh := &rn.shards[d]
		rn.stats.Injected += sh.Injected
		rn.stats.Delivered += sh.Delivered
		rn.stats.PacketHops += sh.PacketHops
		rn.stats.InjectFlits += sh.InjectFlits
		for c := 0; c < NumClasses; c++ {
			rn.stats.LatencySum[c] += sh.LatencySum[c]
			rn.stats.Count[c] += sh.Count[c]
		}
		*sh = Stats{}
	}
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

// Tick advances all routers then all NIs by one cycle. Because every
// connection is a latched pipe, the relative order is immaterial.
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
// sender holds, plus the credits returning on the credit pipe, plus the
// flits buffered in the downstream VC (none at an NI's eject side, which
// consumes on arrival), plus the flits in flight on the link, must equal
// the downstream buffer capacity. A lost or double-counted credit breaks
// the sum within a cycle. It must only run while no domain is stepping.
func (rn *RouterNetwork) CheckCredits() error {
	for _, r := range rn.Routers {
		for _, op := range r.outs {
			if err := op.checkCredits(r.Name); err != nil {
				return err
			}
		}
	}
	for _, ni := range rn.NIs {
		if ni != nil {
			if err := ni.out.checkCredits(fmt.Sprintf("ni%d", ni.Node)); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkCredits checks one output's credit sum; sender names its owner.
func (op *OutPort) checkCredits(sender string) error {
	if op.link == nil {
		return nil
	}
	var returning, inFlight [NumClasses]int
	op.creditIn.Each(func(_ sim.Cycle, c Credit) { returning[c.VC]++ })
	op.link.Each(func(_ sim.Cycle, f Flit) { inFlight[f.Pkt.Class]++ })
	for vc := range op.credits {
		held := 0
		if op.down != nil {
			held = op.down.vcs[vc].len()
		}
		if sum := op.credits[vc] + returning[vc] + held + inFlight[vc]; sum != op.downCap {
			return fmt.Errorf("%w: %s output %s VC %v: credits %d + returning %d + buffered %d + in flight %d = %d, downstream capacity %d",
				ErrCreditConservation, sender, op.name, Class(vc), op.credits[vc], returning[vc], held, inFlight[vc], sum, op.downCap)
		}
	}
	return nil
}

// RegisterInto implements sim.Registrar: instead of ticking the whole
// network as one component, every router and NI registers individually (in
// the same order whole-network ticking uses, so results are unchanged) and
// becomes an independent sleeper — quiescent regions of the fabric drop
// out of the simulation loop entirely. The network must be fully built
// before registration: pipes wired afterwards would miss their wakers.
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
