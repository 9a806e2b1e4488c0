package noc

import (
	"fmt"

	"nocout/internal/sim"
)

// RouteFunc selects the output-port index a packet should take from a
// router. It must be a pure function of the packet's destination.
type RouteFunc func(p *Packet) int

// HeadRoomFunc returns the minimum downstream credits a head flit needs to
// claim output port out from input port in for a packet of the given size
// (flits). Values below 1 mean the default of 1. Ring topologies use this
// for bubble flow control: a packet continuing within a ring advances only
// when the whole packet fits downstream (virtual cut-through), and a packet
// entering a ring must additionally leave a maximum-packet bubble, so the
// ring's channel-dependency cycle can never fill up and deadlock.
type HeadRoomFunc func(in, out, size int) int

// Cand names one (input port, virtual channel) pair; used to express static
// arbitration priorities for NOC-Out tree nodes (§4.1: network responses >
// local responses > network requests > local requests).
type Cand struct {
	Port int
	VC   Class
}

// Router is a wormhole virtual-channel router with credit-based flow
// control. Its per-hop latency contribution is PipeDelay cycles, added to
// the downstream link's delay at Connect time; throughput is one flit per
// cycle per port.
//
// The same type models all router flavours in the paper:
//   - mesh routers: 5 in / 5 out, 2-cycle speculative pipeline
//   - flattened-butterfly routers: 15 in / 15 out, 3-cycle pipeline
//   - NOC-Out LLC routers: 3-cycle pipeline with extra tree ports
//   - reduction/dispersion tree nodes: 2 in / 1 out (or 1 in / 2 out),
//     zero-cycle pipeline with 1-cycle links and static priority
type Router struct {
	ID        NodeID
	Name      string
	PipeDelay sim.Cycle

	ins      []*InPort
	outs     []*OutPort
	route    RouteFunc
	prio     []Cand // static arbitration order; nil means round-robin
	allCands []Cand // cached round-robin candidate cross product
	numVCs   int    // implemented VCs (area accounting); 0 = NumClasses
	flits    int64  // flits routed through this router (energy accounting)
	buffered int    // flits held in input VCs: enqueue adds, a grant removes, LoadState recounts
	headRoom HeadRoomFunc

	// flitsFolded marks how much of flits has been drained into the
	// network-wide Stats; see RouterNetwork.fold. Hot-path accounting is
	// strictly router-local (no shared counters), so domains can tick
	// routers concurrently without contention or ordering sensitivity.
	flitsFolded int64

	inUsed, outUsed []bool // per-cycle allocation scratch, sized to the radix
}

// NewRouter returns a router with no ports. Ports are added with AddIn /
// AddOut and wired with Connect / ConnectNI.
func NewRouter(id NodeID, name string, pipeDelay sim.Cycle, route RouteFunc) *Router {
	return &Router{ID: id, Name: name, PipeDelay: pipeDelay, route: route}
}

// SetPriority installs a static arbitration order (highest first) covering
// every (port, class) pair that can hold traffic. Pairs not listed never win
// arbitration, so the list must be exhaustive for the router's traffic.
func (r *Router) SetPriority(order []Cand) { r.prio = order }

// SetRoute replaces the routing function (used by builders that need the
// router allocated before the topology-wide tables exist).
func (r *Router) SetRoute(f RouteFunc) { r.route = f }

// SetHeadRoom installs a head-flit credit-threshold policy (see
// HeadRoomFunc). Body flits are unaffected: once a head wins its output VC
// the packet's remaining credits are reserved by VC ownership.
func (r *Router) SetHeadRoom(f HeadRoomFunc) { r.headRoom = f }

// SetOutLength records the physical length of output link out for the area
// (repeaters) and energy (fJ/bit/mm) models, for links wired through
// ConnectNI which carries no length (the crossbar's die-spanning spokes).
func (r *Router) SetOutLength(out int, lengthMM float64) {
	r.outs[out].lengthMM = lengthMM
}

// NumIn returns the number of input ports.
func (r *Router) NumIn() int { return len(r.ins) }

// NumOut returns the number of output ports.
func (r *Router) NumOut() int { return len(r.outs) }

// InPort is a router input with one FIFO buffer per virtual channel.
type InPort struct {
	name      string
	cap       int // flits per VC
	vcs       [NumClasses]flitRing
	in        *sim.Pipe[Flit]
	creditOut *sim.Pipe[Credit]

	// outPort caches the validated output port of the packet at the front
	// of each VC (-1 until it is routed). Routing is a pure function of
	// the packet, so it is computed once per packet and forgotten when
	// the packet's tail is granted.
	outPort [NumClasses]int
}

// flitRing is a fixed-capacity flit FIFO. The credit protocol bounds VC
// occupancy at the port capacity, so the buffer is allocated once (at
// wiring) and reused forever. The former slice queue — append at the
// tail, reslice the head away on dequeue — abandoned its backing array
// as it advanced and reallocated continually on the switch-traversal hot
// path, the chip's densest per-cycle loop.
type flitRing struct {
	buf  []Flit
	head int
	n    int
}

func (q *flitRing) len() int    { return q.n }
func (q *flitRing) front() Flit { return q.buf[q.head] }

func (q *flitRing) push(f Flit) {
	q.buf[(q.head+q.n)%len(q.buf)] = f
	q.n++
}

func (q *flitRing) pop() {
	q.buf[q.head] = Flit{} // drop the packet reference for GC
	q.head = (q.head + 1) % len(q.buf)
	q.n--
}

// OutPort is a router output: a link pipe plus downstream credit state.
type OutPort struct {
	name     string
	link     *sim.Pipe[Flit]
	creditIn *sim.Pipe[Credit]
	credits  [NumClasses]int
	owner    [NumClasses]*Packet
	lengthMM float64

	// sent counts flits pushed onto this link; sentFolded marks how much
	// has been drained into Stats.FlitLinkMM. Folding computes
	// lengthMM * Δsent in a fixed port order, so the floating-point sum is
	// a pure function of flit movement — identical across kernels — rather
	// than of the order concurrent routers would update a shared counter.
	sent, sentFolded int64
}

// AddIn appends an input port with the given per-VC buffer capacity and
// returns its index.
func (r *Router) AddIn(name string, capacity int) int {
	if capacity < 1 {
		panic("noc: input buffer capacity must be >= 1")
	}
	ip := &InPort{name: name, cap: capacity}
	for c := range ip.vcs {
		ip.vcs[c].buf = make([]Flit, capacity)
		ip.outPort[c] = -1
	}
	r.ins = append(r.ins, ip)
	return len(r.ins) - 1
}

// AddOut appends an output port and returns its index.
func (r *Router) AddOut(name string) int {
	r.outs = append(r.outs, &OutPort{name: name})
	return len(r.outs) - 1
}

// SetVCCount records how many virtual channels the router actually
// implements (the paper's tree nodes need only two, §4.1); it affects only
// the area accounting, not simulation behaviour.
func (r *Router) SetVCCount(n int) { r.numVCs = n }

// VCCount returns the implemented VC count (default: one per class).
func (r *Router) VCCount() int {
	if r.numVCs > 0 {
		return r.numVCs
	}
	return NumClasses
}

// BufferFlits returns the router's total input buffering in flits, used by
// the area model.
func (r *Router) BufferFlits() int {
	n := 0
	for _, in := range r.ins {
		n += in.cap * r.VCCount()
	}
	return n
}

// FlitsRouted returns the number of flits this router has switched, for
// per-router energy accounting.
func (r *Router) FlitsRouted() int64 { return r.flits }

// foldInto drains the router's hot-path accounting deltas into the
// network-wide counters. Only RouterNetwork.fold calls it, always in
// router order and never while the router is being ticked.
func (r *Router) foldInto(s *Stats) {
	s.FlitHops += r.flits - r.flitsFolded
	r.flitsFolded = r.flits
	for _, op := range r.outs {
		if d := op.sent - op.sentFolded; d != 0 {
			s.FlitLinkMM += op.lengthMM * float64(d)
			op.sentFolded = op.sent
		}
	}
}

// OutLinkLengthsMM returns the physical length of every connected output
// link, for the area (repeaters) and energy (wire fJ/bit/mm) models.
func (r *Router) OutLinkLengthsMM() []float64 {
	var out []float64
	for _, op := range r.outs {
		if op.link != nil {
			out = append(out, op.lengthMM)
		}
	}
	return out
}

// Connect wires output out of router a to input in of router b with the
// given link delay (cycles) and physical length (mm, for energy/area
// accounting). The flit pipe carries a.PipeDelay + linkDelay of latency;
// credits return upstream in one cycle.
func Connect(a *Router, out int, b *Router, in int, linkDelay sim.Cycle, lengthMM float64) {
	name := fmt.Sprintf("%s.%s->%s.%s", a.Name, a.outs[out].name, b.Name, b.ins[in].name)
	flits := sim.NewPipe[Flit](name, a.PipeDelay+linkDelay)
	credits := sim.NewPipe[Credit](name+".credit", 1)
	op, ip := a.outs[out], b.ins[in]
	op.link = flits
	op.creditIn = credits
	op.lengthMM = lengthMM
	for c := range op.credits {
		op.credits[c] = ip.cap
	}
	ip.in = flits
	ip.creditOut = credits
}

// Tick advances the router one cycle: drain returned credits, accept
// arriving flits, then perform switch allocation (one flit per input and per
// output per cycle, packet-atomic per output VC, credit-gated).
func (r *Router) Tick(now sim.Cycle) {
	for _, op := range r.outs {
		if op.creditIn == nil {
			continue
		}
		if at, ok := op.creditIn.NextAt(); !ok || at > now {
			continue // nothing due: skip the Pop loop
		}
		for {
			c, ok := op.creditIn.Pop(now)
			if !ok {
				break
			}
			op.credits[c.VC]++
		}
	}
	for _, ip := range r.ins {
		if ip.in == nil {
			continue
		}
		if at, ok := ip.in.NextAt(); !ok || at > now {
			continue
		}
		for {
			f, ok := ip.in.Pop(now)
			if !ok {
				break
			}
			r.enqueue(ip, f)
		}
	}
	r.allocate(now)
}

// enqueue buffers flit f in its class's VC at input ip.
func (r *Router) enqueue(ip *InPort, f Flit) {
	vc := f.Pkt.Class
	if ip.vcs[vc].len() >= ip.cap {
		panic(fmt.Sprintf("noc: %s input %s VC %v overflow (credit protocol violated)", r.Name, ip.name, vc))
	}
	ip.vcs[vc].push(f)
	r.buffered++
}

// BindWaker implements sim.WakeBinder: every input flit pipe becomes a wake
// source, so a quiescent router is re-armed the moment traffic is pushed
// toward it. Credit-return pipes are deliberately not wake sources: a
// returned credit enables no work on its own, and pending credits are
// drained in bulk at the start of the next flit-driven tick, giving the
// allocator exactly the credit view the naive kernel would have. All links
// must be connected before the router is registered with the engine.
func (r *Router) BindWaker(w sim.Waker) {
	for _, ip := range r.ins {
		if ip.in != nil {
			ip.in.SetWaker(w)
		}
	}
}

// NextWake implements sim.Sleeper. A router holding buffered flits must
// keep arbitrating every cycle (it may be credit-blocked, and the blocking
// credit arrives on a pipe it drains at tick start); an empty router sleeps
// until the earliest in-flight flit on any input link can arrive, and
// indefinitely (NeverWake) when its inputs are dry — the input pipes are
// its wake sources.
func (r *Router) NextWake(now sim.Cycle) sim.Cycle {
	if r.buffered > 0 {
		return now + 1
	}
	next := sim.NeverWake
	for _, ip := range r.ins {
		if ip.in != nil {
			if at, ok := ip.in.NextAt(); ok && at < next {
				next = at
			}
		}
	}
	return next
}

// allocate performs switch allocation for one cycle.
func (r *Router) allocate(now sim.Cycle) {
	if r.buffered == 0 {
		return
	}
	// The scratch masks are sized to the actual radix (the central
	// crossbar has a port per tile; a mesh router has at most 9).
	if len(r.inUsed) != len(r.ins) {
		r.inUsed = make([]bool, len(r.ins))
	} else {
		clear(r.inUsed)
	}
	if len(r.outUsed) != len(r.outs) {
		r.outUsed = make([]bool, len(r.outs))
	} else {
		clear(r.outUsed)
	}
	inUsed, outUsed := r.inUsed, r.outUsed
	cands := r.candidates()
	n := len(cands)
	if n == 0 {
		return
	}
	start := 0
	if r.prio == nil {
		// Rotating arbitration. The rotation is a pure function of the
		// clock (one position per cycle, first tick at cycle 1 starting at
		// 0), so a router that slept through idle cycles arbitrates exactly
		// as if it had been ticked every cycle — a stateful pointer would
		// diverge between the scheduled and naive kernels.
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
		if q.len() == 0 {
			continue
		}
		f := q.front()
		out := ip.outPort[cd.VC]
		if out < 0 {
			out = r.routeOf(f.Pkt)
			ip.outPort[cd.VC] = out
		}
		if outUsed[out] {
			continue
		}
		op := r.outs[out]
		// Packet atomicity: an output VC is owned by one packet from head
		// to tail.
		need := 1
		if own := op.owner[cd.VC]; own != nil {
			if own != f.Pkt {
				continue
			}
		} else {
			if !f.Head() {
				continue // only a head flit may claim a free VC
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
		// Grant.
		q.pop()
		r.buffered--
		op.credits[cd.VC]--
		if f.Head() {
			op.owner[cd.VC] = f.Pkt
			f.Pkt.hops++
		}
		if f.Tail() {
			op.owner[cd.VC] = nil
			ip.outPort[cd.VC] = -1
		}
		op.link.Push(now, f)
		if ip.creditOut != nil {
			ip.creditOut.Push(now, Credit{VC: cd.VC})
		}
		r.flits++
		op.sent++
		inUsed[cd.Port] = true
		outUsed[out] = true
	}
}

// routeOf returns packet p's output port, panicking on a route to a port
// that does not exist or is not connected.
func (r *Router) routeOf(p *Packet) int {
	out := r.route(p)
	if out < 0 || out >= len(r.outs) {
		panic(fmt.Sprintf("noc: %s route(%d->%d) = invalid port %d", r.Name, p.Src, p.Dst, out))
	}
	if r.outs[out].link == nil {
		panic(fmt.Sprintf("noc: %s output %s not connected", r.Name, r.outs[out].name))
	}
	return out
}

// candidates returns the arbitration order for this cycle: the static
// priority list if configured, otherwise every (port, VC) pair.
func (r *Router) candidates() []Cand {
	if r.prio != nil {
		return r.prio
	}
	// Build once and cache: the full cross product is static.
	if r.allCands == nil {
		for i := range r.ins {
			for c := Class(0); c < NumClasses; c++ {
				r.allCands = append(r.allCands, Cand{Port: i, VC: c})
			}
		}
	}
	return r.allCands
}
