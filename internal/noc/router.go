package noc

import (
	"fmt"
	"math/bits"

	"nocout/internal/sim"
)

// RouteFunc selects the output-port index a packet should take from a
// router. It must be a pure function of the packet's destination: the
// router routes each destination once and remembers the port.
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
//
// A tick costs the flits and credits it moves, not the router's radix:
// Tick visits only input ports with flits in flight (the due set),
// allocation walks only non-empty VCs (the occupancy set), credits are
// drained only when one decides a grant, and routes are looked up per
// destination.
type Router struct {
	ID        NodeID
	Name      string
	PipeDelay sim.Cycle

	ins      []*InPort
	outs     []*OutPort
	route    RouteFunc
	memo     []int32  // validated output port per destination; -1 until routed
	prio     []Cand   // static arbitration order; nil means round-robin
	covered  []uint64 // candidates prio lists, by index port*NumClasses+vc
	numVCs   int      // implemented VCs (area accounting); 0 = NumClasses
	flits    int64    // flits routed through this router (energy accounting)
	buffered int      // flits held in input VCs: enqueue adds, a grant removes, LoadState recounts
	headRoom HeadRoomFunc

	// due marks the input ports whose flit pipe holds a flit: the pipe's
	// dueMark sets the bit on every push and Tick clears it once the pipe
	// is empty. occ marks the non-empty input VCs by candidate index
	// port*NumClasses+vc: enqueue sets the bit and the grant that empties
	// the VC clears it. LoadState recomputes both.
	due, occ []uint64
	waker    sim.Waker // engine wake handle the dueMarks forward to

	// flitsFolded marks how much of flits has been drained into the
	// network-wide Stats; see RouterNetwork.fold. Hot-path accounting is
	// strictly router-local (no shared counters), so domains can tick
	// routers concurrently without contention or ordering sensitivity.
	flitsFolded int64

	// inUsed and outUsed hold the cycle of each port's last grant; a port
	// whose stamp is now has already moved its one flit this cycle.
	inUsed, outUsed []sim.Cycle
}

// NewRouter returns a router with no ports. Ports are added with AddIn /
// AddOut and wired with Connect / ConnectNI.
func NewRouter(id NodeID, name string, pipeDelay sim.Cycle, route RouteFunc) *Router {
	return &Router{ID: id, Name: name, PipeDelay: pipeDelay, route: route}
}

// SetPriority installs a static arbitration order (highest first) over the
// input ports added so far. Pairs not listed never win arbitration, so the
// list must cover every (port, class) pair that can hold traffic: a flit
// landing on an uncovered VC panics instead of wedging the router, and an
// entry naming a port that does not exist panics here.
func (r *Router) SetPriority(order []Cand) {
	covered := make([]uint64, words(len(r.ins)*NumClasses))
	for _, cd := range order {
		if cd.Port < 0 || cd.Port >= len(r.ins) || cd.VC >= NumClasses {
			panic(fmt.Sprintf("noc: %s priority entry (port %d, class %v) names no input VC of its %d ports", r.Name, cd.Port, cd.VC, len(r.ins)))
		}
		setBit(covered, cd.Port*NumClasses+int(cd.VC))
	}
	r.prio, r.covered = order, covered
}

// SetRoute replaces the routing function (used by builders that need the
// router allocated before the topology-wide tables exist) and forgets the
// routes already looked up.
func (r *Router) SetRoute(f RouteFunc) { r.route, r.memo = f, nil }

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

// push and pop wrap with a compare instead of a modulo: the ring never
// holds more than len(buf) flits, so an index overruns by less than one
// lap.
func (q *flitRing) push(f Flit) {
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = f
	q.n++
}

func (q *flitRing) pop() {
	q.buf[q.head] = Flit{} // drop the packet reference for GC
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
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

	// down is the router input the link feeds (nil for an NI's eject
	// side) and downCap its per-VC buffering, recorded at wiring for
	// CheckCredits.
	down    *InPort
	downCap int

	// sent counts flits pushed onto this link; sentFolded marks how much
	// has been drained into Stats.FlitLinkMM. Folding computes
	// lengthMM * Δsent in a fixed port order, so the floating-point sum is
	// a pure function of flit movement — identical across kernels — rather
	// than of the order concurrent routers would update a shared counter.
	sent, sentFolded int64
}

// wire records the downstream end of the port's link and starts it with
// a full buffer of credits per VC.
func (op *OutPort) wire(link *sim.Pipe[Flit], creditIn *sim.Pipe[Credit], down *InPort, capacity int) {
	op.link, op.creditIn, op.down, op.downCap = link, creditIn, down, capacity
	for c := range op.credits {
		op.credits[c] = capacity
	}
}

// drainCredits adds every credit returned by cycle now to the per-VC
// counts. Credits gate grants and wake nothing, so a port drains them only
// when a grant needs more than it holds: a drain at now sees exactly the
// due credits a drain at tick start would have seen.
func (op *OutPort) drainCredits(now sim.Cycle) {
	for {
		c, ok := op.creditIn.Pop(now)
		if !ok {
			return
		}
		op.credits[c.VC]++
	}
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
	}
	r.ins = append(r.ins, ip)
	r.inUsed = append(r.inUsed, 0)
	r.due = growBits(r.due, len(r.ins))
	r.occ = growBits(r.occ, len(r.ins)*NumClasses)
	return len(r.ins) - 1
}

// AddOut appends an output port and returns its index.
func (r *Router) AddOut(name string) int {
	r.outs = append(r.outs, &OutPort{name: name})
	r.outUsed = append(r.outUsed, 0)
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
	op := a.outs[out]
	op.wire(flits, credits, b.ins[in], b.ins[in].cap)
	op.lengthMM = lengthMM
	b.feed(in, flits, credits)
}

// feed makes flits the flit pipe of input port in, returning its credits
// on credits. The pipe's waker is the port's dueMark, installed here
// rather than in BindWaker so that a router ticked directly (a TickFunc,
// RouterNetwork.Tick) still sees arrivals.
func (r *Router) feed(in int, flits *sim.Pipe[Flit], credits *sim.Pipe[Credit]) {
	ip := r.ins[in]
	ip.in, ip.creditOut = flits, credits
	flits.SetWaker(dueMark{r: r, port: in})
}

// dueMark is the waker of a router input's flit pipe: it marks the port
// due, then forwards the wake to the router's engine, if it has one. A
// staged cross-domain pipe raises it from CommitStaged, which runs in the
// consuming router's domain.
type dueMark struct {
	r    *Router
	port int
}

// Wake implements sim.Waker.
func (m dueMark) Wake(at sim.Cycle) {
	setBit(m.r.due, m.port)
	if m.r.waker != nil {
		m.r.waker.Wake(at)
	}
}

// Tick advances the router one cycle: accept the flits arriving on due
// input ports, then perform switch allocation (one flit per input and per
// output per cycle, packet-atomic per output VC, credit-gated). Ports with
// no flit in flight are not visited, and returned credits stay in their
// pipes until a grant needs them.
func (r *Router) Tick(now sim.Cycle) {
	for w, word := range r.due {
		for word != 0 {
			p := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			in := r.ins[p].in
			if at, ok := in.NextAt(); ok && at <= now {
				for {
					f, ok := in.Pop(now)
					if !ok {
						break
					}
					r.enqueue(p, f)
				}
			}
			if in.Len() == 0 {
				clearBit(r.due, p)
			}
		}
	}
	r.allocate(now)
}

// enqueue buffers flit f in its class's VC at input port p.
func (r *Router) enqueue(p int, f Flit) {
	ip := r.ins[p]
	vc := f.Pkt.Class
	i := p*NumClasses + int(vc)
	if r.prio != nil && !hasBit(r.covered, i) {
		panic(fmt.Sprintf("noc: %s input %s class %v is missing from the static priority order, so its flits could never be granted", r.Name, ip.name, vc))
	}
	q := &ip.vcs[vc]
	if q.len() >= ip.cap {
		panic(fmt.Sprintf("noc: %s input %s VC %v overflow (credit protocol violated)", r.Name, ip.name, vc))
	}
	q.push(f)
	setBit(r.occ, i)
	r.buffered++
}

// BindWaker implements sim.WakeBinder: the dueMarks Connect installed on
// the input flit pipes forward to w, so a quiescent router is re-armed the
// moment traffic is pushed toward it. Credit-return pipes are deliberately
// not wake sources: a returned credit enables no work on its own, and a
// grant that needs credits drains them from the pipe on the spot. All
// links must be connected before the router is registered with the engine.
func (r *Router) BindWaker(w sim.Waker) { r.waker = w }

// NextWake implements sim.Sleeper. A router holding buffered flits must
// keep arbitrating every cycle (it may be credit-blocked, and the blocking
// credit arrives on a pipe that wakes no one); an empty router sleeps until
// the earliest in-flight flit on a due input port can arrive, and
// indefinitely (NeverWake) when no port is due — the input pipes' marks
// are its wake sources.
func (r *Router) NextWake(now sim.Cycle) sim.Cycle {
	if r.buffered > 0 {
		return now + 1
	}
	next := sim.NeverWake
	for w, word := range r.due {
		for word != 0 {
			p := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			if at, ok := r.ins[p].in.NextAt(); ok && at < next {
				next = at
			}
		}
	}
	return next
}

// allocate performs switch allocation for one cycle, offering each
// non-empty VC to try in arbitration order.
func (r *Router) allocate(now sim.Cycle) {
	if r.buffered == 0 {
		return
	}
	if r.prio != nil {
		for _, cd := range r.prio {
			if hasBit(r.occ, cd.Port*NumClasses+int(cd.VC)) {
				r.try(now, cd.Port, cd.VC)
			}
		}
		return
	}
	// Rotating arbitration over the candidates port*NumClasses+vc. The
	// rotation is a pure function of the clock (one position per cycle,
	// first tick at cycle 1 starting at 0), so a router that slept through
	// idle cycles arbitrates exactly as if it had been ticked every cycle
	// — a stateful pointer would diverge between the scheduled and naive
	// kernels. The walk visits the occupied candidates from start upward,
	// then wraps to those below it.
	n := sim.Cycle(len(r.ins) * NumClasses)
	start := int(((now-1)%n + n) % n)
	w0, below := start>>6, uint64(1)<<(start&63)-1
	r.tryWord(now, w0, r.occ[w0]&^below)
	for w := w0 + 1; w < len(r.occ); w++ {
		r.tryWord(now, w, r.occ[w])
	}
	for w := 0; w < w0; w++ {
		r.tryWord(now, w, r.occ[w])
	}
	r.tryWord(now, w0, r.occ[w0]&below)
}

// tryWord offers the candidates set in word, word w of the occupancy set,
// to try in ascending order.
func (r *Router) tryWord(now sim.Cycle, w int, word uint64) {
	for word != 0 {
		i := w<<6 | bits.TrailingZeros64(word)
		word &= word - 1
		r.try(now, i/NumClasses, Class(i%NumClasses))
	}
}

// try grants the front flit of input port p's non-empty VC vc if neither
// the input nor the flit's output has granted this cycle, the packet may
// use the output VC, and the downstream buffer has room.
func (r *Router) try(now sim.Cycle, p int, vc Class) {
	if r.inUsed[p] == now {
		return
	}
	ip := r.ins[p]
	q := &ip.vcs[vc]
	f := q.front()
	out := r.routeOf(f.Pkt)
	if r.outUsed[out] == now {
		return
	}
	op := r.outs[out]
	// Packet atomicity: an output VC is owned by one packet from head to
	// tail.
	need := 1
	if own := op.owner[vc]; own != nil {
		if own != f.Pkt {
			return
		}
	} else {
		if !f.Head() {
			return // only a head flit may claim a free VC
		}
		if r.headRoom != nil {
			if n := r.headRoom(p, out, f.Pkt.Size); n > need {
				need = n
			}
		}
	}
	if op.credits[vc] < need {
		op.drainCredits(now)
		if op.credits[vc] < need {
			return
		}
	}
	// Grant.
	q.pop()
	if q.len() == 0 {
		clearBit(r.occ, p*NumClasses+int(vc))
	}
	r.buffered--
	op.credits[vc]--
	if f.Head() {
		op.owner[vc] = f.Pkt
		f.Pkt.hops++
	}
	if f.Tail() {
		op.owner[vc] = nil
	}
	op.link.Push(now, f)
	if ip.creditOut != nil {
		ip.creditOut.Push(now, Credit{VC: vc})
	}
	r.flits++
	op.sent++
	r.inUsed[p] = now
	r.outUsed[out] = now
}

// routeOf returns packet p's output port, panicking on a route to a port
// that does not exist or is not connected. Routes are a pure function of
// the destination, so each destination is routed and validated once and
// its port remembered in memo.
func (r *Router) routeOf(p *Packet) int {
	d := int(p.Dst)
	if uint(d) < uint(len(r.memo)) {
		if out := r.memo[d]; out >= 0 {
			return int(out)
		}
	}
	out := r.route(p)
	if out < 0 || out >= len(r.outs) {
		panic(fmt.Sprintf("noc: %s route(%d->%d) = invalid port %d", r.Name, p.Src, p.Dst, out))
	}
	if r.outs[out].link == nil {
		panic(fmt.Sprintf("noc: %s output %s not connected", r.Name, r.outs[out].name))
	}
	if d >= len(r.memo) {
		// One allocation reaches d and at least doubles the memo, so
		// rising destinations regrow it only logarithmically often.
		m := make([]int32, max(d+1, 2*len(r.memo)))
		for i := copy(m, r.memo); i < len(m); i++ {
			m[i] = -1
		}
		r.memo = m
	}
	r.memo[d] = int32(out)
	return out
}

// resync rebuilds the bookkeeping a checkpoint does not carry from the
// restored VCs and pipes: the buffered count, the occupancy set and the due
// set (Pipe.LoadState raises no wakes). It also forgets the last-grant
// stamps, which a rewound clock would otherwise read as grants made this
// cycle.
func (r *Router) resync() {
	r.buffered = 0
	clear(r.due)
	clear(r.occ)
	clear(r.inUsed)
	clear(r.outUsed)
	for p, ip := range r.ins {
		for c := range ip.vcs {
			if n := ip.vcs[c].len(); n > 0 {
				r.buffered += n
				setBit(r.occ, p*NumClasses+c)
			}
		}
		if ip.in != nil && ip.in.Len() > 0 {
			setBit(r.due, p)
		}
	}
}

// words returns the number of 64-bit words a bitset of n bits needs.
func words(n int) int { return (n + 63) >> 6 }

// growBits extends bitset s to hold n bits.
func growBits(s []uint64, n int) []uint64 {
	for len(s) < words(n) {
		s = append(s, 0)
	}
	return s
}

func setBit(s []uint64, i int)   { s[i>>6] |= 1 << (i & 63) }
func clearBit(s []uint64, i int) { s[i>>6] &^= 1 << (i & 63) }

// hasBit reports whether bit i is set; bits beyond the set read as clear.
func hasBit(s []uint64, i int) bool { return i>>6 < len(s) && s[i>>6]&(1<<(i&63)) != 0 }
