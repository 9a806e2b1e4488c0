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
// A link into a router input is a direct write: the granting router (or
// the injecting NI) stores the flit, stamped with its arrival cycle, in
// the downstream VC's ring and marks that cycle in the downstream
// router's arrival calendar. A credit comes back the same way: the
// downstream grant writes it into the upstream OutPort, where it waits
// one cycle as the port's pending return. A tick costs the flits and
// credits it moves, not the router's radix: Tick merges one calendar
// slot into the occupancy set, allocation walks only VCs holding an
// arrived flit, a pending return is counted only when a grant needs it,
// and routes are looked up per destination.
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
	buffered int      // arrived flits held in input VCs: Tick adds arrivals, a grant removes, a checkpoint load recounts
	headRoom HeadRoomFunc

	// occ marks the input VCs whose front flit has arrived, by candidate
	// index port*NumClasses+vc: Tick sets the bits of the VCs a flit
	// arrives in, and a grant clears its VC's bit unless the next flit has
	// arrived too.
	// cal is the arrival calendar, one bitset of occ's shape per slot:
	// slot at&calMask marks the VCs a flit arrives in at cycle at. Its
	// power-of-two slot count exceeds the longest input link's delay, so
	// the arrivals in flight never share a slot. A checkpoint load
	// recomputes both.
	occ, cal []uint64
	calMask  sim.Cycle
	waker    sim.Waker // engine wake handle every arrival raises

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
	name string
	cap  int // flits per VC
	vcs  [NumClasses]flitRing
	r    *Router
	base int      // candidate index of the port's first VC: port*NumClasses
	from *OutPort // the link writing into this input; nil until wired
}

// flitRing is a fixed-capacity flit FIFO holding a VC's (or an NI's eject
// side's) arrived flits and, behind them, the flits still on the link
// into it. Credits bound the two together at the buffer's capacity, so
// the buffer is allocated once (at wiring) and reused forever, and a
// link's write always finds room. A ring is fed by one link, which sends
// at most one flit per cycle after a fixed delay, so the ring is in send
// order and its arrival cycles rise: the flits that have arrived by a
// cycle are a prefix of it.
type flitRing struct {
	buf  []linkFlit
	head int
	n    int // flits held, arrived or on the link
}

// linkFlit is a flit with the cycle it arrives at its VC.
type linkFlit struct {
	Flit
	at sim.Cycle
}

func (q *flitRing) front() Flit { return q.buf[q.head].Flit }

// ready reports whether the front flit has arrived by cycle now.
func (q *flitRing) ready(now sim.Cycle) bool { return q.n > 0 && q.buf[q.head].at <= now }

// arrived returns how many flits have arrived by cycle now.
func (q *flitRing) arrived(now sim.Cycle) int {
	i := 0
	for i < q.n && q.nth(i).at <= now {
		i++
	}
	return i
}

// nth returns the i-th flit from the front.
func (q *flitRing) nth(i int) *linkFlit {
	i += q.head
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	return &q.buf[i]
}

// push and pop wrap with a compare instead of a modulo: the ring never
// holds more than len(buf) flits, so an index overruns by less than one
// lap.
func (q *flitRing) push(f linkFlit) {
	*q.nth(q.n) = f
	q.n++
}

func (q *flitRing) pop() {
	q.buf[q.head] = linkFlit{} // drop the packet reference for GC
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
}

// OutPort is a router output, or an NI's inject side: the link it drives
// plus the downstream credit state. The link writes each flit straight
// into its consumer — a router input's VC, or an NI's eject ring — and
// the consumer writes each credit it frees straight back into the port.
type OutPort struct {
	name     string
	delay    sim.Cycle // cycles from grant to arrival downstream
	down     *InPort   // router input the link writes into; nil for an eject link
	ni       *NI       // NI the eject link writes into; nil for a router link
	credits  [NumClasses]int
	owner    [NumClasses]*Packet
	lengthMM float64

	// ret is the credit returned to the port and not yet counted in
	// credits: the consumer frees at most one buffer slot per cycle (an
	// input grants at most one flit, an NI ejects at most one), and a
	// credit is usable the cycle after its return, so one pending return
	// is all a link can hold. A return counts the one before it, and a
	// grant short of credits counts it once it is due.
	ret creditReturn

	// downCap is the downstream per-VC buffering, recorded at wiring for
	// CheckCredits.
	downCap int

	// sent counts flits pushed onto this link; sentFolded marks how much
	// has been drained into Stats.FlitLinkMM. Folding computes
	// lengthMM * Δsent in a fixed port order, so the floating-point sum is
	// a pure function of flit movement — identical across kernels — rather
	// than of the order concurrent routers would update a shared counter.
	sent, sentFolded int64

	// A link whose two ends tick in different scheduling domains (see
	// BuildShardPlan) stages both directions here. send appends to
	// staged, written only by the producer's domain, and CommitStaged,
	// called only from the consumer's domain between windows, writes the
	// flits downstream. returnCredit appends to stagedRet, written only by
	// the consumer's domain, and the port's creditStage, committed only in
	// the producer's domain, replays the returns into ret.
	staging   bool
	staged    []linkFlit
	stagedRet []creditReturn
}

// creditReturn is a credit for VC vc returned to an OutPort, usable from
// cycle due on; a due of 0 means no credit.
type creditReturn struct {
	due sim.Cycle
	vc  Class
}

// wire starts the port with a full buffer of credits per VC.
func (op *OutPort) wire(capacity int) {
	op.downCap = capacity
	for c := range op.credits {
		op.credits[c] = capacity
	}
}

// connected reports whether the port drives a link.
func (op *OutPort) connected() bool { return op.down != nil || op.ni != nil }

// send puts flit f, granted at cycle now, on the port's link.
func (op *OutPort) send(now sim.Cycle, f Flit) {
	lf := linkFlit{Flit: f, at: now + op.delay}
	if op.staging {
		op.staged = append(op.staged, lf)
		return
	}
	op.deliver(lf)
}

// deliver writes flit f into the link's consumer.
func (op *OutPort) deliver(f linkFlit) {
	if op.down != nil {
		op.down.arrive(f)
	} else {
		op.ni.arrive(f)
	}
}

// returnCredit gives the port back one credit for VC vc, freed
// downstream at cycle now and usable from now+1.
func (op *OutPort) returnCredit(now sim.Cycle, vc Class) {
	if op.staging {
		op.stagedRet = append(op.stagedRet, creditReturn{due: now + 1, vc: vc})
		return
	}
	op.pend(creditReturn{due: now + 1, vc: vc})
}

// pend makes c the pending return. The return it replaces was made on an
// earlier cycle, so it is due by now and is counted; two returns on one
// cycle would break the one-slot-per-cycle rule and panic.
func (op *OutPort) pend(c creditReturn) {
	if r := op.ret; r.due != 0 {
		if r.due >= c.due {
			panic(fmt.Sprintf("noc: output %s: two credits returned on cycle %d (credit protocol violated)", op.name, c.due-1))
		}
		op.credits[r.vc]++
	}
	op.ret = c
}

// settle counts the pending return if it is usable at cycle now. A grant
// short of credits calls it: a return made on an earlier cycle counts,
// one made this cycle does not, in whatever order the two ends tick.
func (op *OutPort) settle(now sim.Cycle) {
	if r := op.ret; r.due != 0 && r.due <= now {
		op.credits[r.vc]++
		op.ret = creditReturn{}
	}
}

// Stage switches a cross-domain link into staging in both directions.
// Only the shard planner calls it, once, before the simulation starts.
func (op *OutPort) Stage() { op.staging = true }

// CommitStaged implements sim.CrossStage for the link's flits: it writes
// the staged flits downstream in send order, as send would have, so
// delivery is exactly what the single-domain kernel produces. The staged
// buffer's capacity is retained, so a steady-state commit allocates
// nothing.
func (op *OutPort) CommitStaged() {
	for i := range op.staged {
		op.deliver(op.staged[i])
		op.staged[i] = linkFlit{} // release the packet for GC
	}
	op.staged = op.staged[:0]
}

// creditStage is a staged link's credit direction as a sim.CrossStage:
// committed in the producer's domain, it replays the credits the
// consumer's domain returned, in return order, as returnCredit would
// have.
type creditStage OutPort

// CommitStaged implements sim.CrossStage.
func (cs *creditStage) CommitStaged() {
	op := (*OutPort)(cs)
	for _, c := range op.stagedRet {
		op.pend(c)
	}
	op.stagedRet = op.stagedRet[:0]
}

// arrive writes flit f into its VC, marks its arrival cycle in the
// router's calendar and wakes the router for it.
func (ip *InPort) arrive(f linkFlit) {
	r := ip.r
	vc := f.Pkt.Class
	i := ip.base + int(vc)
	if r.prio != nil && !hasBit(r.covered, i) {
		panic(fmt.Sprintf("noc: %s input %s class %v is missing from the static priority order, so its flits could never be granted", r.Name, ip.name, vc))
	}
	q := &ip.vcs[vc]
	if q.n == len(q.buf) {
		panic(fmt.Sprintf("noc: %s input %s VC %v overflow (credit protocol violated)", r.Name, ip.name, vc))
	}
	q.push(f)
	setBit(r.slot(f.at), i)
	if r.waker != nil {
		r.waker.Wake(f.at)
	}
}

// slot returns the calendar slot of cycle at.
func (r *Router) slot(at sim.Cycle) []uint64 {
	w := len(r.occ)
	s := int(at&r.calMask) * w
	return r.cal[s : s+w]
}

// AddIn appends an input port with the given per-VC buffer capacity and
// returns its index.
func (r *Router) AddIn(name string, capacity int) int {
	if capacity < 1 {
		panic("noc: input buffer capacity must be >= 1")
	}
	ip := &InPort{name: name, cap: capacity, r: r, base: len(r.ins) * NumClasses}
	for c := range ip.vcs {
		ip.vcs[c].buf = make([]linkFlit, capacity)
	}
	r.ins = append(r.ins, ip)
	r.inUsed = append(r.inUsed, 0)
	r.occ = growBits(r.occ, len(r.ins)*NumClasses)
	r.fitCal(0)
	return len(r.ins) - 1
}

// fitCal sizes the arrival calendar for an input link of the given
// delay: the slot count doubles until it exceeds the delay, and each slot
// is as wide as the occupancy set. Links are wired before any flit moves,
// so the calendar is empty and is reallocated, not copied.
func (r *Router) fitCal(delay sim.Cycle) {
	slots := r.calMask + 1
	for slots <= delay {
		slots *= 2
	}
	if n := int(slots) * len(r.occ); n != len(r.cal) {
		r.cal, r.calMask = make([]uint64, n), slots-1
	}
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
		if op.connected() {
			out = append(out, op.lengthMM)
		}
	}
	return out
}

// Connect wires output out of router a to input in of router b with the
// given link delay (cycles) and physical length (mm, for energy/area
// accounting). A flit arrives a.PipeDelay + linkDelay cycles after its
// grant; credits return upstream in one cycle.
func Connect(a *Router, out int, b *Router, in int, linkDelay sim.Cycle, lengthMM float64) {
	op := a.outs[out]
	op.lengthMM = lengthMM
	b.feed(in, op, a.PipeDelay+linkDelay)
}

// feed makes op the link into input port in, delay cycles from grant to
// arrival.
func (r *Router) feed(in int, op *OutPort, delay sim.Cycle) {
	ip := r.ins[in]
	if delay < 1 || ip.from != nil {
		panic(fmt.Sprintf("noc: %s input %s: a link needs a delay of at least 1 cycle (got %d) and an input no other link feeds", r.Name, ip.name, delay))
	}
	op.wire(ip.cap)
	op.down, op.delay = ip, delay
	ip.from = op
	r.fitCal(delay)
}

// Tick advances the router one cycle: merge the VCs flits arrive in now
// into the occupancy set, then perform switch allocation (one flit per input
// and per output per cycle, packet-atomic per output VC, credit-gated).
// Tick must run on every cycle a flit arrives, which its wakes and
// NextWake guarantee.
func (r *Router) Tick(now sim.Cycle) {
	slot := r.slot(now)
	for w, word := range slot {
		if word != 0 {
			slot[w] = 0
			r.occ[w] |= word
			r.buffered += bits.OnesCount64(word)
		}
	}
	r.allocate(now)
}

// BindWaker implements sim.WakeBinder: every flit written into the
// router's inputs wakes it through w for the flit's arrival cycle, so a
// quiescent router is re-armed the moment traffic is sent toward it.
// Credit returns are deliberately not wake sources: a returned credit
// enables no work on its own, and a grant that needs credits counts the
// pending return on the spot.
func (r *Router) BindWaker(w sim.Waker) { r.waker = w }

// NextWake implements sim.Sleeper. A router holding arrived flits must
// keep arbitrating every cycle (it may be credit-blocked, and the
// blocking credit's return wakes no one); an empty router sleeps until
// the earliest arrival its calendar holds, and indefinitely (NeverWake)
// when nothing is on its links — their writes wake it.
func (r *Router) NextWake(now sim.Cycle) sim.Cycle {
	if r.buffered > 0 {
		return now + 1
	}
	for at := now + 1; at <= now+r.calMask; at++ {
		for _, word := range r.slot(at) {
			if word != 0 {
				return at
			}
		}
	}
	return sim.NeverWake
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
		op.settle(now)
		if op.credits[vc] < need {
			return
		}
	}
	// Grant.
	q.pop()
	if !q.ready(now) {
		clearBit(r.occ, ip.base+int(vc))
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
	op.send(now, f)
	if ip.from != nil {
		ip.from.returnCredit(now, vc)
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
	if !r.outs[out].connected() {
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
// VCs restored at cycle now: the buffered count, the occupancy set and
// the arrival calendar. It also forgets the last-grant stamps, which a
// rewound clock would otherwise read as grants made this cycle.
func (r *Router) resync(now sim.Cycle) {
	r.buffered = 0
	clear(r.occ)
	clear(r.cal)
	clear(r.inUsed)
	clear(r.outUsed)
	for _, ip := range r.ins {
		for c := range ip.vcs {
			q := &ip.vcs[c]
			a := q.arrived(now)
			if a > 0 {
				r.buffered += a
				setBit(r.occ, ip.base+c)
			}
			for i := a; i < q.n; i++ {
				setBit(r.slot(q.nth(i).at), ip.base+c)
			}
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
