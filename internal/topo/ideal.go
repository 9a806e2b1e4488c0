package topo

import (
	"fmt"

	"nocout/internal/noc"
	"nocout/internal/sim"
)

// Ideal is the idealized interconnect of Figure 1: only wire delay is
// exposed — routing, arbitration, switching and buffering take zero time —
// and bandwidth is unbounded. Delivery latency between two nodes is the
// latched wire delay between their tile centers.
type Ideal struct {
	plan    Floorplan
	delay   func(src, dst noc.NodeID) sim.Cycle
	deliver []func(now sim.Cycle, p *noc.Packet)
	// The delivery calendar: a min-heap of pointer buckets, one per
	// distinct delivery cycle, plus a bucket free list. The former
	// map[Cycle][]*Packet calendar allocated a map cell and a slice per
	// scheduled cycle on every push path; recycled buckets keep their
	// packet-slice capacity, so the steady state allocates nothing.
	due      sim.MinHeap[*delivBucket]
	buckets  map[sim.Cycle]*delivBucket
	freeList []*delivBucket
	waker    sim.Waker
	stats    noc.Stats
}

// delivBucket holds the packets due at one cycle. MinHeap entries are
// pointers, so heap swaps move one word and Less never copies packets.
type delivBucket struct {
	at   sim.Cycle
	pkts []*noc.Packet
}

// Less orders buckets by delivery cycle.
func (b *delivBucket) Less(o *delivBucket) bool { return b.at < o.at }

// schedule appends p to the bucket for cycle at, creating it from the
// free list when the cycle is new.
func (id *Ideal) schedule(at sim.Cycle, p *noc.Packet) {
	b, ok := id.buckets[at]
	if !ok {
		if n := len(id.freeList); n > 0 {
			b = id.freeList[n-1]
			id.freeList[n-1] = nil
			id.freeList = id.freeList[:n-1]
		} else {
			b = &delivBucket{}
		}
		b.at = at
		id.buckets[at] = b
		id.due.Push(b)
	}
	b.pkts = append(b.pkts, p)
}

// NewIdeal builds an ideal fabric over the floorplan. auxTiles appends
// auxiliary endpoints (node NumTiles+k lives at tile auxTiles[k]).
func NewIdeal(plan Floorplan, auxTiles ...noc.NodeID) *Ideal {
	n := plan.NumTiles()
	delay := func(src, dst noc.NodeID) sim.Cycle {
		if int(src) >= n {
			src = auxTiles[int(src)-n]
		}
		if int(dst) >= n {
			dst = auxTiles[int(dst)-n]
		}
		return plan.WireCyclesBetween(src, dst)
	}
	return &Ideal{
		plan:    plan,
		delay:   delay,
		deliver: make([]func(now sim.Cycle, p *noc.Packet), n+len(auxTiles)),
		buckets: make(map[sim.Cycle]*delivBucket),
	}
}

// NewIdealWithDelay builds an ideal fabric with a custom delay function
// over n nodes (used by NOC-Out's idealized comparisons and tests).
func NewIdealWithDelay(n int, delay func(src, dst noc.NodeID) sim.Cycle) *Ideal {
	return &Ideal{
		delay:   delay,
		deliver: make([]func(now sim.Cycle, p *noc.Packet), n),
		buckets: make(map[sim.Cycle]*delivBucket),
	}
}

// BindWaker implements sim.WakeBinder: Send becomes a wake source, arming
// the fabric for each packet's delivery cycle.
func (id *Ideal) BindWaker(w sim.Waker) { id.waker = w }

// NextWake implements sim.Sleeper: the earliest scheduled delivery, or
// NeverWake when nothing is in flight (Send re-arms).
func (id *Ideal) NextWake(now sim.Cycle) sim.Cycle {
	if id.due.Len() == 0 {
		return sim.NeverWake
	}
	return id.due.Min().at
}

// Send implements noc.Network.
func (id *Ideal) Send(now sim.Cycle, p *noc.Packet) {
	p.InjectedAt = now
	id.stats.Injected++
	d := id.delay(p.Src, p.Dst)
	if d < 1 {
		d = 1
	}
	// Serialization still exists on an ideal fabric: the tail arrives
	// Size-1 cycles after the head at one flit per cycle.
	at := now + d + sim.Cycle(p.Size-1)
	id.schedule(at, p)
	if id.waker != nil {
		id.waker.Wake(at)
	}
}

// SetDeliver implements noc.Network.
func (id *Ideal) SetDeliver(n noc.NodeID, fn func(now sim.Cycle, p *noc.Packet)) {
	id.deliver[n] = fn
}

// Stats implements noc.Network.
func (id *Ideal) Stats() noc.Stats { return id.stats }

// ResetStats implements noc.Network.
func (id *Ideal) ResetStats() { id.stats = noc.Stats{} }

// Tick delivers every packet scheduled for a due cycle, recycling the
// drained buckets.
func (id *Ideal) Tick(now sim.Cycle) {
	for id.due.Len() > 0 && id.due.Min().at <= now {
		b := id.due.Pop()
		delete(id.buckets, b.at)
		for i, p := range b.pkts {
			p.DeliveredAt = now
			id.stats.RecordDelivery(p)
			fn := id.deliver[p.Dst]
			if fn == nil {
				panic(fmt.Sprintf("topo: ideal: node %d has no delivery callback", p.Dst))
			}
			fn(now, p)
			b.pkts[i] = nil // release for GC
		}
		b.pkts = b.pkts[:0]
		id.freeList = append(id.freeList, b)
	}
}

var _ noc.Network = (*Ideal)(nil)
var _ sim.Sleeper = (*Ideal)(nil)
