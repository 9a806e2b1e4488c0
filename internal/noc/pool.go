package noc

// PacketPool recycles Packets. A chip keeps one pool per scheduling
// domain: a delivered packet returns to the pool of its receiving node's
// domain and is reused by the next send from any node of that domain. All
// operations on one pool happen inside its domain — the agents that send
// and the dispatchers that recycle — so pools need no locking even under
// the sharded kernel, and because Get fully re-initializes the packet,
// pooling is invisible to simulation results (only heap addresses
// differ).
//
// A single-domain chip's one pool holds at most as many packets as were
// ever in flight at once, so a warmed chip sends without allocating. A
// pool per node would not be bounded: a node that sends more than it
// receives (its writebacks get no reply) would allocate every packet it
// sent, while the pools of the nodes receiving them grew. Across domains
// the same imbalance remains — traffic that flows more one way between
// two domains moves packets from one pool to the other.
//
// Senders keep their message payload in a cell that travels with the
// packet: Get returns the packet's *any payload slot untouched, so a
// caller that stores a pointer (for example *coherence.Msg) on first use
// can overwrite the pointee on reuse without re-boxing — the second
// allocation the pool exists to eliminate.
type PacketPool struct {
	free []*Packet
}

// Packet-ID spaces: each protocol agent numbers its own packets inside a
// tag|agent|sequence partition, so IDs stay chip-unique without a shared
// counter — which would be both a data race and a nondeterminism source
// under the sharded kernel (IDs would depend on cross-domain interleaving).
const (
	PktTagL1  = 1
	PktTagDir = 2
	PktTagMC  = 3
)

// PacketIDBase returns the base of an agent's private packet-ID space;
// the agent ORs in its own sequence counter.
func PacketIDBase(tag, agent int) uint64 {
	return uint64(tag)<<56 | uint64(agent)<<40
}

// Get returns a packet with all transfer fields reset. The Payload slot is
// preserved from the packet's previous life (nil on a fresh packet) so
// callers can reuse their payload cell.
func (pl *PacketPool) Get() *Packet {
	n := len(pl.free)
	if n == 0 {
		return &Packet{}
	}
	p := pl.free[n-1]
	pl.free[n-1] = nil
	pl.free = pl.free[:n-1]
	payload := p.Payload
	*p = Packet{Payload: payload}
	return p
}

// Put recycles a delivered packet. The caller must not retain p or its
// payload cell afterwards.
func (pl *PacketPool) Put(p *Packet) {
	if p == nil {
		return
	}
	pl.free = append(pl.free, p)
}
