package mem

import (
	"nocout/internal/ckpt"
	"nocout/internal/coherence"
	"nocout/internal/sim"
)

// Checkpoint walk of a memory channel. Timing config and wiring are
// structural; the state is the arrival inbox, the service queue, the
// channel-free horizon, in-flight device accesses, and the packet
// sequence counter. Stats are excluded — callers Flush before saving so
// the lazily-sampled utilization counters are settled and lastSeen
// equals the snapshot cycle; a load rejects any other lastSeen.

// State walks the channel's state at snapshot cycle at.
func (c *Controller) State(s *ckpt.State, at sim.Cycle) {
	c.inbox.State(s, (*coherence.Msg).State)
	c.q.State(s, (*coherence.Msg).State)
	ckpt.Int(s, &c.nextFree)
	c.inFlight.State(s, (*coherence.Msg).State)
	ckpt.Int(s, &c.lastSeen)
	if s.Loading() && c.lastSeen != at {
		s.Corrupt("memory channel %d sampled to cycle %d, not the snapshot cycle %d", c.Channel, c.lastSeen, at)
	}
	s.U64(&c.pktSeq)
}
