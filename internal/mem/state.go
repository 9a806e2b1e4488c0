package mem

import (
	"nocout/internal/ckpt"
	"nocout/internal/coherence"
)

// Checkpoint walk of a memory channel. Timing config and wiring are
// structural; the state is the arrival inbox, the service queue, the
// channel-free horizon, in-flight device accesses, and the packet
// sequence counter. Stats are excluded — callers Flush before saving so
// the lazily-sampled utilization counters are settled and lastSeen
// equals the snapshot cycle.

// State implements ckpt.Walker.
func (c *Controller) State(s *ckpt.State) {
	c.inbox.State(s, (*coherence.Msg).State)
	c.q.State(s, (*coherence.Msg).State)
	ckpt.Int(s, &c.nextFree)
	c.inFlight.State(s, (*coherence.Msg).State)
	ckpt.Int(s, &c.lastSeen)
	s.U64(&c.pktSeq)
}
