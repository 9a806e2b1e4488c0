package cpu

import (
	"nocout/internal/ckpt"
	"nocout/internal/sim"
)

// Checkpoint walk of the core's architectural state: the in-flight
// instruction window, the fractional commit credit, fetch and
// serialization blocks, the deferred retry slot, and the RNG position.
// Construction parameters (ID, Params, enabled) and the wiring (L1,
// stream, waker) are structural; measurement Stats are excluded — the
// restore path re-zeroes them exactly as the warmup boundary does.
// Callers must Flush the core before saving so lastSeen equals the
// snapshot cycle and no lazy accounting is pending; a load rejects a
// lastSeen at any other cycle, whose first catch-up would replay cycles
// that never ran or skip ones that did.

// Stream returns the workload stream driving this core, so the chip can
// checkpoint its cursor alongside the core.
func (c *Core) Stream() Stream { return c.stream }

// State walks the core's state at snapshot cycle at. The ROB ring is
// walked logically from its head, and a load rebuilds it from slot 0, so
// the restored ring is head-normalized — invisible to execution, which
// only ever indexes relative to head.
func (c *Core) State(s *ckpt.State, at sim.Cycle) {
	n := s.Count(c.count)
	if s.Loading() {
		if n > len(c.rob) {
			s.Corrupt("core %d window occupancy %d exceeds ROB size %d", c.ID, n, len(c.rob))
			return
		}
		c.head, c.count = 0, n
		clear(c.rob)
	}
	for i := 0; i < c.count; i++ {
		en := &c.rob[(c.head+i)%len(c.rob)]
		s.Bool(&en.mem)
		s.U64(&en.line)
		s.Bool(&en.waiting)
	}
	s.F64(&c.credit)
	s.U64(&c.fetchPC)
	s.Bool(&c.haveLine)
	s.Bool(&c.fetchStall)
	s.U64(&c.fetchLine)
	s.Bool(&c.serialize)
	s.U64(&c.serialLine)
	s.Bool(&c.haveRetry)
	ckpt.Uint(s, &c.retryInstr.Kind, KindIdle)
	s.U64(&c.retryInstr.IAddr)
	s.U64(&c.retryInstr.DAddr)
	ckpt.Int(s, &c.outstanding)
	ckpt.Int(s, &c.lastSeen)
	if s.Loading() && c.lastSeen != at {
		s.Corrupt("core %d accounted to cycle %d, not the snapshot cycle %d", c.ID, c.lastSeen, at)
	}
	c.rng.State(s)
}
