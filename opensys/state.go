package opensys

import (
	"fmt"
	"math"
	"slices"

	"nocout/internal/ckpt"
)

// Checkpoint walks of the open-system machinery. The process parameters
// (Config, skew weights, base workload) are structural; the state is the
// arrival engine's position (RNG, absolute clock, modulator pieces), the
// request lifecycle (queue, serving request, pending completions), and
// the nested base-workload stream cursor. Measurement OpenStats are
// excluded — the restore path re-zeroes them through the same OpenReset
// the warmup boundary uses.

// State walks the arrival engine's position. A load rejects what no save
// writes, and what would hang or crash the next draw: an arrival clock
// that is not a finite time at or after 0, a modulator multiplier or time
// left that is NaN or negative, and a phase outside its modulator's
// phases.
func (g *arrivalGen) State(s *ckpt.State) {
	g.rng.State(s)
	s.F64(&g.t)
	if s.Loading() && !(g.t >= 0 && g.t < math.Inf(1)) {
		s.Corrupt("arrival clock %v is not a finite time at or after 0", g.t)
	}
	for _, m := range g.mods {
		s.F64(&m.mult)
		s.F64(&m.left)
		ckpt.Int(s, &m.phase)
		if !s.Loading() {
			continue
		}
		switch {
		case !(m.mult >= 0):
			s.Corrupt("modulator multiplier %v is NaN or negative", m.mult)
		case !(m.left >= 0):
			s.Corrupt("modulator time left %v is NaN or negative", m.left)
		case m.phase < 0 || m.phase >= m.phases:
			s.Corrupt("modulator phase %d is outside its %d phases", m.phase, m.phases)
		}
	}
}

// State implements ckpt.Walker. The base workload's stream must itself be
// a ckpt.Walker (every registered workload's streams are); a custom
// stream that is not cannot be checkpointed. A load rejects a next
// arrival that is NaN or negative.
func (s *openStream) State(st *ckpt.State) {
	w, ok := s.service.(ckpt.Walker)
	if !ok {
		panic(fmt.Sprintf("opensys: base stream %T does not support checkpointing", s.service))
	}
	w.State(st)
	s.arr.State(st)
	st.F64(&s.nextArr)
	if st.Loading() && !(s.nextArr >= 0) {
		st.Corrupt("next arrival %v is NaN or negative", s.nextArr) // +Inf is a zero rate's "never"
	}
	n := st.Count(len(s.queue))
	if st.Loading() {
		if n > s.o.cfg.Queue {
			st.Corrupt("open queue occupancy %d exceeds bound %d", n, s.o.cfg.Queue)
			return
		}
		s.queue = slices.Grow(s.queue[:0], n)[:n]
	}
	prev := int64(0)
	for i := range s.queue {
		ckpt.Delta(st, &s.queue[i], &prev)
	}
	st.Bool(&s.serving)
	ckpt.Int(st, &s.remain)
	ckpt.Int(st, &s.issued)
	ckpt.Int(st, &s.retired)
	n = st.Count(len(s.pending))
	if st.Loading() {
		s.pending = slices.Grow(s.pending[:0], n)[:n]
	}
	for i := range s.pending {
		ckpt.Int(st, &s.pending[i].arrival)
		ckpt.Int(st, &s.pending[i].end)
	}
	ckpt.Int(st, &s.fallback)
}
