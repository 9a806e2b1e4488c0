package workload

import "nocout/internal/ckpt"

// Checkpoint walks of the stream cursors. A stream's identity (its
// Params or trace) is structural — the restoring chip rebuilds streams
// from the workload spec — so only the position state travels: program
// counter, run/phase countdowns, the recent-jump set, trace (block,
// offset) cursors, and RNG positions.

// State implements ckpt.Walker. The recent-jump set walks as Enc.U64s
// encodes it.
func (g *Generator) State(s *ckpt.State) {
	s.U64(&g.pc)
	ckpt.Int(s, &g.runLeft)
	n := s.Count(len(g.recent))
	if s.Loading() {
		if n > cap(g.recent) {
			s.Corrupt("recent-jump set of %d exceeds capacity %d", n, cap(g.recent))
			return
		}
		g.recent = g.recent[:n]
	}
	prev := uint64(0)
	for i := range g.recent {
		ckpt.Delta(s, &g.recent[i], &prev)
	}
	ckpt.Int(s, &g.rIdx)
	if s.Loading() && s.Err() == nil &&
		(g.rIdx < 0 || (n > 0 && g.rIdx >= cap(g.recent)) || (n == 0 && g.rIdx != 0)) {
		s.Corrupt("recent-jump index %d out of range", g.rIdx)
		return
	}
	g.rng.State(s)
}

// State implements ckpt.Walker.
func (s *phasedStream) State(st *ckpt.State) {
	ckpt.Int(st, &s.idx)
	ckpt.Int(st, &s.left)
	if st.Loading() && st.Err() == nil && (s.idx < 0 || s.idx >= len(s.gens) || s.left < 0) {
		st.Corrupt("phase cursor %d/%d out of range (%d phases)", s.idx, s.left, len(s.gens))
		return
	}
	for _, g := range s.gens {
		g.State(st)
	}
}

// State implements ckpt.Walker: a NOC3 replay cursor walks as a (block,
// offset) pair, so a restore seeks the trace file instead of re-reading
// the stream — O(keyframeEvery × block) work wherever the cursor is in a
// multi-gigabyte recording. The seek decodes from the block's keyframe,
// so a corrupt-on-disk block surfaces as a checkpoint error, not a
// mid-run panic.
func (r *blockReplay) State(s *ckpt.State) {
	blk, off := r.blk, r.off
	ckpt.Int(s, &blk)
	ckpt.Int(s, &off)
	if !s.Loading() || s.Err() != nil {
		return
	}
	if blk < 0 || blk >= len(r.t.cores[r.core].blocks) {
		s.Corrupt("trace block cursor %d out of range (%d blocks)", blk, len(r.t.cores[r.core].blocks))
		return
	}
	if off < 0 || off >= r.t.countOf(r.core, blk) {
		s.Corrupt("trace offset cursor %d out of range (block %d holds %d)", off, blk, r.t.countOf(r.core, blk))
		return
	}
	if err := r.seek(blk, off); err != nil {
		s.Corrupt("seeking trace to (%d, %d): %v", blk, off, err)
	}
}
