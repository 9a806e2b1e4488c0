package cache

import "nocout/internal/ckpt"

// Checkpoint walks of the storage arrays. Geometry (sets, ways, hashing)
// is structural — the restoring chip rebuilds it from config — so only
// the occupancy is walked: tags, valid bits, LRU stamps, and the LRU
// clock. Tag and age arrays are delta-encoded (Enc.U64s): tags within a
// set share high bits and age stamps are globally clustered, so warm
// arrays serialize at a few bytes per line.

// State implements ckpt.Walker. The array must have been built with the
// donor's geometry: each array decodes straight into the built one, and
// a stored line count that differs from it is corruption.
func (a *Array) State(s *ckpt.State) {
	s.U64s(a.tags)
	s.Bools(a.valid)
	s.U64s(a.age)
	s.U64(&a.clock)
}

// State implements ckpt.Walker. A save walks the outstanding misses in
// ascending line order, so the encoding is independent of which slab
// entry each holds; the file is at most a few dozen entries, so each step
// selects the next line by a scan rather than sorting a copy. Capacity is
// structural: a load rejects an occupancy beyond it, and duplicate lines.
func (f *MSHRFile) State(s *ckpt.State) {
	n := s.Count(len(f.slab))
	if s.Loading() {
		if n > cap(f.slab) {
			s.Corrupt("MSHR occupancy %d exceeds capacity %d", n, cap(f.slab))
			return
		}
		f.slab = f.slab[:n]
	}
	var m *MSHR
	for i := 0; i < n && s.Err() == nil; i++ {
		if s.Loading() {
			m = &f.slab[i]
		} else {
			m = f.after(m)
		}
		s.U64(&m.Line)
		s.Bool(&m.IsWrite)
		s.Bool(&m.Instr)
		s.Bool(&m.Issued)
		s.Bool(&m.Squashed)
		ckpt.Int(s, &m.Waiters)
		for j := 0; s.Loading() && j < i; j++ {
			if f.slab[j].Line == m.Line {
				s.Corrupt("duplicate MSHR line %#x", m.Line)
			}
		}
	}
}

// after returns the outstanding miss with the smallest line above prev's,
// or the smallest of all when prev is nil.
func (f *MSHRFile) after(prev *MSHR) *MSHR {
	var m *MSHR
	for i := range f.slab {
		c := &f.slab[i]
		if (prev == nil || c.Line > prev.Line) && (m == nil || c.Line < m.Line) {
			m = c
		}
	}
	return m
}
