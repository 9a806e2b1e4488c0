package cache

import "nocout/internal/ckpt"

// Checkpoint serialization of the storage arrays. Geometry (sets, ways,
// hashing) is structural — the restoring chip rebuilds it from config —
// so only the occupancy is serialized: tags, valid bits, LRU stamps, and
// the LRU clock. Tag and age arrays are delta-encoded (Enc.U64s): tags
// within a set share high bits and age stamps are globally clustered, so
// warm arrays serialize at a few bytes per line.

// SaveState implements ckpt.Saver.
func (a *Array) SaveState(e *ckpt.Enc) {
	e.U64s(a.tags)
	e.Bools(a.valid)
	e.U64s(a.age)
	e.U64(a.clock)
}

// LoadState implements ckpt.Loader. The array must have been built with
// the donor's geometry: each array decodes straight into the built one,
// and a stored line count that differs from it is corruption.
func (a *Array) LoadState(d *ckpt.Dec) {
	d.U64sFunc(len(a.tags), func(i int, v uint64) { a.tags[i] = v })
	d.BoolsFunc(len(a.valid), func(i int, v bool) { a.valid[i] = v })
	d.U64sFunc(len(a.age), func(i int, v uint64) { a.age[i] = v })
	a.clock = d.U64()
}

// SaveState implements ckpt.Saver: outstanding misses in ascending line
// order, so the encoding is independent of which slab entry each holds.
// The file is at most a few dozen entries, so each step selects the next
// line by a scan rather than sorting a copy.
func (f *MSHRFile) SaveState(e *ckpt.Enc) {
	e.U64(uint64(len(f.slab)))
	var m *MSHR
	for range f.slab {
		prev := m
		m = nil
		for i := range f.slab {
			c := &f.slab[i]
			if (prev == nil || c.Line > prev.Line) && (m == nil || c.Line < m.Line) {
				m = c
			}
		}
		e.U64(m.Line)
		e.Bool(m.IsWrite)
		e.Bool(m.Instr)
		e.Bool(m.Issued)
		e.Bool(m.Squashed)
		e.Int(m.Waiters)
	}
}

// LoadState implements ckpt.Loader. Capacity is structural; a stored
// occupancy beyond it is corruption.
func (f *MSHRFile) LoadState(d *ckpt.Dec) {
	n := d.Count()
	if d.Err() != nil {
		return
	}
	if n > cap(f.slab) {
		d.Corrupt("MSHR occupancy %d exceeds capacity %d", n, cap(f.slab))
		return
	}
	f.slab = f.slab[:0]
	for i := 0; i < n && d.Err() == nil; i++ {
		m := MSHR{
			Line:     d.U64(),
			IsWrite:  d.Bool(),
			Instr:    d.Bool(),
			Issued:   d.Bool(),
			Squashed: d.Bool(),
		}
		m.Waiters = d.Int()
		if _, dup := f.Get(m.Line); dup {
			d.Corrupt("duplicate MSHR line %#x", m.Line)
			return
		}
		f.slab = append(f.slab, m)
	}
}
