package ckpt

// State walks a component's checkpointed fields in one pass that serves
// both directions: a State from Encoding appends each field it is handed
// to an Enc, and a State from Decoding decodes the same fields, in the
// same order, back into them. A component therefore writes its format
// once, in a State(*State) method, and its save and load cannot drift
// apart. What only one direction needs stays a branch on Loading inside
// the walk: a load checks occupancy caps, index ranges and duplicates; a
// save fixes the order of what has none (map keys, an unordered slab).
//
// Decode failures stick as they do in Dec: after the first, every walk
// call decodes zero values, Count returns 0, and Err reports the first
// failure, which the orchestrator checks once per section. A walk must
// therefore never index by a decoded value it has not validated.
type State struct {
	e *Enc // set while saving
	d *Dec // set while loading
}

// Walker is a component whose checkpointed state one State method walks.
type Walker interface {
	State(s *State)
}

// Encoding returns a State that appends every field it walks to e.
func Encoding(e *Enc) *State { return &State{e: e} }

// Decoding returns a State that decodes every field it walks from d.
func Decoding(d *Dec) *State { return &State{d: d} }

// Loading reports whether the walk decodes into its fields.
func (s *State) Loading() bool { return s.d != nil }

// Err returns the first decode failure, or nil (always nil while saving).
func (s *State) Err() error {
	if s.d == nil {
		return nil
	}
	return s.d.err
}

// Corrupt records a semantic corruption found by a load-only check; it
// sticks like any other decode failure. Saving, it does nothing.
func (s *State) Corrupt(format string, args ...any) {
	if s.d != nil {
		s.d.fail(format, args...)
	}
}

// U64 walks an unsigned varint field.
func (s *State) U64(p *uint64) {
	if s.d != nil {
		*p = s.d.U64()
		return
	}
	s.e.U64(*p)
}

// Bool walks a one-byte boolean field.
func (s *State) Bool(p *bool) {
	if s.d != nil {
		*p = s.d.Bool()
		return
	}
	s.e.Bool(*p)
}

// F64 walks a float field bit-exactly.
func (s *State) F64(p *float64) {
	if s.d != nil {
		*p = s.d.F64()
		return
	}
	s.e.F64(*p)
}

// Count walks a sequence length: saving encodes n and returns it;
// loading returns the stored count, validated against the remaining
// input (Dec.Count) so that the caller may size storage by it. The
// caller then walks that many elements.
func (s *State) Count(n int) int {
	if s.d != nil {
		return s.d.Count()
	}
	s.e.U64(uint64(n))
	return n
}

// U64s walks a delta-encoded array (Enc.U64s) whose length the built
// geometry fixes: loading decodes in place, and a stored length other
// than len(vs) is corruption.
func (s *State) U64s(vs []uint64) {
	if s.d != nil {
		s.d.U64sFunc(len(vs), func(i int, v uint64) { vs[i] = v })
		return
	}
	s.e.U64s(vs)
}

// U64sFunc walks an n-element array encoded as U64s encodes it, without
// a []uint64 of it: saving encodes get(i) as element i, and loading hands
// element i to set(i, v), which may call Corrupt to reject it.
func (s *State) U64sFunc(n int, get func(i int) uint64, set func(i int, v uint64)) {
	if s.d != nil {
		s.d.U64sFunc(n, set)
		return
	}
	s.e.U64sFunc(n, get)
}

// Bools walks a packed bitset whose length the built geometry fixes:
// loading decodes in place, and a stored length other than len(vs) is
// corruption.
func (s *State) Bools(vs []bool) {
	if s.d != nil {
		s.d.BoolsFunc(len(vs), func(i int, v bool) { vs[i] = v })
		return
	}
	s.e.Bools(vs)
}

// BoolsFunc walks an n-bit set encoded as Bools encodes it, without a
// []bool of it: saving encodes get(i) as bit i, and loading hands bit i
// to set(i, v).
func (s *State) BoolsFunc(n int, get func(i int) bool, set func(i int, v bool)) {
	if s.d != nil {
		s.d.BoolsFunc(n, set)
		return
	}
	s.e.BoolsFunc(n, get)
}

// Int walks a signed integer field (an int, an int64, a sim.Cycle) as a
// zigzag varint.
func Int[T ~int | ~int64](s *State, p *T) {
	if s.d != nil {
		*p = T(s.d.I64())
		return
	}
	s.e.I64(int64(*p))
}

// Uint walks an unsigned integer field of any width (an enum, say) as a
// uvarint. Loading, a stored value above max is corruption, so a value
// is never truncated to fit T: pass an enum's last value, or T's largest.
func Uint[T ~uint8 | ~uint16 | ~uint32 | ~uint64](s *State, p *T, max T) {
	if s.d == nil {
		s.e.U64(uint64(*p))
		return
	}
	v := s.d.U64()
	if v > uint64(max) {
		s.d.fail("%T value %d exceeds %d", *p, v, max)
		return
	}
	*p = T(v)
}

// Delta walks *p as a zigzag varint of its difference from *prev, then
// moves *prev to *p. Walking a sequence of near-sorted values (delivery
// cycles, arrival times) this way spends a byte or two per value; a
// uint64 sequence walked so encodes as Enc.U64s encodes its elements.
func Delta[T ~int64 | ~uint64](s *State, p, prev *T) {
	if s.d != nil {
		*p = *prev + T(s.d.I64())
	} else {
		s.e.I64(int64(*p - *prev))
	}
	*prev = *p
}
