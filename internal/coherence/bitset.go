package coherence

import "math/bits"

// Bitset is a fixed-capacity sharer set (full-map directory vector). It is
// a view of words owned elsewhere — a Bank's directory slab — so building
// one allocates nothing and its methods write through to the slab.
type Bitset struct {
	w []uint64
}

// Set adds id.
func (b Bitset) Set(id int) { b.w[id/64] |= 1 << (uint(id) % 64) }

// Has reports membership.
func (b Bitset) Has(id int) bool { return b.w[id/64]&(1<<(uint(id)%64)) != 0 }

// Count returns the population count.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b.w {
		n += bits.OnesCount64(w)
	}
	return n
}

// Reset clears all members.
func (b Bitset) Reset() {
	for i := range b.w {
		b.w[i] = 0
	}
}

// ForEach calls fn for every member in ascending order.
func (b Bitset) ForEach(fn func(id int)) {
	for i, w := range b.w {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			fn(i*64 + bit)
			w &^= 1 << uint(bit)
		}
	}
}
