package coherence

import "testing"

// TestBitset drives a vector of 130 cores (three words) held in the
// middle of a three-vector slab, the way a Bank's directory lays them
// out: every operation must write through to its own words and no other.
func TestBitset(t *testing.T) {
	slab := make([]uint64, 9)
	b := Bitset{w: slab[3:6]}
	for _, id := range []int{0, 63, 64, 129} {
		b.Set(id)
	}
	if b.Count() != 4 {
		t.Fatalf("count = %d", b.Count())
	}
	if !b.Has(64) || b.Has(65) {
		t.Fatal("membership wrong")
	}
	var got []int
	b.ForEach(func(id int) { got = append(got, id) })
	want := []int{0, 63, 64, 129}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach = %v", got)
		}
	}
	if slab[3] != 1|1<<63 || slab[4] != 1 || slab[5] != 2 {
		t.Fatalf("vector words %#x, want [0x8000000000000001 0x1 0x2]", slab[3:6])
	}
	for _, i := range []int{0, 1, 2, 6, 7, 8} {
		if slab[i] != 0 {
			t.Fatalf("slab word %d = %#x: the view wrote outside its vector", i, slab[i])
		}
	}
	b.Reset()
	if b.Count() != 0 || slab[3]|slab[4]|slab[5] != 0 {
		t.Fatal("Reset failed")
	}
}
