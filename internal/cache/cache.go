// Package cache provides the storage-array substrate of the memory
// hierarchy: set-associative tag arrays with LRU replacement (used for
// L1-I, L1-D, and LLC banks) and miss-status holding registers.
//
// The simulator is timing-only: arrays track tags and metadata indices, not
// data values.
package cache

import "fmt"

// LineBytes is the cache line size across the whole hierarchy (Table 1).
const LineBytes = 64

// LineAddr converts a byte address to a line address.
func LineAddr(byteAddr uint64) uint64 { return byteAddr / LineBytes }

// Array is a set-associative tag array with true-LRU replacement.
type Array struct {
	sets, ways int
	hashed     bool
	tags       []uint64 // [set*ways+way]
	valid      []bool
	age        []uint64 // LRU timestamps
	clock      uint64
}

// NewArray builds an array for capacityBytes of storage with the given
// associativity; capacity must divide evenly into sets.
func NewArray(capacityBytes, ways int) *Array {
	lines := capacityBytes / LineBytes
	if lines < ways || lines%ways != 0 {
		panic(fmt.Sprintf("cache: capacity %dB with %d ways is not realizable", capacityBytes, ways))
	}
	sets := lines / ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d is not a power of two", sets))
	}
	return &Array{
		sets:  sets,
		ways:  ways,
		tags:  make([]uint64, sets*ways),
		valid: make([]bool, sets*ways),
		age:   make([]uint64, sets*ways),
	}
}

// Sets returns the number of sets.
func (a *Array) Sets() int { return a.sets }

// Ways returns the associativity.
func (a *Array) Ways() int { return a.ways }

// Lines returns the total line capacity.
func (a *Array) Lines() int { return a.sets * a.ways }

// SetHash enables XOR-folded set indexing. Real LLCs hash their index so
// that power-of-two address strides (per-core regions, page-aligned
// structures) do not collapse onto a few sets; L1s typically do not.
func (a *Array) SetHash(on bool) {
	for _, v := range a.valid {
		if v {
			panic("cache: SetHash must be configured before use")
		}
	}
	a.hashed = on
}

// set returns the set index for a line address. NewArray only builds
// arrays whose set count is a power of two, so masking the low bits is
// exactly line mod sets, without a 64-bit divide on every lookup.
func (a *Array) set(line uint64) int {
	if a.hashed {
		line = line ^ line>>10 ^ line>>17 ^ line>>25 ^ line>>33
	}
	return int(line & uint64(a.sets-1))
}

// Lookup returns the slot index of line and whether it hit, updating LRU on
// a hit.
func (a *Array) Lookup(line uint64) (slot int, hit bool) {
	s := a.set(line)
	base := s * a.ways
	for w := 0; w < a.ways; w++ {
		i := base + w
		if a.valid[i] && a.tags[i] == line {
			a.clock++
			a.age[i] = a.clock
			return i, true
		}
	}
	return -1, false
}

// Probe is Lookup without the LRU update.
func (a *Array) Probe(line uint64) (slot int, hit bool) {
	s := a.set(line)
	base := s * a.ways
	for w := 0; w < a.ways; w++ {
		i := base + w
		if a.valid[i] && a.tags[i] == line {
			return i, true
		}
	}
	return -1, false
}

// Insert places line into its set, evicting the LRU victim if the set is
// full. It returns the slot used, the victim's line address, and whether a
// valid victim was evicted. Insert panics if the line is already present
// (callers must Lookup first).
func (a *Array) Insert(line uint64) (slot int, victim uint64, evicted bool) {
	if _, hit := a.Probe(line); hit {
		panic(fmt.Sprintf("cache: inserting already-present line %#x", line))
	}
	s := a.set(line)
	base := s * a.ways
	victimSlot := -1
	var oldest uint64 = ^uint64(0)
	for w := 0; w < a.ways; w++ {
		i := base + w
		if !a.valid[i] {
			victimSlot = i
			evicted = false
			break
		}
		if a.age[i] < oldest {
			oldest = a.age[i]
			victimSlot = i
			victim = a.tags[i]
			evicted = true
		}
	}
	a.install(victimSlot, line)
	return victimSlot, victim, evicted
}

// Fill installs line into the first free way of its set without evicting,
// scanning the set once; it is the functional prewarm's install. A
// resident line is left untouched (no LRU update) and returns
// (slot, false, true); otherwise line takes the way Insert would give it
// and Fill returns (slot, true, true). A full set installs nothing and
// returns ok == false.
func (a *Array) Fill(line uint64) (slot int, installed, ok bool) {
	base := a.set(line) * a.ways
	free := -1
	for i := base; i < base+a.ways; i++ {
		if !a.valid[i] {
			if free < 0 {
				free = i
			}
		} else if a.tags[i] == line {
			return i, false, true
		}
	}
	if free < 0 {
		return -1, false, false
	}
	a.install(free, line)
	return free, true, true
}

// install stores line in slot i as the most recently used way. Insert and
// Fill both install through it, so their LRU stamping cannot diverge.
func (a *Array) install(i int, line uint64) {
	a.clock++
	a.tags[i] = line
	a.valid[i] = true
	a.age[i] = a.clock
}

// VictimOf returns the slot and line address that Insert would evict for
// line, without modifying the array. hadVictim is false if a free way
// exists.
func (a *Array) VictimOf(line uint64) (slot int, victim uint64, hadVictim bool) {
	s := a.set(line)
	base := s * a.ways
	var oldest uint64 = ^uint64(0)
	victimSlot := -1
	for w := 0; w < a.ways; w++ {
		i := base + w
		if !a.valid[i] {
			return i, 0, false
		}
		if a.age[i] < oldest {
			oldest = a.age[i]
			victimSlot = i
		}
	}
	return victimSlot, a.tags[victimSlot], true
}

// Invalidate removes line if present and reports whether it was present.
func (a *Array) Invalidate(line uint64) bool {
	if i, hit := a.Probe(line); hit {
		a.valid[i] = false
		return true
	}
	return false
}

// Contains reports presence without LRU side effects.
func (a *Array) Contains(line uint64) bool {
	_, hit := a.Probe(line)
	return hit
}

// SlotLine returns the line stored at slot (valid slots only).
func (a *Array) SlotLine(slot int) uint64 { return a.tags[slot] }

// MSHR tracks one outstanding miss.
type MSHR struct {
	Line    uint64
	IsWrite bool
	Instr   bool
	Issued  bool
	// Squashed marks a fill that must not install: an invalidation for the
	// line overtook the response in flight.
	Squashed bool
	// Waiters counts merged requests (same line missed again while
	// outstanding).
	Waiters int
}

// MSHRFile is a bounded set of outstanding misses; its capacity is the
// hardware's memory-level-parallelism limit. The outstanding misses are
// kept compactly in a slab allocated once, so a miss allocates nothing,
// and a line is found by scanning them. An *MSHR from Get or Alloc is
// valid until the next Free.
type MSHRFile struct {
	slab []MSHR // the outstanding misses; cap is the capacity
}

// NewMSHRFile returns a file with the given capacity.
func NewMSHRFile(capacity int) *MSHRFile {
	if capacity < 1 {
		panic("cache: MSHR capacity must be positive")
	}
	return &MSHRFile{slab: make([]MSHR, 0, capacity)}
}

// Full reports whether a new allocation would exceed capacity.
func (f *MSHRFile) Full() bool { return len(f.slab) == cap(f.slab) }

// Len returns the number of outstanding misses.
func (f *MSHRFile) Len() int { return len(f.slab) }

// Cap returns the capacity.
func (f *MSHRFile) Cap() int { return cap(f.slab) }

// Get returns the MSHR for line, if any.
func (f *MSHRFile) Get(line uint64) (*MSHR, bool) {
	for i := range f.slab {
		if f.slab[i].Line == line {
			return &f.slab[i], true
		}
	}
	return nil, false
}

// Alloc registers a new outstanding miss; it panics if the line already has
// an MSHR or the file is full (callers must check).
func (f *MSHRFile) Alloc(line uint64, isWrite, instr bool) *MSHR {
	if _, ok := f.Get(line); ok {
		panic(fmt.Sprintf("cache: duplicate MSHR for line %#x", line))
	}
	if f.Full() {
		panic("cache: MSHR file overflow")
	}
	f.slab = append(f.slab, MSHR{Line: line, IsWrite: isWrite, Instr: instr})
	return &f.slab[len(f.slab)-1]
}

// Free releases the MSHR for line, moving the last outstanding miss into
// its entry.
func (f *MSHRFile) Free(line uint64) {
	m, ok := f.Get(line)
	if !ok {
		panic(fmt.Sprintf("cache: freeing absent MSHR %#x", line))
	}
	last := len(f.slab) - 1
	*m = f.slab[last]
	f.slab = f.slab[:last]
}
