package cache

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"nocout/internal/ckpt"
)

func TestLineAddr(t *testing.T) {
	if LineAddr(0) != 0 || LineAddr(63) != 0 || LineAddr(64) != 1 || LineAddr(6400) != 100 {
		t.Fatal("LineAddr arithmetic wrong")
	}
}

func TestArrayShape(t *testing.T) {
	a := NewArray(32*1024, 2) // 32KB, 2-way: 512 lines, 256 sets
	if a.Lines() != 512 || a.Sets() != 256 || a.Ways() != 2 {
		t.Fatalf("shape: %d lines, %d sets, %d ways", a.Lines(), a.Sets(), a.Ways())
	}
}

func TestArrayHitMiss(t *testing.T) {
	a := NewArray(4096, 4) // 64 lines, 16 sets
	if _, hit := a.Lookup(5); hit {
		t.Fatal("empty array must miss")
	}
	a.Insert(5)
	if _, hit := a.Lookup(5); !hit {
		t.Fatal("inserted line must hit")
	}
	if !a.Contains(5) {
		t.Fatal("Contains must see the line")
	}
	if a.Contains(5 + 16) {
		t.Fatal("different tag in same set must miss")
	}
}

func TestArrayLRUEviction(t *testing.T) {
	a := NewArray(2*LineBytes*2, 2) // 4 lines, 2 sets, 2 ways
	// Lines 0, 2, 4 all map to set 0.
	a.Insert(0)
	a.Insert(2)
	a.Lookup(0) // touch 0 so 2 becomes LRU
	slot, victim, evicted := a.Insert(4)
	if !evicted || victim != 2 {
		t.Fatalf("evicted=%v victim=%d, want LRU line 2", evicted, victim)
	}
	if a.SlotLine(slot) != 4 {
		t.Fatal("slot should now hold line 4")
	}
	if a.Contains(2) || !a.Contains(0) || !a.Contains(4) {
		t.Fatal("post-eviction contents wrong")
	}
}

func TestArrayVictimOfMatchesInsert(t *testing.T) {
	a := NewArray(8*LineBytes, 2) // 8 lines, 4 sets
	for i := uint64(0); i < 8; i++ {
		a.Insert(i)
	}
	// Set 1 holds lines 1 and 5; line 1 is older.
	_, victim, had := a.VictimOf(9)
	if !had || victim != 1 {
		t.Fatalf("VictimOf = %d,%v want 1,true", victim, had)
	}
	_, gotVictim, _ := a.Insert(9)
	if gotVictim != victim {
		t.Fatal("VictimOf must predict Insert's choice")
	}
}

func TestArrayInvalidate(t *testing.T) {
	a := NewArray(4096, 4)
	a.Insert(7)
	if !a.Invalidate(7) {
		t.Fatal("Invalidate should report presence")
	}
	if a.Invalidate(7) {
		t.Fatal("double Invalidate should report absence")
	}
	// The freed way is reused without eviction.
	_, _, evicted := a.Insert(7)
	if evicted {
		t.Fatal("insert into invalidated way must not evict")
	}
}

func TestArrayDuplicateInsertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a := NewArray(4096, 4)
	a.Insert(1)
	a.Insert(1)
}

func TestArrayPropertyNoFalseHits(t *testing.T) {
	a := NewArray(64*LineBytes, 4)
	inserted := map[uint64]bool{}
	evictedSet := map[uint64]bool{}
	err := quick.Check(func(raw uint16) bool {
		line := uint64(raw % 256)
		if a.Contains(line) != (inserted[line] && !evictedSet[line]) {
			return false
		}
		if !a.Contains(line) {
			_, victim, ev := a.Insert(line)
			inserted[line] = true
			delete(evictedSet, line)
			if ev {
				evictedSet[victim] = true
			}
		}
		return true
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

// TestArrayFillMatchesInsertPath: Fill is the one-scan form of the
// prewarm's Contains/VictimOf/Insert sequence. Two equal arrays driven
// with the same random lines — one through Fill, one through the
// three-call path — return the same results and serialize to the same
// bytes, through hits, installs, full sets and the holes Invalidate
// leaves, with and without the hashed index.
func TestArrayFillMatchesInsertPath(t *testing.T) {
	threeCall := func(a *Array, line uint64) (slot int, installed, ok bool) {
		if a.Contains(line) {
			slot, _ := a.Probe(line)
			return slot, false, true
		}
		if _, _, full := a.VictimOf(line); full {
			return -1, false, false
		}
		slot, _, _ = a.Insert(line)
		return slot, true, true
	}
	state := func(a *Array) []byte {
		var e ckpt.Enc
		a.State(ckpt.Encoding(&e))
		return e.Bytes()
	}
	var hits, installs, full int
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fill, ref := NewArray(64*LineBytes, 4), NewArray(64*LineBytes, 4)
		fill.SetHash(seed%2 == 0)
		ref.SetHash(seed%2 == 0)
		for i := 0; i < 1000; i++ {
			line := uint64(rng.Intn(256)) * 0x10001 // 256 lines on 64 ways
			if rng.Intn(16) == 0 {
				if fill.Invalidate(line) != ref.Invalidate(line) {
					t.Fatalf("seed %d op %d: Invalidate(%#x) differs", seed, i, line)
				}
				continue
			}
			s1, in1, ok1 := fill.Fill(line)
			s2, in2, ok2 := threeCall(ref, line)
			if s1 != s2 || in1 != in2 || ok1 != ok2 {
				t.Fatalf("seed %d op %d: Fill(%#x) = (%d, %v, %v), three-call path (%d, %v, %v)",
					seed, i, line, s1, in1, ok1, s2, in2, ok2)
			}
			switch {
			case !ok1:
				full++
			case in1:
				installs++
			default:
				hits++
			}
			if i%100 == 99 && !bytes.Equal(state(fill), state(ref)) {
				t.Fatalf("seed %d op %d: array state differs", seed, i)
			}
		}
	}
	if hits == 0 || installs == 0 || full == 0 {
		t.Fatalf("hits %d, installs %d, full sets %d: every outcome must be exercised", hits, installs, full)
	}
}

func TestArrayWorkingSetFitsNoEvictions(t *testing.T) {
	// A working set equal to capacity with perfect distribution never
	// evicts after warm-up when re-touched in LRU-friendly order.
	a := NewArray(16*LineBytes, 2)
	for i := uint64(0); i < 16; i++ {
		if _, _, ev := a.Insert(i); ev {
			t.Fatal("cold fill of exact capacity must not evict")
		}
	}
	for round := 0; round < 3; round++ {
		for i := uint64(0); i < 16; i++ {
			if _, hit := a.Lookup(i); !hit {
				t.Fatal("resident working set must keep hitting")
			}
		}
	}
}

func TestMSHRFileBasics(t *testing.T) {
	f := NewMSHRFile(2)
	if f.Full() || f.Len() != 0 || f.Cap() != 2 {
		t.Fatal("fresh file state wrong")
	}
	m := f.Alloc(10, false, true)
	if m.Line != 10 || m.IsWrite || !m.Instr {
		t.Fatalf("MSHR contents: %+v", m)
	}
	if got, ok := f.Get(10); !ok || got != m {
		t.Fatal("Get must return the allocated MSHR")
	}
	f.Alloc(11, true, false)
	if !f.Full() {
		t.Fatal("file should be full at capacity")
	}
	f.Free(10)
	if f.Full() || f.Len() != 1 {
		t.Fatal("Free must release capacity")
	}
}

func TestMSHRDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f := NewMSHRFile(4)
	f.Alloc(1, false, false)
	f.Alloc(1, false, false)
}

func TestMSHRFreeAbsentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMSHRFile(4).Free(3)
}

func TestMSHROverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f := NewMSHRFile(1)
	f.Alloc(1, false, false)
	f.Alloc(2, false, false)
}
