package chip

import (
	"strings"
	"testing"

	"nocout/internal/workload"
)

// TestFitWays pins the associativity-shrinking rule buildAgents used to
// inline: ways halve until the set count is a power of two, and a slice
// too small for one direct-mapped set is an error.
func TestFitWays(t *testing.T) {
	cases := []struct {
		bytes, ways int
		want        int
		wantErr     bool
	}{
		{8 << 20 / 64, 16, 16, false}, // Table 1: 64 banks of 128KB, 16 ways, 128 sets
		{1 << 20, 16, 16, false},
		{64 * 16, 16, 16, false},   // exactly one 16-way set
		{64 * 8, 16, 8, false},     // 8 lines: halve once to 8 ways, 1 set
		{64, 16, 1, false},         // smallest legal slice: one line, direct-mapped
		{64 * 12, 16, 8, false},    // 12 lines: 16 ways fit no set; 8 ways give one
		{0, 16, 0, true},           // empty slice: no associativity fits
		{64 * 3 * 16, 16, 0, true}, // 48 lines: never a power-of-two set count
	}
	for _, c := range cases {
		got, err := FitWays(c.bytes, c.ways)
		if c.wantErr {
			if err == nil {
				t.Errorf("FitWays(%d, %d) = %d, want error", c.bytes, c.ways, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("FitWays(%d, %d): %v", c.bytes, c.ways, err)
			continue
		}
		if got != c.want {
			t.Errorf("FitWays(%d, %d) = %d, want %d", c.bytes, c.ways, got, c.want)
		}
		sets := c.bytes / 64 / got
		if sets < 1 || sets&(sets-1) != 0 {
			t.Errorf("FitWays(%d, %d) = %d yields %d sets (not 2^k)", c.bytes, c.ways, got, sets)
		}
	}
	if _, err := FitWays(1<<20, 0); err == nil {
		t.Error("FitWays must reject non-positive associativity")
	}
}

// TestLLCSliceTooSmallPanics pins the chip-level panic path the old
// inline loop had: a zero-capacity LLC cannot build.
func TestLLCSliceTooSmallPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("New must panic when the LLC slice is too small")
		}
		if !strings.Contains(strings.ToLower(anyString(r)), "slice too small") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	cfg := DefaultConfig(Mesh)
	cfg.Cores = 16
	cfg.LLCMB = 0
	New(cfg, workload.Synth(workload.MapReduceC))
}

func anyString(v any) string {
	if s, ok := v.(string); ok {
		return s
	}
	if e, ok := v.(error); ok {
		return e.Error()
	}
	return ""
}

// TestSmallestLegalSliceBuilds exercises the smallest slice FitWays
// accepts end to end: 64 cores dividing a 1MB LLC leaves 16KB slices
// whose 16 ways survive (256 sets... 16KB/64/16 = 16 sets), and the chip
// still measures.
func TestSmallestLegalSliceBuilds(t *testing.T) {
	cfg := DefaultConfig(Mesh)
	cfg.LLCMB = 1 // 16KB per bank at 64 banks
	m := Measure(cfg, workload.Synth(workload.MapReduceC), 1000, 2000)
	if m.Instrs == 0 || m.Dir.Accesses == 0 {
		t.Fatalf("tiny-slice chip silent: %+v", m)
	}
}

// TestHierarchyRegistry covers the registry contract: handle 0 is
// SharedNUCA, unknown handles and names hard-error, duplicates are
// rejected.
func TestHierarchyRegistry(t *testing.T) {
	if SharedNUCA.String() != "SharedNUCA" {
		t.Fatalf("handle 0 = %q, want SharedNUCA", SharedNUCA.String())
	}
	if id, err := ParseHierarchy("shared-nuca"); err != nil || id != SharedNUCA {
		t.Fatalf("ParseHierarchy(shared-nuca) = (%v, %v)", id, err)
	}
	if _, err := ParseHierarchy("no-such-hierarchy"); err == nil {
		t.Fatal("unknown hierarchy name must hard-error")
	}
	if _, err := HierarchyOf(HierarchyID(250)); err == nil {
		t.Fatal("unknown hierarchy handle must hard-error")
	}
	if HierarchyID(250).String() == "" {
		t.Fatal("unknown handle should still format")
	}
	if _, err := RegisterHierarchy(sharedNUCA{}); err == nil {
		t.Fatal("duplicate hierarchy name must be rejected")
	}
}

// TestRegionOwner pins the region-affine classifier on the builtin
// synthetic layout and its fallback on irregular layouts.
func TestRegionOwner(t *testing.T) {
	lay := workload.Synth(workload.DataServing).Layout()
	owner := RegionOwner(16, lay)

	for core := 0; core < 16; core++ {
		r := lay.Local(core)
		for _, a := range []uint64{r.Base, r.Base + r.Size - 64, r.Base + r.Size + 4096} {
			// The window extends past the Local region to the inter-core
			// stride: streaming addresses beyond LocalB stay owned.
			c, ok := owner(a / 64)
			if !ok || c != core {
				t.Fatalf("line %#x: owner = (%d, %v), want (%d, true)", a/64, c, ok, core)
			}
		}
	}
	// Shared regions are owned by nobody.
	for _, r := range []workload.Region{lay.Instr, lay.Hot} {
		if _, ok := owner(r.Base / 64); ok {
			t.Fatalf("shared region %#x must not be owned", r.Base)
		}
	}
	// Below the first window: unowned.
	if _, ok := owner(0); ok {
		t.Fatal("line 0 must not be owned")
	}

	// Irregular layouts disable affinity instead of misrouting.
	irr := workload.Layout{Local: func(core int) workload.Region {
		return workload.Region{Base: uint64(core*core) << 30, Size: 1 << 20}
	}}
	iOwner := RegionOwner(16, irr)
	for _, line := range []uint64{0, 1 << 24, 1 << 30} {
		if _, ok := iOwner(line); ok {
			t.Fatal("irregular layout must own nothing")
		}
	}

	// Single core: everything at/after its base is its own.
	one := RegionOwner(1, lay)
	if c, ok := one(lay.Local(0).Base / 64); !ok || c != 0 {
		t.Fatal("single-core dataset must be owned by core 0")
	}
}

// TestChannelHashCoversAllChannels is the renamed home of the historical
// channelOf spreading test (the hash is now part of the hierarchy API).
func TestChannelHashCoversAllChannels(t *testing.T) {
	seen := map[int]bool{}
	for line := uint64(0); line < 4096; line++ {
		ch := ChannelHash(line, 4)
		if ch < 0 || ch > 3 {
			t.Fatalf("ChannelHash out of range: %d", ch)
		}
		seen[ch] = true
	}
	if len(seen) != 4 {
		t.Fatalf("only %d channels used", len(seen))
	}
}

// TestSharedNUCALayoutMatchesLegacy pins the baseline hierarchy's layout
// decisions to the pre-refactor constants: line-modulo homes over the
// fabric's banks, hash-interleaved channels, Table 1 bank sizing.
func TestSharedNUCALayoutMatchesLegacy(t *testing.T) {
	cfg := DefaultConfig(Mesh)
	c := New(cfg, workload.Synth(workload.MapReduceC))
	ml := c.Memory
	if ml.NumBanks != 64 {
		t.Fatalf("NumBanks = %d, want 64", ml.NumBanks)
	}
	bc := ml.BankConf(0)
	if bc.SizeBytes != 8<<20/64 || bc.Ways != 16 || bc.Interleave != 64 {
		t.Fatalf("bank config changed: %+v", bc)
	}
	for line := uint64(0); line < 1<<14; line++ {
		node, bank := ml.Home(line)
		if want := int(line % 64); bank != want || node != c.Fabric.BankNode(want) {
			t.Fatalf("line %d: home (%v, %d), want (%v, %d)", line, node, bank, c.Fabric.BankNode(want), want)
		}
		if got, want := ml.ChannelOf(line), ChannelHash(line, cfg.MemChannels); got != want {
			t.Fatalf("line %d: channel %d, want %d", line, got, want)
		}
	}
}
