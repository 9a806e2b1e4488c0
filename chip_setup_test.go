package nocout

import (
	"testing"

	"nocout/internal/chip"
	"nocout/internal/sim"
	"nocout/internal/workload"
)

// Every simulated point — a Quick point, a campaign point, a checkpoint
// miss — first builds its chip and functionally prewarms its LLC, L1s and
// directory. This file holds that setup to its cost.

// setupCfg is a 64-core Data Serving chip of design d with llcMB of LLC.
func setupCfg(tb testing.TB, d Design, llcMB int) (Config, workload.Workload) {
	tb.Helper()
	w, err := workload.Parse("Data Serving")
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultConfig(d)
	cfg.Cores = 64
	cfg.Seed = 1
	cfg.LLCMB = llcMB
	return cfg, w
}

// TestSetupAllocsIndependentOfLLC: setup allocates per bank and per
// agent, never per LLC line, so doubling the LLC leaves the allocation
// count of chip.New + PrewarmCaches where it was. PrewarmCaches alone
// allocates at most one object, whatever the LLC's size: its walk keeps
// no per-line or per-bank state.
func TestSetupAllocsIndependentOfLLC(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, d := range []Design{Mesh, NOCOut} {
		var allocs [2]float64
		for i, mb := range []int{8, 16} {
			cfg, w := setupCfg(t, d, mb)
			allocs[i] = testing.AllocsPerRun(1, func() { chip.New(cfg, w).PrewarmCaches() })
			// AllocsPerRun calls its function once before the measured run,
			// so each call prewarms a chip of its own.
			chips := []*chip.Chip{chip.New(cfg, w), chip.New(cfg, w)}
			next := 0
			prewarm := testing.AllocsPerRun(1, func() {
				chips[next].PrewarmCaches()
				next++
			})
			if prewarm > 1 {
				t.Errorf("%v at %d MB: PrewarmCaches allocates %.0f objects, want at most 1", d, mb, prewarm)
			}
		}
		if diff := allocs[1] - allocs[0]; diff <= -64 || diff >= 64 {
			t.Errorf("%v: setup allocates %.0f objects at 8 MB of LLC and %.0f at 16 MB", d, allocs[0], allocs[1])
		}
	}
}

// BenchmarkChipSetup times chip.New + PrewarmCaches on 64-core chips
// (Data Serving, 8 MB LLC), with their allocations. Mesh, FBfly and
// NOC-Out keep SharedNUCA's striped banks and prewarm bank by bank;
// NOC-Out with XOR placement prewarms line by line.
func BenchmarkChipSetup(b *testing.B) {
	for _, c := range []struct {
		d Design
		h HierarchyID
	}{{Mesh, SharedNUCA}, {FBfly, SharedNUCA}, {NOCOut, SharedNUCA}, {NOCOut, XORPlacement}} {
		cfg, w := setupCfg(b, c.d, 8)
		cfg.Hierarchy = c.h
		name := c.d.String()
		if c.h != SharedNUCA {
			name += "-" + c.h.String()
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				chip.New(cfg, w).PrewarmCaches()
			}
		})
	}
}
