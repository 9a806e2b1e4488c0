package nocout

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"nocout/internal/chip"
	"nocout/internal/sim"
	"nocout/internal/workload"
)

// This file holds the simulation loop and the checkpoint paths to
// allocating in proportion to the state they keep: a warmed chip's
// steady state allocates (almost) nothing, and a snapshot or a restore
// allocates a small multiple of its container. The measurements read
// process-wide counters, so none of these tests runs in parallel.

// allocChip builds a 64-core chip of design d on workload name (seed 1).
func allocChip(tb testing.TB, d Design, name string) (Config, workload.Workload, *chip.Chip) {
	tb.Helper()
	w, err := workload.Parse(name)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := chip.DefaultConfig(d)
	cfg.Cores = 64
	cfg.Seed = 1
	c := chip.New(cfg, w)
	c.PrewarmCaches()
	return cfg, w, c
}

// allocBytes returns the bytes the Go heap allocated while f ran.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSteadyStateAllocs: once warm, a chip recycles its MSHRs, packets
// and directory transactions, so 10k more cycles allocate fewer than 200
// objects however long the run.
func TestSteadyStateAllocs(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, d := range []Design{Mesh, NOCOut} {
		for _, name := range []string{"MapReduce-C", "Data Serving", "SAT Solver", "Web Search"} {
			_, _, c := allocChip(t, d, name)
			c.Warmup(30000)
			c.Run(20000)
			avg := testing.AllocsPerRun(2, func() { c.Run(10000) })
			t.Logf("%v/%s: %.0f objects per 10k cycles", d, name, avg)
			if avg >= 200 {
				t.Errorf("%v/%s: %.0f objects allocated per 10k steady-state cycles, want < 200", d, name, avg)
			}
		}
	}
}

// TestCheckpointAllocs: a snapshot allocates at most 3x the container it
// writes, and a restore at most what building the same chip allocates
// plus 1.5x the container it reads.
func TestCheckpointAllocs(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, d := range []Design{Mesh, NOCOut} {
		cfg, w, c := allocChip(t, d, "Data Serving")
		c.Warmup(12000)
		var buf bytes.Buffer
		if err := c.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		size := uint64(buf.Len())

		var err error
		snap := allocBytes(func() { err = c.Snapshot(io.Discard) })
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%v: %d B container; Snapshot allocates %.2fx it", d, size, float64(snap)/float64(size))
		if snap > 3*size {
			t.Errorf("%v: Snapshot allocated %d B for a %d B container (%.2fx), want at most 3x",
				d, snap, size, float64(snap)/float64(size))
		}

		build := allocBytes(func() { chip.New(cfg, w) })
		restore := allocBytes(func() { _, err = chip.Restore(cfg, w, 1, bytes.NewReader(buf.Bytes())) })
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%v: Restore allocates chip.New + %.2fx the container", d, (float64(restore)-float64(build))/float64(size))
		if restore > build+size*3/2 {
			t.Errorf("%v: Restore allocated %d B, %d B beyond chip.New for a %d B container (%.2fx), want at most 1.5x",
				d, restore, restore-build, size, float64(restore-build)/float64(size))
		}
	}
}
