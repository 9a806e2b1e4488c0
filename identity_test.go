package nocout

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// goldenPoint is a fixed, fully resolved point; the golden key below pins
// its Key bytes across releases.
func goldenPoint() Point {
	cfg := DefaultConfig(Mesh)
	cfg.Cores = 8
	cfg.Seed = 1
	return Point{
		Variant:  "Mesh",
		Design:   Mesh,
		Workload: "Web Search",
		Cores:    8,
		Seed:     1,
		Config:   cfg,
	}
}

// TestPointKeyGolden pins the key schema: campaign caches are addressed
// by these strings, so any change to what Key covers or how it
// canonicalizes MUST bump KeyVersion (never silently remap old caches) —
// and then update this golden.
func TestPointKeyGolden(t *testing.T) {
	const golden = "pt1-97d73d43d2a9e220b183a284a259cf2f007050dbf15090687da1793a827221b0"
	key, err := goldenPoint().Key(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if key != golden {
		t.Fatalf("golden point key drifted:\n got  %s\n want %s\nif the key schema changed deliberately, bump KeyVersion and update this golden", key, golden)
	}
}

// TestPointKeyRoundTrip checks the canonicalization guarantee: a Point
// decoded from a report or campaign manifest keys identically to the
// original, including uint64 seeds beyond float64 precision and
// trace-backed workloads.
func TestPointKeyRoundTrip(t *testing.T) {
	p := goldenPoint()
	p.Seed = 1<<63 + 3 // would corrupt through a float64 round trip
	p.Config.Seed = p.Seed
	orig, err := p.Key(tiny)
	if err != nil {
		t.Fatal(err)
	}

	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Point
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.wl != nil {
		t.Fatal("a decoded point must rehydrate through the registry")
	}
	got, err := back.Key(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if got != orig {
		t.Fatalf("key not JSON-round-trip stable:\n before %s\n after  %s", orig, got)
	}
}

// TestPointKeySensitivity checks that every ingredient of a point's
// identity changes the key — a cache hit must never alias a different
// measurement.
func TestPointKeySensitivity(t *testing.T) {
	base := goldenPoint()
	baseKey, err := base.Key(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(baseKey, KeyVersion+"-") || len(baseKey) != len(KeyVersion)+1+64 {
		t.Fatalf("key shape: %q", baseKey)
	}

	mutations := map[string]func(*Point){
		"seed":      func(p *Point) { p.Seed = 2; p.Config.Seed = 2 },
		"cores":     func(p *Point) { p.Config.Cores = 16 },
		"linkbits":  func(p *Point) { p.Config.LinkBits *= 2 },
		"hierarchy": func(p *Point) { p.Hierarchy = 1; p.Config.Hierarchy = 1 },
		"unlimited": func(p *Point) { p.Unlimited = true },
		"workload":  func(p *Point) { p.Workload = "Data Serving" },
		"mem":       func(p *Point) { p.Config.Mem.AccessLat += 30 },
	}
	for name, mutate := range mutations {
		p := base
		mutate(&p)
		key, err := p.Key(tiny)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if key == baseKey {
			t.Errorf("changing %s did not change the key", name)
		}
	}

	q := tiny
	q.Window *= 2
	if key, err := base.Key(q); err != nil || key == baseKey {
		t.Errorf("changing quality did not change the key (err %v)", err)
	}

	// The variant label is part of identity too (it names the report
	// cell), but an identical point must key identically — no hidden
	// nondeterminism.
	again, err := goldenPoint().Key(tiny)
	if err != nil || again != baseKey {
		t.Fatalf("identical points key differently: %s vs %s (err %v)", again, baseKey, err)
	}
}

// TestPointKeyErrors: a point whose workload this process cannot resolve
// must refuse to produce a key rather than alias by name alone.
func TestPointKeyErrors(t *testing.T) {
	p := goldenPoint()
	p.Workload = "No Such Workload"
	if _, err := p.Key(tiny); err == nil {
		t.Fatal("unknown workload must not key")
	}
	p = goldenPoint()
	p.WorkloadSpec = "trace:/no/such/file.noctrace"
	if _, err := p.Key(tiny); err == nil {
		t.Fatal("unreadable trace spec must not key")
	}
}

// TestPointKeyClosesRehydratedTrace: a point decoded from JSON resolves
// its "trace:<path>" spec by opening the file, and Key and PrefixKey must
// close it again, so keying a campaign manifest's trace sweep (as
// campaign.Create does) leaves no descriptor open.
func TestPointKeyClosesRehydratedTrace(t *testing.T) {
	openFDs := func() int { return countFDs(t) }
	openFDs()
	src, err := ParseWorkload("MapReduce-C")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mrc.noctrace")
	if err := RecordTraceFile(path, src, 16, 100, 1); err != nil {
		t.Fatal(err)
	}
	sw, err := NewExperiment(
		WithDesigns(Mesh, Torus, NOCOut),
		WithWorkloads("trace:"+path),
		WithCoreCounts(4, 8, 16),
		WithQuality(tiny),
	).Sweep()
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Points[0].wl.(*TraceFile).Close()
	data, err := json.Marshal(sw.Points)
	if err != nil {
		t.Fatal(err)
	}
	var points []Point
	if err := json.Unmarshal(data, &points); err != nil {
		t.Fatal(err)
	}
	if len(points) != 9 {
		t.Fatalf("%d points, want 9", len(points))
	}

	before := openFDs()
	for _, p := range points {
		if _, err := p.Key(tiny); err != nil {
			t.Fatal(err)
		}
		if _, err := p.PrefixKey(tiny, 0); err != nil {
			t.Fatal(err)
		}
	}
	if after := openFDs(); after != before {
		t.Fatalf("keying %d decoded trace points left %d descriptors open", len(points), after-before)
	}
}

// countFDs returns the number of descriptors the process holds open, and
// skips the test where /proc/self/fd cannot be read.
func countFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count open descriptors: %v", err)
	}
	return len(ents)
}

// TestSweepOpensEachTraceOnce: an Experiment opens each "trace:<path>"
// spec once and every Sweep it returns, concurrent ones included, shares
// the file; another spelling of the same recording dedups to that file
// and is closed; and a sweep that fails to expand closes the traces it
// opened.
func TestSweepOpensEachTraceOnce(t *testing.T) {
	countFDs(t)
	src, err := ParseWorkload("MapReduce-C")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "mrc.noctrace")
	if err := RecordTraceFile(path, src, 4, 100, 1); err != nil {
		t.Fatal(err)
	}
	spec := "trace:" + path
	respelled := "trace:" + dir + "/./mrc.noctrace"

	for _, c := range []struct {
		name  string
		specs []string
	}{
		{"one spec", []string{spec}},
		{"duplicated spec", []string{spec, spec, respelled}},
	} {
		before := countFDs(t)
		e := NewExperiment(WithDesigns(Mesh), WithWorkloads(c.specs...), WithCoreCounts(4), WithQuality(tiny))
		// The sweeps run at once, so -race sees them share the resolution.
		tfs := make([]*TraceFile, 10)
		var wg sync.WaitGroup
		for i := range tfs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sw, err := e.Sweep()
				if err != nil {
					t.Errorf("%s: sweep %d: %v", c.name, i, err)
					return
				}
				if len(sw.Points) != 1 {
					t.Errorf("%s: %d points, want 1", c.name, len(sw.Points))
					return
				}
				tfs[i] = sw.Points[0].wl.(*TraceFile)
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		for i, tf := range tfs {
			if tf != tfs[0] {
				t.Fatalf("%s: sweep %d opened the trace again", c.name, i)
			}
		}
		if opened := countFDs(t) - before; opened != 1 {
			t.Errorf("%s: 10 sweeps left %d descriptors open, want the one shared trace", c.name, opened)
		}
		tfs[0].Close()
	}

	// The recording replays under its source's name, which the synthetic
	// also has: the expansion fails and must close what it opened.
	before := countFDs(t)
	for i := 0; i < 2; i++ {
		if _, err := NewExperiment(WithDesigns(Mesh), WithWorkloads(spec, respelled, "MapReduce-C")).Sweep(); err == nil {
			t.Fatal("a trace and a synthetic sharing one name expanded")
		}
	}
	if opened := countFDs(t) - before; opened != 0 {
		t.Errorf("failed expansions left %d descriptors open", opened)
	}
}
