package nocout

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"nocout/internal/cpu"
)

func TestSweepExpansion(t *testing.T) {
	e := NewExperiment(
		WithDesigns(Ideal, Mesh),
		WithWorkloads("Data Serving", "MapReduce-W"),
		WithCoreCounts(16, 32, 64),
	)
	sw, err := e.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if sw.Len() != 2*2*3 {
		t.Fatalf("cartesian product = %d points, want 12", sw.Len())
	}
	// Expansion order: variants outer, then workloads, then core counts.
	first := sw.Points[0]
	if first.Variant != "Ideal" || first.Workload != "Data Serving" || first.Cores != 16 {
		t.Fatalf("first point = %+v", first)
	}
	last := sw.Points[sw.Len()-1]
	if last.Variant != "Mesh" || last.Workload != "MapReduce-W" || last.Config.Cores != 64 {
		t.Fatalf("last point = %+v", last)
	}
}

func TestSweepDedup(t *testing.T) {
	// The same design twice collapses to one set of points.
	sw, err := NewExperiment(
		WithDesigns(Mesh),
		WithDesigns(Mesh),
		WithWorkloads("SAT Solver"),
		WithCoreCounts(16, 16, 32),
	).Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if sw.Len() != 2 {
		t.Fatalf("dedup failed: %d points, want 2", sw.Len())
	}
}

func TestSweepErrors(t *testing.T) {
	if _, err := NewExperiment().Sweep(); err == nil {
		t.Fatal("experiment without variants must not expand")
	}
	_, err := NewExperiment(WithDesigns(Mesh), WithWorkloads("Quake")).Sweep()
	if err == nil || !strings.Contains(err.Error(), "Quake") {
		t.Fatalf("unknown workload error = %v", err)
	}
}

// TestSweepRejectsNegativeQuality pins the named error for a warmup or
// window below zero, which would otherwise reach the kernel as a
// negative Step.
func TestSweepRejectsNegativeQuality(t *testing.T) {
	for _, q := range []Quality{
		{Warmup: -1, Window: 100, Seeds: 1},
		{Warmup: 100, Window: -5, Seeds: 1},
	} {
		_, err := NewExperiment(WithDesigns(Mesh), WithWorkloads("SAT Solver"), WithQuality(q)).Sweep()
		if !errors.Is(err, ErrBadQuality) {
			t.Fatalf("quality %+v: Sweep error = %v, want ErrBadQuality", q, err)
		}
	}
	if _, err := NewExperiment(WithDesigns(Mesh), WithWorkloads("SAT Solver"), WithQuality(Quality{Seeds: 1})).Sweep(); err != nil {
		t.Fatalf("zero-length quality must still expand: %v", err)
	}
}

func TestSweepWorkloadNameCollision(t *testing.T) {
	// Two spellings of the same workload dedup to one set of points...
	sw, err := NewExperiment(
		WithDesigns(Mesh),
		WithWorkloads("Web Search", "websearch"),
	).Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if sw.Len() != 1 {
		t.Fatalf("alias dedup failed: %d points, want 1", sw.Len())
	}

	// A freshly wrapped copy of the same calibration also dedups:
	// aliases are metadata, not identity.
	p, err := WorkloadParamsOf("websearch")
	if err != nil {
		t.Fatal(err)
	}
	sw, err = NewExperiment(
		WithDesigns(Mesh),
		WithWorkloads("websearch"),
		WithWorkloadValues(SynthWorkload(p)),
	).Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if sw.Len() != 1 {
		t.Fatalf("same-calibration dedup failed: %d points, want 1", sw.Len())
	}

	// ...but a *different* workload under a taken name (a trace replays
	// under its source's name) must not silently vanish.
	ws, err := ParseWorkload("Web Search")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ws.noctrace")
	if err := RecordTraceFile(path, ws, 2, 50, 1); err != nil { // short: looping, not equivalent
		t.Fatal(err)
	}
	tf, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.(*TraceFile).Close()
	_, err = NewExperiment(
		WithDesigns(Mesh),
		WithWorkloads("Web Search"),
		WithWorkloadValues(tf),
	).Sweep()
	if err == nil || !strings.Contains(err.Error(), "Web Search") {
		t.Fatalf("name collision must be a hard error, got %v", err)
	}
}

// TestSweepConfigureAndUnlimited checks the options that reconfigure
// every point of a sweep: WithSeed and WithUnlimitedCores.
func TestSweepConfigureAndUnlimited(t *testing.T) {
	sw, err := NewExperiment(
		WithDesigns(Mesh),
		WithWorkloads("Web Search"), // MaxCores 16 in the suite
		WithCoreCounts(64),
		WithSeed(42),
		WithUnlimitedCores(),
	).Sweep()
	if err != nil {
		t.Fatal(err)
	}
	p := sw.Points[0]
	if p.Seed != 42 || p.Config.Seed != 42 {
		t.Fatalf("seed override not applied: %+v", p)
	}
	if p.wl.MaxCores() < 64 {
		t.Fatalf("WithUnlimitedCores must lift the cap past the chip size, got %d", p.wl.MaxCores())
	}

	// Seed 0 is a valid override, not "unset".
	sw, err = NewExperiment(WithDesigns(Mesh), WithWorkloads("SAT Solver"), WithSeed(0)).Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if s := sw.Points[0].Config.Seed; s != 0 {
		t.Fatalf("WithSeed(0) ignored: config seed %d", s)
	}
}

// TestRunnerDeterminism checks the engine's core contract: identical
// results regardless of worker count.
func TestRunnerDeterminism(t *testing.T) {
	e := NewExperiment(
		WithDesigns(Ideal, Mesh),
		WithWorkloads("Web Search"),
		WithCoreCounts(8),
		WithQuality(tiny),
	)
	sw, err := e.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	var calls int
	serial, err := (&Runner{Workers: 1, Progress: func(done, total int, p Point, r Result) {
		calls++
		if total != sw.Len() || done < 1 || done > total {
			t.Errorf("progress(%d, %d)", done, total)
		}
	}}).Run(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	if calls != sw.Len() {
		t.Fatalf("progress called %d times, want %d", calls, sw.Len())
	}
	wide, err := (&Runner{Workers: 8}).Run(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Results, wide.Results) {
		t.Fatalf("results differ across worker counts:\n1: %+v\n8: %+v", serial.Results, wide.Results)
	}
	if serial.Results[0].Result.AggIPC <= 0 {
		t.Fatalf("no throughput: %+v", serial.Results[0])
	}
}

func TestRunnerCancellation(t *testing.T) {
	e := NewExperiment(WithDesigns(Mesh, Ideal), WithCoreCounts(8), WithQuality(tiny))
	sw, err := e.Sweep()
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the sweep starts
	if rep, err := (&Runner{}).Run(ctx, sw); err != context.Canceled || rep != nil {
		t.Fatalf("pre-cancelled run = (%v, %v), want (nil, context.Canceled)", rep, err)
	}

	// Cancel mid-sweep, from the progress callback after the first point.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	rn := &Runner{Workers: 1, Progress: func(done, total int, p Point, r Result) {
		if done == 1 {
			cancel()
		}
	}}
	if rep, err := rn.Run(ctx, sw); err != context.Canceled || rep != nil {
		t.Fatalf("mid-sweep cancel = (%v, %v), want (nil, context.Canceled)", rep, err)
	}
}

// brokenSweep returns a two-point sweep whose second point cannot build:
// PrivateLLC needs a tiled organization and NOC-Out is not one, so
// chip.New raises a deterministic configuration error.
func brokenSweep(t *testing.T) Sweep {
	t.Helper()
	bad := DefaultConfig(NOCOut)
	bad.Cores = 8
	bad.Hierarchy = PrivateLLC
	good := DefaultConfig(Mesh)
	good.Cores = 8
	sw, err := NewExperiment(
		WithVariant("Good", good),
		WithVariant("Bad", bad),
		WithWorkloads("SAT Solver"),
		WithQuality(tiny),
	).Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if sw.Len() != 2 || sw.Points[1].Variant != "Bad" {
		t.Fatalf("unexpected sweep: %+v", sw.Points)
	}
	return sw
}

// TestRunnerFailFastNamesPoint: the default contract — the first broken
// point aborts the sweep, and the error (a chip.New panic recovered by
// runSeeds) names the point that raised it.
func TestRunnerFailFastNamesPoint(t *testing.T) {
	sw := brokenSweep(t)
	rep, err := (&Runner{Workers: 1}).Run(context.Background(), sw)
	if err == nil || rep != nil {
		t.Fatalf("broken point must abort: (%v, %v)", rep, err)
	}
	if !strings.Contains(err.Error(), "Bad / SAT Solver") {
		t.Fatalf("error must name the point: %v", err)
	}
	if !strings.Contains(err.Error(), "tiled organization") {
		t.Fatalf("error must keep the cause: %v", err)
	}
}

// TestRunnerKeepGoing: with KeepGoing the broken point lands in its
// report row (PointResult.Err, surfaced in the CSV error column) and the
// healthy point still measures.
func TestRunnerKeepGoing(t *testing.T) {
	sw := brokenSweep(t)
	rep, err := (&Runner{Workers: 2, KeepGoing: true}).Run(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	good, bad := rep.Results[0], rep.Results[1]
	if good.Err != "" || good.Result.AggIPC <= 0 {
		t.Fatalf("healthy point: %+v", good)
	}
	if bad.Err == "" || !strings.Contains(bad.Err, "tiled organization") {
		t.Fatalf("broken point must carry its error: %+v", bad)
	}
	if bad.Result.AggIPC != 0 {
		t.Fatalf("failed point must not carry a result: %+v", bad)
	}

	var cs strings.Builder
	if err := rep.WriteCSV(&cs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(cs.String()), "\n")
	if !strings.HasSuffix(lines[0], ",error") {
		t.Fatalf("CSV header must end with the error column: %q", lines[0])
	}
	if !strings.Contains(lines[2], "tiled organization") {
		t.Fatalf("CSV row must carry the point error: %q", lines[2])
	}
}

// TestReportTableShowsFailures: a KeepGoing report's table grows an error
// column carrying the failed point's error, so its zero Result cannot
// read as a measurement; a report without failures has no such column.
func TestReportTableShowsFailures(t *testing.T) {
	rep, err := (&Runner{Workers: 2, KeepGoing: true}).Run(context.Background(), brokenSweep(t))
	if err != nil {
		t.Fatal(err)
	}
	// Title, header, then the Good and Bad rows.
	lines := strings.Split(rep.Table().String(), "\n")
	if !strings.HasSuffix(strings.TrimSpace(lines[1]), "NoC W  error") {
		t.Fatalf("header must end with an error column: %q", lines[1])
	}
	if strings.Contains(lines[2], "tiled organization") || !strings.Contains(lines[3], "tiled organization") {
		t.Fatalf("only the failed row may carry an error:\n%s\n%s", lines[2], lines[3])
	}
	healthy := &Report{Title: rep.Title, Results: rep.Results[:1]}
	if header := strings.Split(healthy.Table().String(), "\n")[1]; !strings.HasSuffix(strings.TrimSpace(header), "NoC W") {
		t.Fatalf("a report without failures grew columns: %q", header)
	}
}

// emptyStreams is a workload with a programming bug: StreamFor indexes an
// empty slice, so building the chip dies with a Go runtime error on a
// seed goroutine.
type emptyStreams struct{ Workload }

func (emptyStreams) StreamFor(coreID int, _ uint64) cpu.Stream {
	var streams []cpu.Stream
	return streams[coreID]
}

// TestRunnerRuntimeErrorCarriesStack: a runtime error inside a point's
// simulation comes back as an error that names the point and keeps the
// seed goroutine's stack, so the crash site is not lost. KeepGoing
// records the same text in the point's PointResult.Err.
func TestRunnerRuntimeErrorCarriesStack(t *testing.T) {
	ws, err := ParseWorkload("Web Search")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(Mesh)
	cfg.Cores = 4
	sw, err := NewExperiment(
		WithVariant("v", cfg),
		WithWorkloadValues(emptyStreams{ws}),
		WithQuality(tiny),
	).Sweep()
	if err != nil {
		t.Fatal(err)
	}
	check := func(mode, msg string) {
		t.Helper()
		for _, want := range []string{
			"nocout: point v / Web Search / 4 cores: runtime error: index out of range",
			"worker goroutine stack:",
			"emptyStreams",
		} {
			if !strings.Contains(msg, want) {
				t.Errorf("%s: error lacks %q:\n%s", mode, want, msg)
			}
		}
	}

	rep, err := (&Runner{Workers: 1}).Run(context.Background(), sw)
	if err == nil || rep != nil {
		t.Fatalf("broken workload must abort: (%v, %v)", rep, err)
	}
	check("fail-fast", err.Error())

	rep, err = (&Runner{Workers: 1, KeepGoing: true}).Run(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	check("KeepGoing", rep.Results[0].Err)
}

// recordingCache is a Cache fake that records Store calls.
type recordingCache struct {
	mu     sync.Mutex
	stored []PointResult
}

func (c *recordingCache) Lookup(Point, Quality) (PointResult, bool, error) {
	return PointResult{}, false, nil
}

func (c *recordingCache) Store(pr PointResult, _ Quality) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stored = append(c.stored, pr)
	return nil
}

// cancelOnBuild fires cancel once from inside chip construction — after
// runSeeds' last pre-simulation context check, so the simulation runs to
// completion under an already-cancelled context.
type cancelOnBuild struct {
	Workload
	once   *sync.Once
	cancel context.CancelFunc
}

func (c cancelOnBuild) CoreParams(coreID int, seed uint64) cpu.Params {
	c.once.Do(c.cancel)
	return c.Workload.CoreParams(coreID, seed)
}

// TestRunnerCancelAfterComplete pins the silent-result-loss fix: a point
// whose simulation completes after cancellation landed is still stored,
// counted, and paid for — the run as a whole still reports ctx.Err().
func TestRunnerCancelAfterComplete(t *testing.T) {
	w, err := ParseWorkload("SAT Solver")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(Mesh)
	cfg.Cores = 8
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sw := Sweep{Title: "cancel-after-complete", Quality: tiny, Points: []Point{{
		Variant: "Mesh", Design: Mesh, Workload: w.Name(), Seed: cfg.Seed, Config: cfg,
		wl: cancelOnBuild{Workload: w, once: &sync.Once{}, cancel: cancel},
	}}}

	cache := &recordingCache{}
	progressed := 0
	rep, err := (&Runner{Workers: 1, Cache: cache, Progress: func(done, total int, p Point, r Result) {
		progressed++
	}}).Run(ctx, sw)
	if err != context.Canceled || rep != nil {
		t.Fatalf("cancelled run = (%v, %v), want (nil, context.Canceled)", rep, err)
	}
	if len(cache.stored) != 1 {
		t.Fatalf("completed simulation must be stored despite cancellation; stored %d", len(cache.stored))
	}
	if pr := cache.stored[0]; pr.Err != "" || pr.Result.AggIPC <= 0 {
		t.Fatalf("stored result must be the real measurement: %+v", pr)
	}
	if progressed != 1 {
		t.Fatalf("completed simulation must be counted; progress calls = %d", progressed)
	}
}

// TestRunnerProgressMonotonic: under a wide pool the done counter is
// strictly 1..N with no gaps or repeats (run with -race to check the
// callback serialization too).
func TestRunnerProgressMonotonic(t *testing.T) {
	sw, err := NewExperiment(
		WithDesigns(Ideal),
		WithWorkloads("SAT Solver", "Data Serving", "MapReduce-C", "MapReduce-W"),
		WithCoreCounts(8, 16),
		WithQuality(tiny),
	).Sweep()
	if err != nil {
		t.Fatal(err)
	}
	var seq []int
	rep, err := (&Runner{Workers: 8, Progress: func(done, total int, p Point, r Result) {
		if total != sw.Len() {
			t.Errorf("total = %d, want %d", total, sw.Len())
		}
		seq = append(seq, done) // Progress calls are serialized; -race verifies
	}}).Run(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != sw.Len() {
		t.Fatalf("progress calls = %d, want %d", len(seq), sw.Len())
	}
	for i, d := range seq {
		if d != i+1 {
			t.Fatalf("done sequence not strictly monotonic: %v", seq)
		}
	}
	for _, pr := range rep.Results {
		if pr.Result.AggIPC <= 0 {
			t.Fatalf("missing result: %+v", pr.Point)
		}
	}
}

// TestSeedDerivation pins the runSeeds seed schedule: seed s runs at
// base+s*7919 (the historical bug compounded the offsets), so a 2-seed
// run averages exactly the two single-seed runs.
func TestSeedDerivation(t *testing.T) {
	cfg := DefaultConfig(Mesh)
	cfg.Cores = 8

	q2 := tiny
	q2.Seeds = 2
	avg := measure(t, cfg, q2, WithWorkloads("SAT Solver"))

	var single [2]Result
	for s := range single {
		c := cfg
		c.Seed = cfg.Seed + uint64(s)*7919
		single[s] = measure(t, c, tiny, WithWorkloads("SAT Solver"))
	}
	want := (single[0].AggIPC + single[1].AggIPC) / 2
	if diff := avg.AggIPC - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("2-seed AggIPC %.9f != mean of per-seed runs %.9f", avg.AggIPC, want)
	}
	if single[0].AggIPC == single[1].AggIPC {
		t.Fatal("distinct seeds should not measure identically")
	}
}

func TestReportEncoders(t *testing.T) {
	rep := &Report{
		Title:   "enc",
		Quality: tiny,
		Results: []PointResult{{
			Point: Point{Variant: "NOC-Out", Design: NOCOut, Workload: "Web Search",
				Cores: 64, Seed: 1, Config: DefaultConfig(NOCOut)},
			Result: Result{Design: NOCOut, Workload: "Web Search", ActiveCores: 16,
				AggIPC: 12.5, PerCoreIPC: 12.5 / 16},
		}},
	}

	var js strings.Builder
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"design": "NOC-Out"`) {
		t.Fatalf("design should marshal by name:\n%s", js.String())
	}
	var back Report
	if err := json.Unmarshal([]byte(js.String()), &back); err != nil {
		t.Fatal(err)
	}
	if back.Results[0].Result.Design != NOCOut || back.Results[0].Result.AggIPC != 12.5 {
		t.Fatalf("JSON round trip lost data: %+v", back.Results[0])
	}

	var cs strings.Builder
	if err := rep.WriteCSV(&cs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(cs.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV = %d lines, want header + 1 row:\n%s", len(lines), cs.String())
	}
	if !strings.HasPrefix(lines[0], "variant,design,hierarchy,workload,cores") {
		t.Fatalf("CSV header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "NOC-Out,SharedNUCA,Web Search,64") {
		t.Fatalf("CSV row = %q", lines[1])
	}

	if s := rep.Table().String(); !strings.Contains(s, "NOC-Out") {
		t.Fatalf("table renderer:\n%s", s)
	}
}

func TestReportGet(t *testing.T) {
	rep := &Report{Results: []PointResult{{
		Point:  Point{Variant: "Mesh", Workload: "SAT Solver", Cores: 32},
		Result: Result{AggIPC: 7},
	}}}
	if r, ok := rep.Get("Mesh", "SAT Solver", 32); !ok || r.AggIPC != 7 {
		t.Fatalf("Get = (%+v, %v)", r, ok)
	}
	if _, ok := rep.Get("Mesh", "SAT Solver", 64); ok {
		t.Fatal("Get must miss on a different core count")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustGet on a missing cell must panic")
		}
	}()
	rep.MustGet("Ideal", "SAT Solver", 32)
}

func TestParseDesign(t *testing.T) {
	cases := map[string]Design{
		"mesh": Mesh, "Mesh": Mesh,
		"fbfly": FBfly, "flattened-butterfly": FBfly, "Flattened Butterfly": FBfly,
		"nocout": NOCOut, "NOC-Out": NOCOut,
		"ideal": Ideal,
		"torus": Torus, "Torus": Torus,
		"cmesh": CMesh, "concentrated-mesh": CMesh,
		"crossbar": Crossbar, "xbar": Crossbar,
	}
	for s, want := range cases {
		d, err := ParseDesign(s)
		if err != nil || d != want {
			t.Errorf("ParseDesign(%q) = (%v, %v), want %v", s, d, err, want)
		}
	}
	if _, err := ParseDesign("hypercube"); err == nil {
		t.Fatal("unknown design must error")
	}
}

func TestParseQuality(t *testing.T) {
	if q, err := ParseQuality("quick"); err != nil || q != Quick {
		t.Fatalf("quick = (%+v, %v)", q, err)
	}
	if q, err := ParseQuality("Full"); err != nil || q != Full {
		t.Fatalf("full = (%+v, %v)", q, err)
	}
	if _, err := ParseQuality("heroic"); err == nil {
		t.Fatal("unknown quality must error")
	}
}
