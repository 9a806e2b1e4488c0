package nocout

import (
	"encoding/json"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// This file is the cross-workload conformance suite: every registered
// workload — builtin synthetic, the Mix/Phased examples, and anything
// added through RegisterWorkload — is held to the same behavioral
// contract, and the trace facility is proven end to end (a recording of
// a builtin reproduces the builtin's Result exactly through a sweep and
// the "trace:<path>" scheme).

// TestWorkloadRegistryComplete pins the registered workload space: the
// paper's six in figure order, then the example families.
func TestWorkloadRegistryComplete(t *testing.T) {
	want := []string{"Data Serving", "MapReduce-C", "MapReduce-W", "SAT Solver",
		"Web Frontend", "Web Search", "Consolidated", "MapReduce-Phased",
		"Open Poisson", "Open MMPP", "Open Burst"}
	ws := RegisteredWorkloads()
	if len(ws) < len(want) {
		t.Fatalf("registry has %d workloads, want >= %d", len(ws), len(want))
	}
	for i, name := range want {
		if ws[i].Name() != name {
			t.Errorf("RegisteredWorkloads()[%d] = %q, want %q", i, ws[i].Name(), name)
		}
	}
	// The satellite aliases the issue names explicitly.
	for alias, name := range map[string]string{
		"data-serving": "Data Serving",
		"websearch":    "Web Search",
		"mix":          "Consolidated",
		"phased":       "MapReduce-Phased",
		"open-poisson": "Open Poisson",
		"open-mmpp":    "Open MMPP",
		"open-burst":   "Open Burst",
	} {
		w, err := ParseWorkload(alias)
		if err != nil || w.Name() != name {
			t.Errorf("ParseWorkload(%q) = (%v, %v), want %q", alias, w, err, name)
		}
	}
}

// TestWorkloadConformance is the cross-workload contract: deterministic
// streams, a sane scalability limit, valid core parameters with the
// seed threaded through, a prewarmable layout, and name round-trips
// through the registry.
func TestWorkloadConformance(t *testing.T) {
	for _, w := range RegisteredWorkloads() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			t.Parallel()

			// Name and alias round-trips, case-insensitively.
			for _, spelling := range append([]string{w.Name(), strings.ToUpper(w.Name())}, w.Aliases()...) {
				got, err := ParseWorkload(spelling)
				if err != nil || got.Name() != w.Name() {
					t.Fatalf("ParseWorkload(%q) = (%v, %v), want %q", spelling, got, err, w.Name())
				}
			}

			if mc := w.MaxCores(); mc < 1 {
				t.Fatalf("MaxCores = %d", mc)
			}

			// CoreParams: valid for the cpu model, seed threaded through,
			// deterministic.
			for _, core := range []int{0, 1, 63} {
				cp := w.CoreParams(core, 7)
				if cp.Seed != 7 {
					t.Fatalf("core %d: seed not threaded: %+v", core, cp)
				}
				if cp.Width < 1 || cp.ROB < cp.Width || cp.BaseCPI < 1.0/float64(cp.Width) ||
					math.IsNaN(cp.BaseCPI) || cp.DepChance < 0 || cp.DepChance > 1 {
					t.Fatalf("core %d: invalid params %+v", core, cp)
				}
				if cp != w.CoreParams(core, 7) {
					t.Fatalf("core %d: CoreParams not deterministic", core)
				}
			}

			// Streams: same (core, seed) => identical instruction sequence.
			// KindIdle (3) is the open-system "no work pending" answer and is
			// as valid as the ALU/load/store kinds.
			a, b := w.StreamFor(1, 42), w.StreamFor(1, 42)
			for i := 0; i < 2000; i++ {
				x, y := a.Next(), b.Next()
				if x != y {
					t.Fatalf("stream diverged at %d: %+v vs %+v", i, x, y)
				}
				if x.Kind > 3 {
					t.Fatalf("instruction %d has invalid kind %d", i, x.Kind)
				}
			}

			// Layout: prewarmable shared regions and per-core locals.
			lay := w.Layout()
			if lay.Instr.Size == 0 {
				t.Fatal("layout has no instruction footprint")
			}
			if lay.Local == nil {
				t.Fatal("layout has no local-region function")
			}
			for _, core := range []int{0, 1, w.MaxCores() - 1} {
				if r := lay.Local(core); r.Size == 0 {
					t.Fatalf("core %d has an empty local region", core)
				}
			}
		})
	}
}

// TestWorkloadsThroughEngineAndJSON measures every registered workload
// through the sweep engine on a small mesh and round-trips the Report
// through JSON: results (per-member breakdowns included) must survive
// encoding, and repeated runs must be bit-identical.
func TestWorkloadsThroughEngineAndJSON(t *testing.T) {
	spec := func() *Experiment {
		return NewExperiment(
			WithTitle("workload conformance"),
			WithVariant("Mesh", func() Config {
				cfg := DefaultConfig(Mesh)
				cfg.Cores = 8
				return cfg
			}()),
			WithQuality(confQ), // all registered workloads: the default set
		)
	}
	rep, err := spec().Run(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range RegisteredWorkloads() {
		res, ok := rep.Get("Mesh", w.Name(), 0)
		if !ok || res.AggIPC <= 0 {
			t.Fatalf("%s: no measurement (%v, %v)", w.Name(), res, ok)
		}
	}

	var buf strings.Builder
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal([]byte(buf.String()), &back); err != nil {
		t.Fatal(err)
	}
	for i := range rep.Results {
		if !reflect.DeepEqual(rep.Results[i].Result, back.Results[i].Result) {
			t.Fatalf("result %d did not survive JSON:\n%+v\n%+v", i, rep.Results[i].Result, back.Results[i].Result)
		}
	}

	again, err := spec().Run(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Results, again.Results) {
		t.Fatal("workload sweep is not deterministic")
	}
}

// TestMixPerMemberBreakdown checks the heterogeneous accounting: the
// Consolidated example reports one IPC per member and they sum to the
// aggregate.
func TestMixPerMemberBreakdown(t *testing.T) {
	cfg := DefaultConfig(Mesh)
	cfg.Cores = 16
	res := measure(t, cfg, confQ, WithWorkloads("mix"))
	if len(res.PerWorkloadIPC) != 3 {
		t.Fatalf("breakdown = %v, want the three Consolidated members", res.PerWorkloadIPC)
	}
	sum := 0.0
	for name, ipc := range res.PerWorkloadIPC {
		if ipc <= 0 {
			t.Fatalf("member %s has no throughput", name)
		}
		sum += ipc
	}
	if math.Abs(sum-res.AggIPC) > 1e-9 {
		t.Fatalf("member IPCs sum to %.6f, aggregate is %.6f", sum, res.AggIPC)
	}
	if !strings.Contains(res.String(), "Data Serving") {
		t.Fatalf("String() should surface the breakdown: %s", res)
	}

	// Homogeneous runs must stay breakdown-free.
	homog := measure(t, cfg, confQ, WithWorkloads("MapReduce-C"))
	if homog.PerWorkloadIPC != nil {
		t.Fatalf("homogeneous run grew a breakdown: %v", homog.PerWorkloadIPC)
	}
}

// TestTraceReplayReproducesBuiltin is the trace acceptance contract: a
// workload recorded to a trace file and resolved through the
// "trace:<path>" scheme reproduces the builtin's Quick-quality Result bit
// for bit through a sweep, under the source's name (the CLI resolves
// through the same ParseWorkload path).
func TestTraceReplayReproducesBuiltin(t *testing.T) {
	cfg := DefaultConfig(Mesh)
	cfg.Cores = 16
	// A quick-quality run steps Warmup+Window cycles and fetch consumes
	// at most 3 instructions per cycle, so this recording never wraps.
	perCore := int(Quick.Warmup+Quick.Window) * 3
	src, err := ParseWorkload("MapReduce-C")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mrc.noctrace")
	if err := RecordTraceFile(path, src, cfg.Cores, perCore, cfg.Seed); err != nil {
		t.Fatal(err)
	}

	want := measure(t, cfg, Quick, WithWorkloads("MapReduce-C"))
	rep, err := NewExperiment(
		WithTitle("trace replay"),
		WithVariant("Mesh", cfg),
		WithWorkloads("trace:"+path),
		WithQuality(Quick),
	).Run(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	// The replay reports the recorded source's name.
	swept := rep.MustGet("Mesh", "MapReduce-C", 0)
	if !reflect.DeepEqual(want, swept) {
		t.Fatalf("sweep replay diverged from the builtin:\nbuiltin %+v\nreplay  %+v", want, swept)
	}
}

// TestNOC3TraceReplayReproducesBuiltin is the NOC3 container contract: a
// recording streams into a NOC3 file, LoadTrace opens it as a
// *TraceFile, and O(block) replay reproduces the live workload's Result
// bit for bit — it changes memory behaviour, never measurements.
// Recording is deterministic, so two recordings of the same source
// fingerprint identically and share every content-addressed cache entry.
func TestNOC3TraceReplayReproducesBuiltin(t *testing.T) {
	cfg := DefaultConfig(Mesh)
	cfg.Cores = 16
	perCore := int(Quick.Warmup+Quick.Window) * 3
	src, err := ParseWorkload("MapReduce-C")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var fps [][]byte
	for _, name := range []string{"a.noctrace", "b.noctrace"} {
		path := filepath.Join(dir, name)
		if err := RecordTraceFile(path, src, cfg.Cores, perCore, cfg.Seed); err != nil {
			t.Fatal(err)
		}
		info, err := InspectTrace(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Format != "NOC3" {
			t.Fatalf("RecordTraceFile wrote %s, want NOC3", info.Format)
		}
		w, err := LoadTrace(path)
		if err != nil {
			t.Fatal(err)
		}
		tf, ok := w.(*TraceFile)
		if !ok {
			t.Fatalf("LoadTrace returned %T, want *TraceFile", w)
		}
		defer tf.Close()
		fp, err := FingerprintWorkload(tf)
		if err != nil {
			t.Fatal(err)
		}
		fps = append(fps, fp)
	}
	if string(fps[0]) != string(fps[1]) {
		t.Fatalf("two recordings of one source fingerprint differently:\n%s\n%s", fps[0], fps[1])
	}

	tf, err := LoadTrace(filepath.Join(dir, "a.noctrace"))
	if err != nil {
		t.Fatal(err)
	}
	defer tf.(*TraceFile).Close()
	want := measure(t, cfg, Quick, WithWorkloadValues(src))
	got := measure(t, cfg, Quick, WithWorkloadValues(tf))
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("NOC3 replay diverged from the live workload:\nlive   %+v\nreplay %+v", want, got)
	}
}

// TestTraceReplayPreservesMixBreakdown: a trace of a heterogeneous
// workload, run by name through "trace:<path>", reports the same
// per-member breakdown as the builtin mix.
func TestTraceReplayPreservesMixBreakdown(t *testing.T) {
	cfg := DefaultConfig(Mesh)
	cfg.Cores = 8
	mix, err := ParseWorkload("Consolidated")
	if err != nil {
		t.Fatal(err)
	}
	perCore := int(confQ.Warmup+confQ.Window) * 3
	path := filepath.Join(t.TempDir(), "mix.noctrace")
	if err := RecordTraceFile(path, mix, cfg.Cores, perCore, cfg.Seed); err != nil {
		t.Fatal(err)
	}
	want := measure(t, cfg, confQ, WithWorkloads("Consolidated"))
	got := measure(t, cfg, confQ, WithWorkloads("trace:"+path))
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("mix trace replay diverged:\nlive   %+v\nreplay %+v", want, got)
	}
	if len(got.PerWorkloadIPC) != 3 {
		t.Fatalf("replayed breakdown = %v", got.PerWorkloadIPC)
	}
}

// TestNOC3TraceReplayPreservesMixBreakdown: a NOC3 recording of a
// heterogeneous workload replays with the recorded member attribution.
func TestNOC3TraceReplayPreservesMixBreakdown(t *testing.T) {
	cfg := DefaultConfig(Mesh)
	cfg.Cores = 8
	mix, err := ParseWorkload("Consolidated")
	if err != nil {
		t.Fatal(err)
	}
	perCore := int(confQ.Warmup+confQ.Window) * 3
	path := filepath.Join(t.TempDir(), "mix3.noctrace")
	if err := RecordTraceFile(path, mix, cfg.Cores, perCore, cfg.Seed); err != nil {
		t.Fatal(err)
	}
	tf, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	want := measure(t, cfg, confQ, WithWorkloadValues(mix))
	got := measure(t, cfg, confQ, WithWorkloadValues(tf))
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("NOC3 mix replay diverged:\nlive   %+v\nreplay %+v", want, got)
	}
	if len(got.PerWorkloadIPC) != 3 {
		t.Fatalf("replayed breakdown = %v", got.PerWorkloadIPC)
	}
}

// TestUnlimitedWorkloadFacade pins the cap-lifting wrapper's public
// behaviour: WithUnlimitedCores enables every core for a 16-core-limited
// workload without touching the underlying registration.
func TestUnlimitedWorkloadFacade(t *testing.T) {
	cfg := DefaultConfig(Mesh)
	cfg.Cores = 32
	res := measure(t, cfg, confQ, WithWorkloads("Web Search"), WithUnlimitedCores())
	if res.ActiveCores != 32 {
		t.Fatalf("unlimited run enabled %d cores, want 32", res.ActiveCores)
	}
	capped := measure(t, cfg, confQ, WithWorkloads("Web Search"))
	if capped.ActiveCores != 16 {
		t.Fatalf("the registered workload must stay capped at 16, got %d", capped.ActiveCores)
	}
}
