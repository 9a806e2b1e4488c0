package nocout

import (
	"context"
	"slices"
	"strings"
	"testing"
)

// tiny is a minimal-effort quality for unit tests.
var tiny = Quality{Warmup: 6000, Window: 8000, Seeds: 1}

// measure runs cfg at quality q as a one-point Experiment, the options
// naming its workload, and returns the point's Result; any error fails
// tb.
func measure(tb testing.TB, cfg Config, q Quality, opts ...Option) Result {
	tb.Helper()
	opts = append([]Option{WithVariant(cfg.Design.String(), cfg), WithQuality(q)}, opts...)
	rep, err := NewExperiment(opts...).Run(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	if len(rep.Results) != 1 {
		tb.Fatalf("measure: %d points, want 1", len(rep.Results))
	}
	return rep.Results[0].Result
}

func TestRunFacade(t *testing.T) {
	res := measure(t, DefaultConfig(NOCOut), tiny, WithWorkloads("Web Search"))
	if res.ActiveCores != 16 {
		t.Fatalf("Web Search should run on 16 cores, got %d", res.ActiveCores)
	}
	if res.AggIPC <= 0 || res.PerCoreIPC <= 0 {
		t.Fatalf("no throughput: %+v", res)
	}
	if res.NoCPower.Total() <= 0 {
		t.Fatal("power must be positive")
	}
	if !strings.Contains(res.String(), "Web Search") {
		t.Fatal("String() should mention the workload")
	}
}

// TestPowerUsesResolvedLinkBits: a zero LinkBits simulates at the chip's
// 128-bit default, so the reported NoC power must be the 128-bit power
// too, not a 0-bit area model's (which is near zero for the mesh and
// panics for the torus, whose bubble thresholds need a packet size).
func TestPowerUsesResolvedLinkBits(t *testing.T) {
	q := Quality{Warmup: 1000, Window: 2000, Seeds: 1}
	for _, d := range []Design{Mesh, Torus} {
		cfg := DefaultConfig(d)
		cfg.Cores = 16
		want := measure(t, cfg, q, WithWorkloads("Data Serving"))
		cfg.LinkBits = 0
		got := measure(t, cfg, q, WithWorkloads("Data Serving"))
		if got.AggIPC != want.AggIPC || got.NoCPower != want.NoCPower {
			t.Errorf("%v at LinkBits 0: IPC %v, power %+v; want the 128-bit IPC %v, power %+v",
				d, got.AggIPC, got.NoCPower, want.AggIPC, want.NoCPower)
		}
	}
}

func TestRunUnknownWorkload(t *testing.T) {
	_, err := NewExperiment(WithDesigns(Mesh), WithWorkloads("Quake"), WithQuality(tiny)).Run(t.Context())
	if err == nil || !strings.Contains(err.Error(), "Quake") {
		t.Fatalf("unknown workload error = %v", err)
	}
}

// TestWorkloadsList pins the registry order: the paper's six, then the
// builtin Mix and Phased examples. A default Experiment sweeps the
// registry in that order.
func TestWorkloadsList(t *testing.T) {
	var ws []string
	for _, w := range RegisteredWorkloads() {
		ws = append(ws, w.Name())
	}
	want := []string{"Data Serving", "MapReduce-C", "MapReduce-W", "SAT Solver", "Web Frontend", "Web Search",
		"Consolidated", "MapReduce-Phased"}
	if len(ws) < len(want) {
		t.Fatalf("suite = %v", ws)
	}
	for i := range want {
		if ws[i] != want[i] {
			t.Fatalf("suite order = %v", ws)
		}
	}
	sw, err := NewExperiment(WithDesigns(Mesh)).Sweep()
	if err != nil {
		t.Fatal(err)
	}
	var swept []string
	for _, p := range sw.Points {
		swept = append(swept, p.Workload)
	}
	if !slices.Equal(swept, ws) {
		t.Fatalf("default sweep = %v, want the registry %v", swept, ws)
	}
}

func TestSeedAveraging(t *testing.T) {
	q := tiny
	q.Seeds = 2
	res := measure(t, DefaultConfig(Mesh), q, WithWorkloads("SAT Solver"))
	if res.AggIPC <= 0 {
		t.Fatal("multi-seed run broken")
	}
}

func TestAreaFacade(t *testing.T) {
	am := Area(DefaultConfig(Mesh))
	af := Area(DefaultConfig(FBfly))
	an := Area(DefaultConfig(NOCOut))
	if !(an.Total() < am.Total() && am.Total() < af.Total()) {
		t.Fatalf("area ordering: nocout %.2f mesh %.2f fbfly %.2f", an.Total(), am.Total(), af.Total())
	}
	if Area(DefaultConfig(Ideal)).Total() != 0 {
		t.Fatal("ideal fabric has no modelled area")
	}
}

func TestTable1(t *testing.T) {
	s := Table1().String()
	for _, want := range []string{"64 cores", "8MB", "DDR3-1667", "Cortex-A15", "128 bits", "2-stage speculative"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, s)
		}
	}
}

func TestFigure8Structure(t *testing.T) {
	r := Figure8()
	if len(r.Designs) != 3 || len(r.Breakdowns) != 3 {
		t.Fatalf("Figure8: %+v", r)
	}
	s := r.Table().String()
	if !strings.Contains(s, "NOC-Out") || !strings.Contains(s, "crossbar") {
		t.Fatalf("table malformed:\n%s", s)
	}
}

func TestFigure4QuickShape(t *testing.T) {
	r := Figure4(tiny)
	if len(r.SnoopPct) != 6 {
		t.Fatalf("Figure4: %+v", r)
	}
	// The paper's claim: coherence activity is rare (few % of accesses).
	for i, p := range r.SnoopPct {
		if p < 0 || p > 10 {
			t.Errorf("%s snoop%% = %.2f out of plausible range", r.Workloads[i], p)
		}
	}
	if r.MeanPct <= 0 || r.MeanPct > 6 {
		t.Fatalf("mean snoop%% = %.2f, want a small positive value (~2)", r.MeanPct)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "T", Header: []string{"a", "bb"}}
	tb.AddRow("x", "y")
	s := tb.String()
	if !strings.HasPrefix(s, "T\n") || !strings.Contains(s, "a") {
		t.Fatalf("table: %q", s)
	}

	// A row wider than the header, and a table with no header at all,
	// size their extra columns from the rows.
	wide := &Table{Title: "W", Header: []string{"a"}}
	wide.AddRow("x", "yy")
	wide.AddRow("long", "z")
	if got, want := wide.String(), "W\na   \nx     yy\nlong  z \n"; got != want {
		t.Fatalf("wide row: got %q, want %q", got, want)
	}
	bare := &Table{Title: "B"}
	bare.AddRow("p", "q")
	if got, want := bare.String(), "B\n\np  q\n"; got != want {
		t.Fatalf("headerless table: got %q, want %q", got, want)
	}
}

func TestFigure7QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite comparison is exercised by the benchmarks")
	}
	r := Figure7(tiny)
	for _, d := range []string{"Mesh", "Flattened Butterfly", "NOC-Out"} {
		if len(r.Normalized[d]) != 6 {
			t.Fatalf("missing design %s: %+v", d, r)
		}
	}
	// Headline shape: both low-diameter designs beat the mesh on average,
	// and NOC-Out is in the flattened butterfly's performance class.
	if r.GMean["NOC-Out"] < 1.02 {
		t.Fatalf("NOC-Out gmean vs mesh = %.3f, should be a clear win", r.GMean["NOC-Out"])
	}
	if r.GMean["Flattened Butterfly"] < 1.02 {
		t.Fatalf("FBfly gmean vs mesh = %.3f, should be a clear win", r.GMean["Flattened Butterfly"])
	}
	ratio := r.GMean["NOC-Out"] / r.GMean["Flattened Butterfly"]
	if ratio < 0.9 || ratio > 1.15 {
		t.Fatalf("NOC-Out should match the flattened butterfly: ratio %.3f", ratio)
	}
}
