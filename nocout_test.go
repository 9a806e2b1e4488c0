package nocout

import (
	"strings"
	"testing"
)

// tiny is a minimal-effort quality for unit tests.
var tiny = Quality{Warmup: 6000, Window: 8000, Seeds: 1}

func TestRunFacade(t *testing.T) {
	res, err := Run(DefaultConfig(NOCOut), "Web Search", tiny)
	if err != nil {
		t.Fatal(err)
	}
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
		want, err := Run(cfg, "Data Serving", q)
		if err != nil {
			t.Fatal(err)
		}
		cfg.LinkBits = 0
		got, err := Run(cfg, "Data Serving", q)
		if err != nil {
			t.Fatal(err)
		}
		if got.AggIPC != want.AggIPC || got.NoCPower != want.NoCPower {
			t.Errorf("%v at LinkBits 0: IPC %v, power %+v; want the 128-bit IPC %v, power %+v",
				d, got.AggIPC, got.NoCPower, want.AggIPC, want.NoCPower)
		}
	}
}

func TestRunUnknownWorkload(t *testing.T) {
	if _, err := Run(DefaultConfig(Mesh), "Quake", tiny); err == nil {
		t.Fatal("unknown workload must error")
	}
}

func TestWorkloadsList(t *testing.T) {
	ws := Workloads()
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
}

func TestSeedAveraging(t *testing.T) {
	q := tiny
	q.Seeds = 2
	res, err := Run(DefaultConfig(Mesh), "SAT Solver", q)
	if err != nil {
		t.Fatal(err)
	}
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
