package nocout

import (
	"context"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// This file is the root-level acceptance suite for the open-system
// subsystem: ReqLatency through the sweep engine, the
// WithOfferedLoads dimension, report encoders growing latency columns
// only for open rows, StudySaturation's knee, and determinism.

// TestOpenRunReqLatency: an open-system run produces a consistent
// request-latency block; a closed-loop run stays ReqLatency-free.
func TestOpenRunReqLatency(t *testing.T) {
	cfg := DefaultConfig(Mesh)
	cfg.Cores = 16
	res := measure(t, cfg, confQ, WithWorkloads("open-poisson"))
	rl := res.ReqLatency
	if rl == nil {
		t.Fatal("open-system run has no ReqLatency")
	}
	if rl.Arrivals <= 0 || rl.Completed <= 0 {
		t.Fatalf("no request flow: %+v", rl)
	}
	if !(rl.P50 <= rl.P95 && rl.P95 <= rl.P99) {
		t.Fatalf("quantiles out of order: %+v", rl)
	}
	if rl.MeanCy <= 0 || rl.Hist == nil || rl.Hist.Count() != rl.Completed {
		t.Fatalf("histogram inconsistent with counts: %+v", rl)
	}
	if !strings.Contains(res.String(), "req p50/p95/p99") {
		t.Fatalf("String() must surface tail latency: %s", res)
	}

	closed := measure(t, cfg, confQ, WithWorkloads("Web Search"))
	if closed.ReqLatency != nil {
		t.Fatalf("closed-loop run grew a ReqLatency: %+v", closed.ReqLatency)
	}
	if strings.Contains(closed.String(), "req p50") {
		t.Fatalf("closed-loop String() must not mention request latency: %s", closed)
	}
}

// TestOpenDeterminism: same-seed open-system runs are bit-identical,
// histogram included.
func TestOpenDeterminism(t *testing.T) {
	cfg := DefaultConfig(NOCOut)
	cfg.Cores = 16
	a := measure(t, cfg, confQ, WithWorkloads("open-mmpp"))
	b := measure(t, cfg, confQ, WithWorkloads("open-mmpp"))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("open-system run is not deterministic:\n%+v\n%+v", a, b)
	}
}

// TestOpenMultiSeedMerge: a multi-seed run merges per-seed histograms
// (counts sum) instead of averaging quantiles.
func TestOpenMultiSeedMerge(t *testing.T) {
	cfg := DefaultConfig(Mesh)
	cfg.Cores = 8
	q1 := confQ
	single := measure(t, cfg, q1, WithWorkloads("open-poisson"))
	q2 := confQ
	q2.Seeds = 2
	double := measure(t, cfg, q2, WithWorkloads("open-poisson"))
	if double.ReqLatency.Arrivals <= single.ReqLatency.Arrivals {
		t.Fatalf("two seeds must offer more requests than one: %d vs %d",
			double.ReqLatency.Arrivals, single.ReqLatency.Arrivals)
	}
	if double.ReqLatency.Hist.Count() != double.ReqLatency.Completed {
		t.Fatalf("merged histogram inconsistent: %+v", double.ReqLatency)
	}
}

// TestOfferedLoadsSweep: the load dimension expands to distinct
// spec-named points, and the encoders grow latency columns for them.
func TestOfferedLoadsSweep(t *testing.T) {
	cfg := DefaultConfig(Mesh)
	cfg.Cores = 16
	rep, err := NewExperiment(
		WithTitle("load sweep"),
		WithVariant("Mesh", cfg),
		WithWorkloads("open-poisson"),
		WithOfferedLoads(0.5, 4),
		WithQuality(confQ),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("load sweep expanded to %d points, want 2", len(rep.Results))
	}
	for _, pr := range rep.Results {
		if !strings.HasPrefix(pr.Point.Workload, "opensys:") {
			t.Fatalf("derived point not spec-named: %q", pr.Point.Workload)
		}
		if pr.Result.ReqLatency == nil {
			t.Fatalf("point %s has no latency block", pr.Point)
		}
	}

	// JSON carries the block and round-trips exactly.
	var js strings.Builder
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"p99_cy"`) || !strings.Contains(js.String(), `"req_latency"`) {
		t.Fatalf("JSON lacks request-latency fields:\n%s", js.String())
	}
	var back Report
	if err := json.Unmarshal([]byte(js.String()), &back); err != nil {
		t.Fatal(err)
	}
	for i := range rep.Results {
		if !reflect.DeepEqual(rep.Results[i].Result, back.Results[i].Result) {
			t.Fatalf("open result %d did not survive JSON", i)
		}
	}

	// CSV and table grow the latency columns for open rows...
	var cs strings.Builder
	if err := rep.WriteCSV(&cs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(cs.String()), "\n")
	if !strings.Contains(lines[0], "req_p50_cy,req_p95_cy,req_p99_cy") {
		t.Fatalf("open CSV header lacks latency columns: %q", lines[0])
	}
	if !strings.Contains(rep.Table().String(), "req p99") {
		t.Fatalf("open table lacks latency columns:\n%s", rep.Table())
	}

	// ...and closed-loop reports keep the original schema bit for bit.
	closed, err := NewExperiment(
		WithVariant("Mesh", cfg),
		WithWorkloads("SAT Solver"),
		WithQuality(confQ),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var ccs strings.Builder
	if err := closed.WriteCSV(&ccs); err != nil {
		t.Fatal(err)
	}
	chead := strings.Split(strings.TrimSpace(ccs.String()), "\n")[0]
	if strings.Contains(chead, "req_") || !strings.HasSuffix(chead, ",error") {
		t.Fatalf("closed-loop CSV header changed: %q", chead)
	}
	if strings.Contains(closed.Table().String(), "req p99") {
		t.Fatalf("closed-loop table grew latency columns:\n%s", closed.Table())
	}
}

// TestOfferedLoadsRejectsClosedLoop: sweeping load over a workload that
// cannot scale its rate is a hard expansion error.
func TestOfferedLoadsRejectsClosedLoop(t *testing.T) {
	_, err := NewExperiment(
		WithDesigns(Mesh),
		WithWorkloads("Web Search"),
		WithOfferedLoads(1, 2),
	).Sweep()
	if err == nil || !strings.Contains(err.Error(), "closed-loop") {
		t.Fatalf("closed-loop workload must fail load expansion, got %v", err)
	}
	_, err = NewExperiment(
		WithDesigns(Mesh),
		WithWorkloads("open-poisson"),
		WithOfferedLoads(-1),
	).Sweep()
	if err == nil {
		t.Fatal("negative offered load must fail expansion")
	}
}

// TestStudySaturation: the headline entry point — p99 rises
// monotonically toward saturation on every design, and the knee is one
// of the swept loads.
func TestStudySaturation(t *testing.T) {
	// Unsorted, with a repeat: the study sorts the loads and measures
	// each once.
	loads := []float64{0.5, 2, 8}
	sat, err := StudySaturation(context.Background(), "", []float64{2, 8, 0.5, 2},
		Quality{Warmup: 6000, Window: 10000, Seeds: 1}, Mesh, NOCOut)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sat.Loads, loads) {
		t.Fatalf("loads = %v, want %v", sat.Loads, loads)
	}
	if len(sat.Variants) != 2 {
		t.Fatalf("variants = %v", sat.Variants)
	}
	for _, v := range sat.Variants {
		curve := sat.P99[v]
		if len(curve) != len(loads) {
			t.Fatalf("%s: curve %v", v, curve)
		}
		for i := range curve {
			if curve[i] <= 0 {
				t.Fatalf("%s: empty p99 at load %v", v, loads[i])
			}
			if i > 0 && curve[i] < curve[i-1] {
				t.Fatalf("%s: p99 not monotone toward saturation: %v", v, curve)
			}
		}
		knee, ok := sat.Knee[v]
		if !ok {
			t.Fatalf("%s: no knee", v)
		}
		found := false
		for _, l := range loads {
			found = found || l == knee
		}
		if !found {
			t.Fatalf("%s: knee %v not a swept load", v, knee)
		}
	}
	tab := sat.Table().String()
	if !strings.Contains(tab, "knee") || !strings.Contains(tab, "NOC-Out") {
		t.Fatalf("saturation table:\n%s", tab)
	}
}
