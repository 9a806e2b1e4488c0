package main

import (
	"encoding/json"
	"errors"
	"maps"
	"os"
	"slices"
	"testing"

	"nocout/bench/ledger"
	"nocout/internal/chip"
)

// TestTracedWrapperIsInvisible runs a few thousand cycles of each paper
// design at 16 cores untraced and traced: the state hash and metrics must
// agree, and every class the design has must have ticked. Ideal covers
// the network that has no routers and ticks whole.
func TestTracedWrapperIsInvisible(t *testing.T) {
	for _, d := range []chip.Design{chip.Mesh, chip.FBfly, chip.NOCOut, chip.Ideal} {
		t.Run(d.String(), func(t *testing.T) {
			p := simPoint{design: d, workload: "Data Serving", cores: 16, seed: 1, warmup: 1000, window: 2000}
			plain, err := runChip(p, nil, newSpanLog())
			if err != nil {
				t.Fatal(err)
			}
			tr := &tracer{}
			traced, err := runChip(p, tr, newSpanLog())
			if err != nil {
				t.Fatal(err)
			}
			if traced.digest != plain.digest {
				t.Fatalf("traced digest %s, untraced %s", traced.digest, plain.digest)
			}
			want := []class{classL1, classDir, classMC, classCore}
			if d == chip.Ideal {
				want = append(want, classFabric)
			} else {
				want = append(want, classRouter, classNI)
			}
			for c := range numClasses {
				if ticked := tr.classes[c].Ticks > 0; ticked != slices.Contains(want, c) {
					t.Errorf("class %s: %d ticks", classNames[c], tr.classes[c].Ticks)
				}
			}
			if tr.cycles != 3000 || tr.stepNs <= 0 {
				t.Errorf("tracer saw %d cycles in %d ns", tr.cycles, tr.stepNs)
			}
		})
	}
}

// TestInstrumentRejectsShardedChip checks the wrapper refuses a chip it
// cannot attribute time on, with a named error.
func TestInstrumentRejectsShardedChip(t *testing.T) {
	p := simPoint{design: chip.Mesh, workload: "Data Serving", cores: 16, seed: 1, warmup: 100, window: 100, domains: 2}
	if _, err := runChip(p, &tracer{}, newSpanLog()); err == nil || !errors.Is(err, errChipShape) {
		t.Fatalf("err = %v, want errChipShape", err)
	}
}

// TestPerturbedDigestFails checks that a digest differing from the
// golden one, or from its own earlier value, counts as a failed op.
func TestPerturbedDigestFails(t *testing.T) {
	ops, err := newOpLog(goldenSeed, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops.golden) == 0 {
		t.Fatal("golden.json holds no digests")
	}
	name := slices.Sorted(maps.Keys(ops.golden))[0]
	good := ops.golden[name]
	ops.point(name, good)
	if len(ops.failures) != 0 {
		t.Fatalf("golden digest failed: %v", ops.failures)
	}
	bad := []byte(good)
	bad[0] ^= 1
	ops.point(name, string(bad))
	if ops.attempted != 2 || len(ops.failures) != 1 {
		t.Fatalf("perturbed digest: %d attempted, failures %v", ops.attempted, ops.failures)
	}

	other, err := newOpLog(goldenSeed+1, false)
	if err != nil {
		t.Fatal(err)
	}
	other.point("p", "aa")
	other.point("p", "ab")
	other.check(false, "identity broke")
	if other.attempted != 3 || len(other.failures) != 2 {
		t.Fatalf("off the golden seed: %d attempted, failures %v", other.attempted, other.failures)
	}
}

// TestCompareVerdicts pins the comparator's rule.
func TestCompareVerdicts(t *testing.T) {
	lower := ledger.Metric{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := ledger.Metric{Name: "sim_kips", Better: "higher", Bound: 0.10}
	exact := ledger.Metric{Name: "count", Better: "lower", Bound: 0}
	base := []float64{10, 10.1, 9.9, 10.05, 9.95, 10, 10.02, 9.98, 10.01, 9.99}
	scale := func(vs []float64, f float64) []float64 {
		out := make([]float64, len(vs))
		for i, v := range vs {
			out[i] = v * f
		}
		return out
	}
	wide := []float64{8, 12, 9, 11, 10, 8.5, 11.5, 9.5, 10.5, 10}
	for _, tc := range []struct {
		name      string
		m         ledger.Metric
		base, cur []float64
		want      string
	}{
		{"same", lower, base, scale(base, 1.01), ledger.Unchanged},
		{"slower beyond bound", lower, base, scale(base, 1.2), ledger.Regressed},
		{"slower within bound", lower, base, scale(base, 1.05), ledger.Unchanged},
		{"faster, every pair wins", lower, base, scale(base, 0.8), ledger.Improved},
		{"faster by less than the base spread", lower, base, scale(base, 0.999), ledger.Unchanged},
		{"wide spread, overlapping", lower, wide, scale(wide, 0.95), ledger.Unresolved},
		{"wide spread, every run faster", lower, wide, scale(wide, 0.5), ledger.Improved},
		{"wide spread, every run slower", lower, wide, scale(wide, 1.6), ledger.Regressed},
		{"higher is better, dropped", higher, base, scale(base, 0.8), ledger.Regressed},
		{"higher is better, rose", higher, base, scale(base, 1.2), ledger.Improved},
		{"exact count equal", exact, []float64{5, 5, 5}, []float64{5, 5, 5}, ledger.Unchanged},
		{"exact count grew", exact, []float64{5, 5, 5}, []float64{6, 6, 6}, ledger.Regressed},
		{"no runs", lower, base, nil, ledger.Unresolved},
	} {
		if got := ledger.Compare(tc.m, tc.base, tc.cur).Verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestQuartilesMatchPython pins Quartiles to Python's
// statistics.quantiles(data, n=4), which the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		vs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
	} {
		if q1, q3 := ledger.Quartiles(tc.vs); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("Quartiles(%v) = %v, %v; want %v, %v", tc.vs, q1, q3, tc.q1, tc.q3)
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps the repository's BENCHMARK.json
// in step with the metric catalogue and the workload list.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the bench directory:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []ledger.Metric `json:"end_to_end"`
		PerLayer  []ledger.Metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	if !slices.Equal(spec.EndToEnd, ledger.EndToEnd) {
		t.Errorf("end_to_end %v, want %v", spec.EndToEnd, ledger.EndToEnd)
	}
	if !slices.Equal(spec.PerLayer, ledger.PerLayer) {
		t.Errorf("per_layer %v, want %v", spec.PerLayer, ledger.PerLayer)
	}
}
