package nocout

import (
	"context"
	"fmt"
	"slices"
	"strconv"

	"nocout/internal/workload"

	// Importing the opensys family from the root package guarantees the
	// "opensys:" scheme and the registered Open defaults are available in
	// every binary that links nocout — the CLI, campaign workers, tests.
	_ "nocout/opensys"
)

// This file is the open-system counterpart of the Figure* specs: a
// saturation study sweeps offered load and reports where each design's
// tail latency leaves the linear regime. It is the headline consumer of
// WithOfferedLoads and Result.ReqLatency.

// kneeFactor defines the saturation knee: the largest offered load
// whose p99 stays within this factor of the lowest load's p99. Beyond
// it the queueing delay dominates and the open system is saturating.
const kneeFactor = 2.0

// SaturationResult holds a saturation sweep: per-variant p99-vs-load
// curves, the detected knee, and the full Report for custom rendering.
type SaturationResult struct {
	// Workload is the swept open-system workload (name or opensys: spec).
	Workload string
	// Loads are the swept offered loads, ascending and distinct, in
	// requests per 1000 cycles per core.
	Loads []float64
	// Variants lists the sweep's variant names in report order.
	Variants []string
	// P99 maps variant name to its p99 latency (cycles) per load, index-
	// aligned with Loads.
	P99 map[string][]int64
	// Knee maps variant name to the largest measured load whose p99 is
	// within kneeFactor of the lowest load's p99 — the last point before
	// the tail blows up. A variant saturated even at the lowest load
	// knees there.
	Knee map[string]float64
	// Report is the underlying sweep report (JSON/CSV encodable).
	Report *Report
}

// StudySaturation measures tail latency versus offered load: the named
// open-system workload (any "opensys:" spec or registered open default;
// empty means "Open Poisson") swept across loads (requests per 1000
// cycles per core; empty means a default 0.5→8 ramp) on one variant per
// design (default Mesh and NOC-Out), at quality q. The p99-vs-load
// curve rises monotonically toward saturation; Knee reports where each
// design leaves the linear regime.
func StudySaturation(ctx context.Context, workloadSpec string, loads []float64, q Quality, designs ...Design) (*SaturationResult, error) {
	if workloadSpec == "" {
		workloadSpec = "Open Poisson"
	}
	if len(loads) == 0 {
		loads = []float64{0.5, 1, 2, 4, 8}
	}
	// The sweep drops a repeated load's duplicate point, so a repeat left
	// here would keep a p99 slot no result fills.
	loads = slices.Compact(slices.Sorted(slices.Values(loads)))
	if len(designs) == 0 {
		designs = []Design{Mesh, NOCOut}
	}
	rep, err := NewExperiment(
		WithTitle("saturation: p99 latency vs offered load"),
		WithDesigns(designs...),
		WithWorkloads(workloadSpec),
		WithOfferedLoads(loads...),
		WithQuality(q),
	).Run(ctx)
	if err != nil {
		return nil, err
	}
	out := &SaturationResult{
		Workload: workloadSpec,
		Loads:    loads,
		P99:      map[string][]int64{},
		Knee:     map[string]float64{},
		Report:   rep,
	}
	idx := map[float64]int{}
	for i, l := range loads {
		idx[l] = i
	}
	for _, pr := range rep.Results {
		v := pr.Point.Variant
		if _, seen := out.P99[v]; !seen {
			out.Variants = append(out.Variants, v)
			out.P99[v] = make([]int64, len(loads))
		}
		if pr.Err != "" {
			return nil, fmt.Errorf("nocout: saturation point %s failed: %s", pr.Point, pr.Err)
		}
		rl := pr.Result.ReqLatency
		if rl == nil {
			return nil, fmt.Errorf("nocout: saturation point %s returned no request latency (workload %q is not open-system?)", pr.Point, pr.Point.Workload)
		}
		load, err := loadOfPoint(pr.Point)
		if err != nil {
			return nil, err
		}
		i, ok := idx[load]
		if !ok {
			return nil, fmt.Errorf("nocout: saturation point %s reports unswept load %v", pr.Point, load)
		}
		out.P99[v][i] = rl.P99
	}
	for _, v := range out.Variants {
		curve := out.P99[v]
		// LogHist quantiles are inclusive bucket upper bounds of the form
		// m·2^k−1, so two p99s exactly kneeFactor apart would miss
		// `p99 ≤ kneeFactor·base` by one cycle; comparing against the
		// bucket's exclusive bound (base+1) keeps the knee test off that
		// knife edge.
		knee := loads[0]
		for i, p99 := range curve {
			if float64(p99) <= kneeFactor*float64(curve[0]+1) {
				knee = loads[i]
			}
		}
		out.Knee[v] = knee
	}
	return out, nil
}

// loadOfPoint recovers a sweep point's offered load from its workload
// name (the canonical spec carries the rate — the property that keys
// load-sweep cells and campaign cache entries).
func loadOfPoint(p Point) (float64, error) {
	w, err := workload.Parse(p.Workload)
	if err != nil {
		return 0, fmt.Errorf("nocout: resolving saturation point %s: %w", p, err)
	}
	rs, ok := workload.RateScaledOf(w)
	if !ok {
		return 0, fmt.Errorf("nocout: saturation point %s is not rate-scalable", p)
	}
	return rs.OfferedLoad(), nil
}

// Table renders the p99-vs-load curves with each variant's knee.
func (r *SaturationResult) Table() *Table {
	t := &Table{Title: fmt.Sprintf("saturation: %s — p99 latency (cycles) vs offered load (req/kcycle/core)", r.Workload)}
	t.Header = []string{"variant"}
	for _, l := range r.Loads {
		t.Header = append(t.Header, strconv.FormatFloat(l, 'g', -1, 64))
	}
	t.Header = append(t.Header, "knee")
	for _, v := range r.Variants {
		row := []string{v}
		for _, p99 := range r.P99[v] {
			row = append(row, strconv.FormatInt(p99, 10))
		}
		row = append(row, strconv.FormatFloat(r.Knee[v], 'g', -1, 64))
		t.AddRow(row...)
	}
	return t
}
