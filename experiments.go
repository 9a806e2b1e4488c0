package nocout

import (
	"context"
	"fmt"

	"nocout/internal/physic"
	"nocout/internal/stats"
	"nocout/internal/workload"
)

// This file regenerates the paper's evaluation. Every entry point is a
// thin declarative sweep spec over the experiment engine (experiment.go,
// runner.go): it names variants, workloads, and core counts; the engine
// owns expansion, fan-out, and result bookkeeping. The exported
// signatures predate the engine and are kept as compatibility wrappers.

func f3(x float64) string { return fmt.Sprintf("%.3f", x) }
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }

// mustRun executes a figure's sweep spec. The built-in specs use only
// compile-time-valid workload names and an uncancellable context, so a
// failure is a programming error.
func mustRun(e *Experiment) *Report {
	rep, err := e.Run(context.Background())
	if err != nil {
		panic(err)
	}
	return rep
}

// paperSuite names the paper's six builtin workloads. The figures pin
// this set explicitly so RegisterWorkload-ed additions never shift the
// regenerated paper numbers.
func paperSuite() []string {
	names := make([]string, 0, 6)
	for _, w := range workload.Builtin() {
		names = append(names, w.Name)
	}
	return names
}

// ---------------------------------------------------------------------------
// Figure 1: effect of distance (core count) on per-core performance for
// ideal and mesh interconnects, Data Serving and MapReduce-W, 8MB LLC.
// ---------------------------------------------------------------------------

// Figure1Result holds the normalized per-core performance series.
type Figure1Result struct {
	CoreCounts []int
	// Series maps "workload (design)" to per-core performance normalized
	// to the 1-core configuration.
	Series map[string][]float64
	// GapAt64 is 1 - mesh/ideal at 64 cores, averaged over the workloads
	// (the paper reports ~22%).
	GapAt64 float64
}

// Figure1 regenerates Figure 1.
func Figure1(q Quality) Figure1Result {
	counts := []int{1, 2, 4, 8, 16, 32, 64}
	wls := []string{workload.DataServing.Name, workload.MapReduceW.Name}
	designs := []Design{Ideal, Mesh}

	rep := mustRun(NewExperiment(
		WithTitle("Figure 1: per-core performance vs core count"),
		WithDesigns(designs...),
		WithWorkloads(wls...),
		WithCoreCounts(counts...),
		WithUnlimitedCores(), // Figure 1 scales the chip, not the workload
		WithQuality(q),
	))

	out := Figure1Result{CoreCounts: counts, Series: map[string][]float64{}}
	for _, w := range wls {
		for _, d := range designs {
			series := make([]float64, len(counts))
			base := rep.MustGet(d.String(), w, counts[0]).PerCoreIPC
			for k, n := range counts {
				series[k] = rep.MustGet(d.String(), w, n).PerCoreIPC / base
			}
			out.Series[fmt.Sprintf("%s (%v)", w, d)] = series
		}
	}
	// Average mesh/ideal gap at 64 cores.
	gap := 0.0
	for _, w := range wls {
		ideal := out.Series[fmt.Sprintf("%s (%v)", w, Ideal)]
		mesh := out.Series[fmt.Sprintf("%s (%v)", w, Mesh)]
		gap += 1 - mesh[len(counts)-1]/ideal[len(counts)-1]
	}
	out.GapAt64 = gap / float64(len(wls))
	return out
}

// Table renders the result.
func (r Figure1Result) Table() *Table {
	t := &Table{Title: "Figure 1: per-core performance vs core count (normalized to 1 core)"}
	t.Header = []string{"series"}
	for _, n := range r.CoreCounts {
		t.Header = append(t.Header, fmt.Sprintf("%d", n))
	}
	for _, key := range sortedKeys(r.Series) {
		row := []string{key}
		for _, v := range r.Series[key] {
			row = append(row, f3(v))
		}
		t.AddRow(row...)
	}
	t.AddRow(fmt.Sprintf("mesh-vs-ideal gap at 64 cores: %.0f%% (paper: ~22%%)", r.GapAt64*100))
	return t
}

func sortedKeys(m map[string][]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// ---------------------------------------------------------------------------
// Figure 4: percentage of LLC accesses triggering a snoop.
// ---------------------------------------------------------------------------

// Figure4Result maps workload name to snoop percentage.
type Figure4Result struct {
	Workloads []string
	SnoopPct  []float64
	MeanPct   float64
}

// Figure4 regenerates Figure 4 on the 64-core mesh.
func Figure4(q Quality) Figure4Result {
	rep := mustRun(NewExperiment(
		WithTitle("Figure 4: snoop rate on the 64-core mesh"),
		WithDesigns(Mesh),
		WithWorkloads(paperSuite()...),
		WithQuality(q),
	))
	out := Figure4Result{}
	sum := 0.0
	for _, w := range workload.Builtin() {
		pct := rep.MustGet(Mesh.String(), w.Name, 0).SnoopRate * 100
		out.Workloads = append(out.Workloads, w.Name)
		out.SnoopPct = append(out.SnoopPct, pct)
		sum += pct
	}
	out.MeanPct = sum / float64(len(out.Workloads))
	return out
}

// Table renders the result.
func (r Figure4Result) Table() *Table {
	t := &Table{Title: "Figure 4: % of LLC accesses triggering a snoop (paper mean ~2%)",
		Header: []string{"workload", "snoop %"}}
	for i, w := range r.Workloads {
		t.AddRow(w, f2(r.SnoopPct[i]))
	}
	t.AddRow("Mean", f2(r.MeanPct))
	return t
}

// ---------------------------------------------------------------------------
// Figure 7: system performance normalized to mesh, fixed 128-bit links.
// ---------------------------------------------------------------------------

// Figure7Result holds normalized performance per workload and design.
type Figure7Result struct {
	Workloads []string
	// Normalized[design][i] is workload i's performance over mesh.
	Normalized map[string][]float64
	GMean      map[string]float64
}

// Figure7 regenerates Figure 7 (and its designs are reused by Figure 9).
func Figure7(q Quality) Figure7Result {
	return figurePerf(q, "Figure 7: performance at fixed 128-bit links", []Variant{
		{Name: "Mesh", Config: DefaultConfig(Mesh)},
		{Name: "Flattened Butterfly", Config: DefaultConfig(FBfly)},
		{Name: "NOC-Out", Config: DefaultConfig(NOCOut)},
	})
}

// figurePerf sweeps a set of variants over the full suite, normalizing
// each workload's throughput to the variant named "Mesh".
func figurePerf(q Quality, title string, variants []Variant) Figure7Result {
	opts := []Option{WithTitle(title), WithWorkloads(paperSuite()...), WithQuality(q)}
	for _, v := range variants {
		opts = append(opts, WithVariant(v.Name, v.Config))
	}
	rep := mustRun(NewExperiment(opts...))

	wls := workload.Builtin()
	ipc := map[string][]float64{}
	for _, v := range variants {
		series := make([]float64, len(wls))
		for i, w := range wls {
			series[i] = rep.MustGet(v.Name, w.Name, 0).AggIPC
		}
		ipc[v.Name] = series
	}
	out := Figure7Result{Normalized: map[string][]float64{}, GMean: map[string]float64{}}
	for _, w := range wls {
		out.Workloads = append(out.Workloads, w.Name)
	}
	base := ipc["Mesh"]
	for name, series := range ipc {
		norm := stats.NormalizeTo(series, base)
		out.Normalized[name] = norm
		out.GMean[name] = stats.GeoMean(norm)
	}
	return out
}

// Table renders the result.
func (r Figure7Result) Table() *Table {
	return r.tableTitled("Figure 7: system performance normalized to mesh (128-bit links)")
}

func (r Figure7Result) tableTitled(title string) *Table {
	t := &Table{Title: title, Header: []string{"workload"}}
	names := sortedKeys(r.Normalized)
	t.Header = append(t.Header, names...)
	for i, w := range r.Workloads {
		row := []string{w}
		for _, n := range names {
			row = append(row, f3(r.Normalized[n][i]))
		}
		t.AddRow(row...)
	}
	row := []string{"GMean"}
	for _, n := range names {
		row = append(row, f3(r.GMean[n]))
	}
	t.AddRow(row...)
	return t
}

// ---------------------------------------------------------------------------
// Figure 8: NoC area breakdown.
// ---------------------------------------------------------------------------

// Figure8Result holds the area breakdowns.
type Figure8Result struct {
	Designs    []string
	Breakdowns []physic.Breakdown
}

// Figure8 regenerates Figure 8 from the area model (no simulation needed).
func Figure8() Figure8Result {
	return Figure8Result{
		Designs: []string{"Mesh", "Flattened Butterfly", "NOC-Out"},
		Breakdowns: []physic.Breakdown{
			Area(DefaultConfig(Mesh)),
			Area(DefaultConfig(FBfly)),
			Area(DefaultConfig(NOCOut)),
		},
	}
}

// Table renders the result.
func (r Figure8Result) Table() *Table {
	t := &Table{Title: "Figure 8: NoC area breakdown, mm² (paper: mesh ~3.5, fbfly ~23, NOC-Out ~2.5)",
		Header: []string{"design", "links", "buffers", "crossbar", "total"}}
	for i, d := range r.Designs {
		b := r.Breakdowns[i]
		t.AddRow(d, f2(b.Links), f2(b.Buffers), f2(b.Crossbar), f2(b.Total()))
	}
	return t
}

// ---------------------------------------------------------------------------
// Figure 9: performance under a fixed NoC area budget (NOC-Out's area).
// ---------------------------------------------------------------------------

// Figure9Result extends the Figure 7 shape with the solved link widths.
type Figure9Result struct {
	Figure7Result
	BudgetMM2  float64
	MeshWidth  int
	FBflyWidth int
}

// Figure9 regenerates Figure 9: mesh and fbfly links are narrowed until
// their area matches NOC-Out's, then the suite is re-run.
func Figure9(q Quality) Figure9Result {
	budget := Area(DefaultConfig(NOCOut)).Total()
	wm, _ := SolveWidthForArea(Mesh, budget)
	wf, _ := SolveWidthForArea(FBfly, budget)

	mesh := DefaultConfig(Mesh)
	mesh.LinkBits = wm
	fb := DefaultConfig(FBfly)
	fb.LinkBits = wf

	perf := figurePerf(q, "Figure 9: performance at a fixed NoC area budget", []Variant{
		{Name: "Mesh", Config: mesh},
		{Name: "Flattened Butterfly", Config: fb},
		{Name: "NOC-Out", Config: DefaultConfig(NOCOut)},
	})
	return Figure9Result{Figure7Result: perf, BudgetMM2: budget, MeshWidth: wm, FBflyWidth: wf}
}

// Table renders the result.
func (r Figure9Result) Table() *Table {
	t := r.tableTitled(fmt.Sprintf(
		"Figure 9: performance normalized to mesh at a fixed %.1f mm² NoC budget (mesh %d-bit, fbfly %d-bit links)",
		r.BudgetMM2, r.MeshWidth, r.FBflyWidth))
	return t
}

// ---------------------------------------------------------------------------
// §6.4: NoC power.
// ---------------------------------------------------------------------------

// PowerResult holds average NoC power per design across the suite.
type PowerResult struct {
	Designs []string
	Power   []physic.Power
}

// PowerStudy regenerates the §6.4 power analysis.
func PowerStudy(q Quality) PowerResult {
	designs := []Design{Mesh, FBfly, NOCOut}
	rep := mustRun(NewExperiment(
		WithTitle("§6.4: NoC power across the suite"),
		WithDesigns(designs...),
		WithWorkloads(paperSuite()...),
		WithQuality(q),
	))
	wls := workload.Builtin()
	out := PowerResult{}
	for _, d := range designs {
		var acc physic.Power
		for _, w := range wls {
			p := rep.MustGet(d.String(), w.Name, 0).NoCPower
			acc.LinkW += p.LinkW / float64(len(wls))
			acc.RouterW += p.RouterW / float64(len(wls))
			acc.LeakageW += p.LeakageW / float64(len(wls))
		}
		out.Designs = append(out.Designs, d.String())
		out.Power = append(out.Power, acc)
	}
	return out
}

// Table renders the result.
func (r PowerResult) Table() *Table {
	t := &Table{Title: "§6.4: average NoC power, W (paper: mesh 1.8, fbfly 1.6, NOC-Out 1.3)",
		Header: []string{"design", "links", "routers", "leakage", "total"}}
	for i, d := range r.Designs {
		p := r.Power[i]
		t.AddRow(d, f2(p.LinkW), f2(p.RouterW), f2(p.LeakageW), f2(p.Total()))
	}
	return t
}

// ---------------------------------------------------------------------------
// §4.3 ablation: LLC banking.
// ---------------------------------------------------------------------------

// BankingResult reports NOC-Out performance vs banks per LLC tile.
type BankingResult struct {
	BanksPerTile []int
	CoresPerBank []int
	Normalized   []float64 // to the most-banked configuration
	Workload     string
}

// BankingAblation sweeps NOC-Out's internal LLC banking (§4.3: four cores
// per bank performs within ~2% of one bank per core).
func BankingAblation(q Quality) BankingResult {
	banks := []int{1, 2, 4, 8}
	w := workload.DataServing // the most bank-sensitive workload (§6.1)
	opts := []Option{
		WithTitle("§4.3: LLC banking ablation"),
		WithWorkloads(w.Name),
		WithQuality(q),
	}
	name := func(b int) string { return fmt.Sprintf("%d banks/tile", b) }
	for _, b := range banks {
		cfg := DefaultConfig(NOCOut)
		cfg.BanksPerLLCTile = b
		opts = append(opts, WithVariant(name(b), cfg))
	}
	rep := mustRun(NewExperiment(opts...))

	out := BankingResult{Workload: w.Name}
	base := rep.MustGet(name(banks[len(banks)-1]), w.Name, 0).AggIPC
	for _, b := range banks {
		out.BanksPerTile = append(out.BanksPerTile, b)
		out.CoresPerBank = append(out.CoresPerBank, 64/(8*b))
		out.Normalized = append(out.Normalized, rep.MustGet(name(b), w.Name, 0).AggIPC/base)
	}
	return out
}

// Table renders the result.
func (r BankingResult) Table() *Table {
	t := &Table{Title: fmt.Sprintf("§4.3: LLC banking ablation on %s (paper: 4 cores/bank within 2%% of 1:1)", r.Workload),
		Header: []string{"banks/tile", "cores/bank", "perf vs most-banked"}}
	for i := range r.BanksPerTile {
		t.AddRow(fmt.Sprintf("%d", r.BanksPerTile[i]),
			fmt.Sprintf("%d", r.CoresPerBank[i]), f3(r.Normalized[i]))
	}
	return t
}

// ---------------------------------------------------------------------------
// §7.1 ablation: scaling NOC-Out (concentration, express links).
// ---------------------------------------------------------------------------

// ScalingResult compares 128-core NOC-Out variants.
type ScalingResult struct {
	Variants   []string
	PerCoreIPC []float64
	Workload   string
}

// ScalingAblation regenerates the §7.1 discussion: a 128-core chip via
// concentration, via taller columns, and via taller columns with express
// links.
func ScalingAblation(q Quality) ScalingResult {
	w := workload.MapReduceC
	type variant struct {
		name string
		org  NOCOutOrg
	}
	variants := []variant{
		{"64-core baseline", NOCOutOrg{Columns: 8, RowsPerSide: 4}},
		{"128-core, concentration 2", NOCOutOrg{Columns: 8, RowsPerSide: 4, Concentration: 2}},
		{"128-core, 8 rows/side", NOCOutOrg{Columns: 8, RowsPerSide: 8}},
		{"128-core, 8 rows/side + express", NOCOutOrg{Columns: 8, RowsPerSide: 8, ExpressFrom: 4}},
	}
	opts := []Option{
		WithTitle("§7.1: NOC-Out scaling ablation"),
		WithWorkloads(w.Name),
		WithUnlimitedCores(), // §7.1 assumes software that scales with the chip
		WithQuality(q),
	}
	for _, v := range variants {
		org := v.org.WithDefaults()
		cfg := DefaultConfig(NOCOut)
		cfg.NOCOut = org
		cfg.Cores = org.NumCores()
		// A balanced future chip scales off-die bandwidth with cores
		// (otherwise DRAM saturation masks the interconnect story).
		cfg.MemChannels = 4 * cfg.Cores / 64
		opts = append(opts, WithVariant(v.name, cfg))
	}
	rep := mustRun(NewExperiment(opts...))

	out := ScalingResult{Workload: w.Name}
	for _, v := range variants {
		out.Variants = append(out.Variants, v.name)
		out.PerCoreIPC = append(out.PerCoreIPC, rep.MustGet(v.name, w.Name, 0).PerCoreIPC)
	}
	return out
}

// Table renders the result.
func (r ScalingResult) Table() *Table {
	t := &Table{Title: fmt.Sprintf("§7.1: NOC-Out scaling ablation on %s", r.Workload),
		Header: []string{"variant", "per-core IPC"}}
	for i := range r.Variants {
		t.AddRow(r.Variants[i], f3(r.PerCoreIPC[i]))
	}
	return t
}

// Table1 returns the evaluation parameters (Table 1) as a table.
func Table1() *Table {
	cfg := DefaultConfig(NOCOut)
	t := &Table{Title: "Table 1: evaluation parameters", Header: []string{"parameter", "value"}}
	t.AddRow("Technology", "32nm, 0.9V, 2GHz")
	t.AddRow("CMP features", fmt.Sprintf("%d cores, %dMB NUCA LLC, %d DDR3-1667 memory channels",
		cfg.Cores, cfg.LLCMB, cfg.MemChannels))
	t.AddRow("Core", "ARM Cortex-A15-like: 3-way OoO, 64-entry ROB, 16-entry LSQ")
	t.AddRow("L1 caches", "32KB L1-I + 32KB L1-D per core, 64B lines")
	t.AddRow("Mesh", "5 ports, 3 VCs/port, 5 flits/VC, 2-stage speculative pipeline, 1-cycle links")
	t.AddRow("Flattened Butterfly", "15 ports, 3 VCs/port, 3-stage pipeline, links up to 2 tiles/cycle")
	t.AddRow("NOC-Out", "reduction/dispersion trees: 2 ports, 2 VCs/port, 1 cycle/hop; LLC: 1-D flattened butterfly")
	t.AddRow("Link width", fmt.Sprintf("%d bits", cfg.LinkBits))
	return t
}
