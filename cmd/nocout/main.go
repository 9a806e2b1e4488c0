// Command nocout runs one CMP configuration — or a sweep of interconnect
// designs crossed with workloads and memory hierarchies — and prints the
// measured metrics, as text or as a machine-readable Report (-json). It
// can also record a workload to a NOC3 trace for later "trace:<path>"
// replay.
//
// Usage:
//
//	nocout -design nocout -workload "Web Search" -quality full
//	nocout -design mesh -cores 64 -linkbits 64 -workload data-serving
//	nocout -designs mesh,torus,cmesh,crossbar -workload "MapReduce-C"
//	nocout -design mesh -workloads websearch,mix,phased
//	nocout -design mesh -hierarchies shared-nuca,xor,affine,private,clustered
//	nocout -design mesh -hierarchy private -workload "Data Serving"
//	nocout -design mesh -mem-lat 120 -mem-bw 6.4 -workload websearch
//	nocout -workload websearch -cores 16 -record-trace ws.noctrace
//	nocout -design mesh -cores 16 -workload trace:ws.noctrace
//	nocout -trace-info ws.noctrace
//	nocout -design mesh -workload open-poisson -offered-loads 0.5,2,8
//	nocout -designs mesh,nocout -workload websearch -arrival mmpp -offered-loads 0.5,2,8 -csv
//	nocout -design nocout -workload "opensys:arrival=burst,hurst=0.9,base=data-serving,rate=4"
//	nocout -cpuprofile cpu.pprof -quality full -workload "Data Serving"
//	nocout -designs mesh,nocout -workloads websearch,mix -campaign camp/
//	nocout -campaign camp/                    # resume / join as another worker
//	nocout -campaign-merge camp/ -json        # assemble the final report
//	nocout -designs mesh,nocout -workload websearch -checkpoint-dir warm/
//	nocout -checkpoint-dir warm/ -list-checkpoints
//	nocout -list
//
// A -campaign run is resumable: every completed point is stored in the
// campaign directory under its content key, so interrupting and
// restarting (or pointing more worker processes at the same directory)
// never recomputes finished work. See EXPERIMENTS.md, "Running a
// resumable campaign".
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"nocout"
	"nocout/campaign"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nocout: ")
	// All work happens inside run so its defers — profile flushing in
	// particular — execute on every exit path, including errors and
	// interrupted runs (log.Fatal/os.Exit would skip them).
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	design := flag.String("design", "nocout", "interconnect organization (see -list)")
	designs := flag.String("designs", "", "comma-separated design sweep, overrides -design (see -list)")
	wl := flag.String("workload", "Web Search", "workload name, alias, or trace:<path> (see -list)")
	workloads := flag.String("workloads", "", "comma-separated workload sweep, overrides -workload (see -list)")
	hier := flag.String("hierarchy", "", "memory hierarchy; empty keeps the SharedNUCA baseline (see -list)")
	hiers := flag.String("hierarchies", "", "comma-separated hierarchy sweep, overrides -hierarchy (see -list)")
	list := flag.Bool("list", false, "list registered designs, hierarchies, and workloads, then exit")
	cores := flag.Int("cores", 64, "core count (power of two)")
	linkBits := flag.Int("linkbits", 128, "NoC link width in bits")
	memLat := flag.Int("mem-lat", 0, "memory device access latency in cycles (0 = DDR3-1667 default, 90)")
	memBW := flag.Float64("mem-bw", 0, "per-channel memory bandwidth in GB/s (0 = DDR3-1667 default, 12.8)")
	quality := flag.String("quality", "quick", "quick | full")
	seed := flag.Uint64("seed", 1, "simulation seed")
	arrival := flag.String("arrival", "", "wrap each workload as an open-system one: poisson | mmpp | burst, or opensys k=v params (e.g. \"arrival=mmpp,rate=4\")")
	offeredLoads := flag.String("offered-loads", "", "comma-separated open-system arrival rates (requests per 1000 cycles per core) to sweep, e.g. 0.5,2,8")
	jsonOut := flag.Bool("json", false, "emit the structured Report as JSON")
	csvOut := flag.Bool("csv", false, "emit the structured Report as CSV")
	recordTrace := flag.String("record-trace", "", "record the workload to this NOC3 trace file and exit (replay with -workload trace:<path>)")
	recordInstrs := flag.Int("record-instrs", 96000, "instructions per core to record with -record-trace (96k covers a quick-quality run)")
	traceInfo := flag.String("trace-info", "", "print a NOC3 trace file's header, section, and compression metadata, then exit")
	campaignDir := flag.String("campaign", "", "run as a resumable campaign worker over this shared directory (created from the sweep flags; an existing campaign is resumed/joined as-is)")
	campaignMerge := flag.String("campaign-merge", "", "assemble a campaign directory's stored results into the final report and exit")
	campaignWorker := flag.String("campaign-worker", "", "lease owner identity for -campaign (default hostname-pid; must be unique per worker)")
	leaseTTL := flag.Duration("lease-ttl", 0, "campaign lease lifetime before a crashed worker's points are stolen (default 10m)")
	recompute := flag.Bool("recompute", false, "with -campaign, ignore cached results once and recompute them")
	checkpointDir := flag.String("checkpoint-dir", "", "cache warm state in this directory: points sharing a measurement prefix warm up once and restore bit-identically (see EXPERIMENTS.md)")
	recomputeCkpts := flag.Bool("recompute-checkpoints", false, "with -checkpoint-dir, ignore stored warm states and re-produce them")
	listCkpts := flag.Bool("list-checkpoints", false, "with -checkpoint-dir, list the stored checkpoints and exit")
	keepGoing := flag.Bool("keep-going", false, "record per-point errors in the report instead of aborting the sweep on the first failure")
	simParallel := flag.Int("sim-parallel", 1, "shard each simulation across N concurrently stepping tile-group domains; results are bit-identical for any N (see EXPERIMENTS.md)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file (pprof evidence for perf PRs)")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Print(err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the profile reflects live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Print(err)
			}
		}()
	}

	if *list {
		// All three namespaces come from the registries, so user
		// registrations show up here with no CLI changes.
		fmt.Println("designs:")
		for _, d := range nocout.Designs() {
			org, err := nocout.OrganizationOf(d)
			if err != nil {
				return err
			}
			aliases := append([]string{strings.ToLower(org.Name())}, org.Aliases()...)
			fmt.Printf("  %-22s aliases: %s\n", org.Name(), strings.Join(aliases, ", "))
		}
		fmt.Println("hierarchies:")
		for _, id := range nocout.Hierarchies() {
			h, err := nocout.HierarchyOf(id)
			if err != nil {
				return err
			}
			aliases := append([]string{strings.ToLower(h.Name())}, h.Aliases()...)
			fmt.Printf("  %-22s aliases: %s\n", h.Name(), strings.Join(aliases, ", "))
		}
		fmt.Println("workloads:")
		for _, w := range nocout.RegisteredWorkloads() {
			aliases := append([]string{strings.ToLower(w.Name())}, w.Aliases()...)
			fmt.Printf("  %-22s max cores: %-3d  aliases: %s\n", w.Name(), w.MaxCores(), strings.Join(aliases, ", "))
		}
		fmt.Println("plus trace:<path> to replay a trace recorded with -record-trace")
		fmt.Println("plus opensys:<k=v,...> for open-system traffic over any base workload")
		fmt.Println("  keys: arrival=poisson|mmpp|burst, base, rate (req/kcycle/core), size (instrs),")
		fmt.Println("        queue, ratio, dwell-hi, dwell-lo (mmpp), hurst, peak (burst),")
		fmt.Println("        phases=MULTxCYCLES;..., skew=uniform|hotspot|transpose, grid, hot, hotfrac")
		return nil
	}

	// Merging needs no simulation capability at all — only the campaign
	// directory — so it runs before any workload or design resolution.
	if *campaignMerge != "" {
		c, err := campaign.Open(*campaignMerge)
		if err != nil {
			return err
		}
		rep, err := c.Merge()
		if err != nil {
			return err
		}
		return writeReport(rep, *jsonOut, *csvOut)
	}

	// Listing checkpoints inspects container metadata only — no workload
	// or design resolution either.
	if *listCkpts {
		if *checkpointDir == "" {
			return fmt.Errorf("-list-checkpoints requires -checkpoint-dir")
		}
		st, err := nocout.NewCheckpointStore(*checkpointDir)
		if err != nil {
			return err
		}
		infos, err := st.List()
		if err != nil {
			return err
		}
		for _, ci := range infos {
			d, derr := nocout.OrganizationOf(ci.Info.Design)
			dname := "?"
			if derr == nil {
				dname = d.Name()
			}
			fmt.Printf("%s  %8d bytes  %-14s %-12v %3d cores (%d active)  seed %-6d cycle %d\n",
				ci.Key, ci.Bytes, dname, ci.Info.Hierarchy, ci.Info.Cores, ci.Info.Active, ci.Info.Seed, ci.Info.Cycle)
		}
		fmt.Printf("%d checkpoints in %s\n", len(infos), *checkpointDir)
		return nil
	}

	// Trace inspection operates on the file alone — no workload or design
	// resolution, like -campaign-merge above.
	if *traceInfo != "" {
		ti, err := nocout.InspectTrace(*traceInfo)
		if err != nil {
			return err
		}
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(ti)
		}
		ti.WriteText(os.Stdout)
		return nil
	}
	wnames := []string{*wl}
	if *workloads != "" {
		wnames = strings.Split(*workloads, ",")
	}
	if *arrival != "" {
		// -arrival wraps each named workload into an opensys: spec with
		// that workload as the serving base. A bare process name becomes
		// "arrival=<name>"; anything with '=' passes through as raw
		// opensys parameters. Already-open specs are left alone.
		params := *arrival
		if !strings.Contains(params, "=") {
			params = "arrival=" + params
		}
		for i, name := range wnames {
			if strings.HasPrefix(strings.ToLower(strings.TrimSpace(name)), "opensys:") {
				continue
			}
			wnames[i] = "opensys:" + params + ",base=" + strings.TrimSpace(name)
		}
	}
	var ws []nocout.Workload
	for _, name := range wnames {
		w, err := nocout.ParseWorkload(name)
		if err != nil {
			return err
		}
		ws = append(ws, w)
	}

	if *recordTrace != "" {
		if len(ws) != 1 {
			return fmt.Errorf("-record-trace captures exactly one workload, got %d", len(ws))
		}
		// The streaming recorder: blocks are encoded on up to four CPUs
		// and flushed in order as the source produces them, so recording
		// memory is O(encoders × block) however long the trace is.
		if err := nocout.RecordTraceFile(*recordTrace, ws[0], *cores, *recordInstrs, *seed); err != nil {
			return err
		}
		fmt.Printf("recorded %s: %d cores x %d instructions (seed %d) -> %s (NOC3)\n",
			ws[0].Name(), *cores, *recordInstrs, *seed, *recordTrace)
		fmt.Printf("replay with: -workload trace:%s\n", *recordTrace)
		return nil
	}

	dnames := []string{*design}
	if *designs != "" {
		dnames = strings.Split(*designs, ",")
	}
	var ds []nocout.Design
	for _, name := range dnames {
		d, err := nocout.ParseDesign(name)
		if err != nil {
			return err
		}
		ds = append(ds, d)
	}
	// Unknown hierarchy names hard-error here, exactly like unknown
	// designs; an empty -hierarchy keeps each variant's own default.
	var hnames []string
	if *hiers != "" {
		hnames = strings.Split(*hiers, ",")
	} else if *hier != "" {
		hnames = []string{*hier}
	}
	var hs []nocout.HierarchyID
	for _, name := range hnames {
		h, err := nocout.ParseHierarchy(name)
		if err != nil {
			return err
		}
		hs = append(hs, h)
	}
	q, err := nocout.ParseQuality(*quality)
	if err != nil {
		return err
	}
	var loads []float64
	if *offeredLoads != "" {
		for _, s := range strings.Split(*offeredLoads, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				return fmt.Errorf("-offered-loads: %w", err)
			}
			loads = append(loads, v)
		}
	}

	wdisplay := make([]string, len(ws))
	for i, w := range ws {
		wdisplay[i] = w.Name()
	}
	opts := []nocout.Option{
		nocout.WithTitle(fmt.Sprintf("%s / %s", strings.Join(dnames, ","), strings.Join(wdisplay, ","))),
		// By name/spec, not by value: the sweep records trace:<path> specs
		// on its points, so campaign workers in other processes rehydrate
		// the same workload instead of a same-named registry entry.
		nocout.WithWorkloads(wnames...),
		nocout.WithQuality(q),
	}
	if len(hs) > 0 {
		opts = append(opts, nocout.WithHierarchies(hs...))
	}
	if len(loads) > 0 {
		opts = append(opts, nocout.WithOfferedLoads(loads...))
	}
	cfgs := make([]nocout.Config, len(ds))
	for i, d := range ds {
		cfg := nocout.DefaultConfig(d)
		cfg.Cores = *cores
		cfg.LinkBits = *linkBits
		cfg.Seed = *seed
		if *memLat > 0 {
			cfg.Mem.AccessLat = nocout.Cycle(*memLat)
		}
		if *memBW > 0 {
			// 64B per line at the 2 GHz core clock: cycles = 128 / (GB/s).
			period := int(math.Round(128 / *memBW))
			if period < 1 {
				period = 1
			}
			cfg.Mem.LinePeriod = nocout.Cycle(period)
		}
		cfgs[i] = cfg
		opts = append(opts, nocout.WithVariant(d.String(), cfg))
	}

	if *simParallel > 1 {
		opts = append(opts, nocout.WithSimParallelism(*simParallel))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	exp := nocout.NewExperiment(opts...)

	if *campaignDir != "" {
		return runCampaign(ctx, *campaignDir, exp, campaign.Options{
			Owner:                *campaignWorker,
			LeaseTTL:             *leaseTTL,
			Recompute:            *recompute,
			SimParallelism:       *simParallel,
			CheckpointDir:        *checkpointDir,
			RecomputeCheckpoints: *recomputeCkpts,
		}, *jsonOut, *csvOut)
	}

	var ckpts *nocout.CheckpointStore
	if *checkpointDir != "" {
		st, err := nocout.NewCheckpointStore(*checkpointDir)
		if err != nil {
			return err
		}
		st.Recompute = *recomputeCkpts
		ckpts = st
	}

	sw, err := exp.Sweep()
	if err != nil {
		return err
	}
	// KeepGoing records a broken point's error in its report row and
	// finishes the rest of the sweep instead of aborting.
	rep, err := (&nocout.Runner{KeepGoing: *keepGoing, Checkpoints: ckpts}).Run(ctx, sw)
	if err != nil {
		return err
	}

	if *jsonOut || *csvOut {
		return writeReport(rep, *jsonOut, *csvOut)
	}

	cells := len(ds) * len(ws)
	if len(hs) > 1 {
		cells *= len(hs)
	}
	if len(loads) > 0 {
		// A load sweep renames its cells by derived spec; the table is the
		// only sensible text rendering.
		cells *= len(loads)
	}
	if cells > 1 {
		fmt.Println(rep.Table())
	} else if pr := rep.Results[0]; pr.Err != "" {
		fmt.Println("failed:", pr.Err)
	} else {
		res := pr.Result
		fmt.Println(res)
		fmt.Printf("  LLC miss rate: %.1f%%   L1-I MPKI: %.1f   L1-D MPKI: %.1f\n",
			res.LLCMissRate*100, res.L1IMPKI, res.L1DMPKI)
	}
	for i, d := range ds {
		if area := nocout.Area(cfgs[i]); area.Total() > 0 {
			fmt.Printf("  %s NoC area: %v\n", d, area)
			// The per-workload power lines address report cells by plain
			// design name; a hierarchy sweep renames its variants
			// "design/hierarchy" and a load sweep renames workloads by
			// derived spec, so those breakdowns live in the table instead.
			// A failed point has no power to report.
			if len(hs) <= 1 && len(loads) == 0 {
				for _, w := range ws {
					if pr, _ := rep.GetPoint(d.String(), w.Name(), 0); pr.Err == "" {
						fmt.Printf("  %s NoC power (%s): %v\n", d, w.Name(), pr.Result.NoCPower)
					}
				}
			}
		}
	}
	hlist := hs
	if len(hlist) == 0 {
		hlist = []nocout.HierarchyID{cfgs[0].Hierarchy}
	}
	for _, h := range hlist {
		cfg := cfgs[0]
		cfg.Hierarchy = h
		hp, err := nocout.HierarchyPhysical(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("  %s LLC: %v\n", h, hp)
	}
	return failures(rep)
}

// writeReport prints rep as JSON, CSV or its table, then fails when rep
// holds a failed point.
func writeReport(rep *nocout.Report, jsonOut, csvOut bool) error {
	var err error
	switch {
	case jsonOut:
		err = rep.WriteJSON(os.Stdout)
	case csvOut:
		err = rep.WriteCSV(os.Stdout)
	default:
		fmt.Println(rep.Table())
	}
	if err != nil {
		return err
	}
	return failures(rep)
}

// failures counts rep's failed points into an error, so that a KeepGoing
// sweep or a merged campaign that holds a failure exits non-zero after
// printing its report.
func failures(rep *nocout.Report) error {
	n := 0
	for _, pr := range rep.Results {
		if pr.Err != "" {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	return fmt.Errorf("%d of %d points failed", n, len(rep.Results))
}

// runCampaign runs one campaign worker over dir and, once every point of
// the manifest has a stored result, prints the merged report. A fresh
// directory is created from the sweep the flags describe; an existing one
// is resumed exactly as its manifest pins it (the sweep flags are
// ignored), so joining as a second worker is just `nocout -campaign dir`.
func runCampaign(ctx context.Context, dir string, exp *nocout.Experiment, opts campaign.Options, jsonOut, csvOut bool) error {
	c, err := campaign.Open(dir)
	if errors.Is(err, fs.ErrNotExist) {
		sw, serr := exp.Sweep()
		if serr != nil {
			return serr
		}
		c, err = campaign.Create(dir, sw)
	}
	if err != nil {
		return err
	}
	// Progress and the worker summary go to stderr so -json keeps stdout
	// as one clean Report document.
	opts.Progress = func(done, total int, p nocout.Point, _ nocout.Result) {
		fmt.Fprintf(os.Stderr, "nocout: campaign [%d/%d] %s\n", done, total, p)
	}
	stats, werr := c.Work(ctx, opts)
	fmt.Fprintf(os.Stderr, "nocout: campaign %s: %d points: %d computed, %d cached, %d failed (%d passes)\n",
		dir, stats.Points, stats.Computed, stats.Cached, stats.Failed, stats.Passes)
	if werr != nil {
		return fmt.Errorf("campaign interrupted (completed points are stored; resume with nocout -campaign %s): %w", dir, werr)
	}
	rep, err := c.Merge()
	if err != nil {
		return err
	}
	return writeReport(rep, jsonOut, csvOut)
}
