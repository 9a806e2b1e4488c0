// Command bench is the simulator's performance benchmark. It drives the
// simulator only through its public API — the Experiment/Sweep/Runner
// engine, the checkpoint store, trace recording, campaigns — and the
// exported calls of internal/chip, over five workloads (README.md lists
// them with the reason for each). Every result is checked against the
// committed golden digests and the simulator's cross-identities.
//
// With -workload it runs one workload in this process for -seconds and
// prints, as the last line of standard output, a JSON object with the
// fields correct, attempted, failed and metrics: the end-to-end metrics,
// or with -trace 1 the per-layer ones. Without -workload it runs every
// workload -runs times, each run in its own process, prints a summary
// with host metadata, and writes the runs to the -out ledger.
//
//	go run . -workload full-64 -seed 1 -seconds 20
//	go run . -runs 10 -out results/mine.json
//	go run . -trace 1
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"nocout/bench/ledger"
)

// minReps is the fewest repetitions a run measures, whatever -seconds is.
const minReps = 3

// buildDir holds everything runs write: work files and spans.
const buildDir = ".bench_build"

func main() {
	name := flag.String("workload", "", "run only this workload, in this process")
	seed := flag.Uint64("seed", 1, "base seed; golden digests apply at seed 1")
	seconds := flag.Int("seconds", 20, "seconds a run measures for (at least three repetitions)")
	trace := flag.Int("trace", 0, "1: a traced run reporting the per-layer metrics")
	runs := flag.Int("runs", 1, "without -workload: runs per workload, at seeds seed, seed+1, ...")
	out := flag.String("out", "", "without -workload: write the runs to this ledger file")
	golden := flag.String("update-golden", "", "record the digests into this golden file instead of checking them (seed 1)")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatal(errors.New("-trace must be 0 or 1"))
	}
	if *name == "" {
		os.Exit(harness(*seed, *seconds, *trace, *runs, *out, *golden))
	}
	run, err := runOne(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *golden)
	if err != nil {
		fatal(err)
	}
	printRun(os.Stderr, run)
	line, err := json.Marshal(run)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if line, err = json.Marshal(run.Result); err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runOne runs one workload in this process.
func runOne(name string, seed uint64, budget time.Duration, traced bool, golden string) (*ledger.Run, error) {
	i := slices.IndexFunc(workloads, func(w workloadEntry) bool { return w.name == name })
	if i < 0 {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
	}
	ops, err := newOpLog(seed, golden != "")
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(buildDir, "work"), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(filepath.Join(buildDir, "work"), name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{ctx: context.Background(), seed: seed, dir: dir, procs: runtime.GOMAXPROCS(0),
		ops: ops, spans: newSpanLog(), notes: map[string]ledger.Value{}}

	w := workloads[i].make()
	if err := w.prepare(e); err != nil {
		return nil, err
	}
	run := &ledger.Run{Workload: name, Seed: seed, Traced: traced, Notes: e.notes}
	var metrics map[string]float64
	if traced {
		metrics, err = tracedRun(e, w)
		if err == nil {
			err = e.spans.write(filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.json", name, seed)))
		}
	} else {
		metrics, run.Samples, err = measure(e, w, budget)
	}
	if err != nil {
		return nil, err
	}
	if golden != "" {
		if err := ops.writeGolden(golden); err != nil {
			return nil, err
		}
	}
	catalogue := ledger.EndToEnd
	if traced {
		catalogue = ledger.PerLayer
	}
	run.Metrics = map[string]ledger.Value{}
	for _, m := range catalogue {
		v, ok := metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", name, m.Name)
		}
		run.Metrics[m.Name] = ledger.Value{Value: v, Unit: m.Unit}
	}
	run.Attempted = ops.attempted
	run.Failed = len(ops.failures)
	run.Failures = ops.failures
	run.Correct = run.Failed == 0 && run.Attempted > 0
	return run, nil
}

// measure runs repetitions until the budget is spent — at least minReps
// of them — and reports each end-to-end metric as the median over them,
// with times scaled to the nominal host speed (see hostspeed.go).
func measure(e *env, w benchWorkload, budget time.Duration) (map[string]float64, map[string][]float64, error) {
	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	host := newHostMeter()
	start := time.Now()
	var last time.Duration
	for i := 0; i < minReps || time.Since(start)+last <= budget; i++ {
		debug.FreeOSMemory() // every repetition starts from a collected heap
		host.sample()
		t := time.Now()
		s, err := w.rep(e, i)
		if err != nil {
			return nil, nil, err
		}
		last = time.Since(t)
		add("wall_s", float64(s.wallNs)/1e9)
		add("setup_s", float64(s.setupNs)/1e9)
		add("ns_per_simcycle", float64(s.simNs)/float64(s.cycles))
		add("sim_kips", s.instrs/(float64(s.windowNs)/1e9)/1e3)
		add("alloc_mb", float64(s.allocB)/(1<<20))
	}
	host.sample()
	slow := host.slowdown()
	e.notes["host_slowdown"] = ledger.Value{Value: slow, Unit: "ratio"}
	for name, scale := range map[string]float64{"wall_s": 1 / slow, "setup_s": 1 / slow, "ns_per_simcycle": 1 / slow, "sim_kips": slow} {
		for i := range samples[name] {
			samples[name][i] *= scale
		}
	}
	metrics := map[string]float64{}
	for name, vs := range samples {
		metrics[name] = ledger.Median(vs)
	}
	// The peak is the whole process's: the largest any repetition reached.
	rss, err := peakRSSMB()
	if err != nil {
		return nil, nil, err
	}
	metrics["peak_rss_mb"] = rss
	return metrics, samples, nil
}

// tracedRun measures the per-layer metrics of workload w: CPU use over
// one untraced repetition, the class split of its trace points (each run
// untraced, traced, and the first also on two domains), and the probes.
func tracedRun(e *env, w benchWorkload) (map[string]float64, error) {
	out := map[string]float64{}
	host := newHostMeter()
	host.sample()
	defer func() {
		host.sample()
		e.notes["host_slowdown"] = ledger.Value{Value: host.slowdown(), Unit: "ratio"}
	}()
	s, err := w.rep(e, 0)
	if err != nil {
		return nil, err
	}
	out["runner.cpu_util"] = float64(s.cpuNs) / float64(s.wallNs) / float64(runtime.GOMAXPROCS(0))

	pair, inner := timerCost()
	points, err := w.tracePoints(e)
	if err != nil {
		return nil, err
	}
	tr := &tracer{}
	var plainNs, tracedNs int64
	for i, p := range points {
		plain, err := runChip(p, nil, e.spans)
		if err != nil {
			return nil, err
		}
		e.ops.point(p.name(), plain.digest)
		traced, err := runChip(p, tr, e.spans)
		if err != nil {
			return nil, err
		}
		e.ops.check(traced.digest == plain.digest, "%s: traced digest %s, untraced %s", p.name(), traced.digest, plain.digest)
		plainNs += plain.stepNs
		tracedNs += traced.stepNs
		if i == 0 {
			p.domains = 2
			two, err := runChip(p, nil, e.spans)
			if err != nil {
				return nil, err
			}
			e.ops.check(two.digest == plain.digest, "%s: 2-domain digest %s, 1-domain %s", p.name(), two.digest, plain.digest)
			out["sim.shard_speedup"] = float64(plain.stepNs) / float64(two.stepNs)
		}
	}
	maps.Copy(out, tr.layerMetrics(pair, inner))
	out["trace.overhead_frac"] = float64(tracedNs)/float64(plainNs) - 1
	out["trace.timer_ns"] = pair
	out["chip.build_ms"] = ledger.Median(e.spans.durations("build"))
	out["chip.prewarm_ms"] = ledger.Median(e.spans.durations("prewarm"))

	probes, err := probeLayers(e)
	if err != nil {
		return nil, err
	}
	maps.Copy(out, probes)
	return out, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for line := range strings.Lines(string(data)) {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// printRun prints a run's metrics with each one's repetition samples.
func printRun(w io.Writer, r *ledger.Run) {
	mode := "end-to-end"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s (%s, seed %d): %d ops, %d failed\n", r.Workload, mode, r.Seed, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintln(w, "  FAILED:", f)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  metric\tunit\tmedian\tmin\tmax\tn")
	for _, name := range slices.Sorted(maps.Keys(r.Metrics)) {
		v := r.Metrics[name]
		vs := r.Samples[name]
		if len(vs) == 0 {
			vs = []float64{v.Value}
		}
		fmt.Fprintf(tw, "  %s\t%s\t%.4g\t%.4g\t%.4g\t%d\n", name, v.Unit, v.Value, slices.Min(vs), slices.Max(vs), len(vs))
	}
	for _, name := range slices.Sorted(maps.Keys(r.Notes)) {
		fmt.Fprintf(tw, "  %s\t%s\t%.4g\t\t\t\n", name, r.Notes[name].Unit, r.Notes[name].Value)
	}
	tw.Flush()
}

// harness runs every workload runs times, each run in its own process
// and one after another, and returns the exit status.
func harness(seed uint64, seconds, trace, runs int, out, golden string) int {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	l := &ledger.Ledger{Host: hostInfo(), Seconds: seconds}
	status := 0
	for _, w := range workloads {
		for k := range runs {
			args := []string{"-workload", w.name, "-seed", strconv.FormatUint(seed+uint64(k), 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace)}
			if golden != "" {
				args = append(args, "-update-golden", golden)
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			start := time.Now()
			stdout, err := cmd.Output()
			elapsed := time.Since(start).Seconds()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				status = 1
				continue
			}
			run, err := parseRun(stdout)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				status = 1
				continue
			}
			if !run.Correct {
				status = 1
			}
			run.Elapsed = elapsed
			l.Runs = append(l.Runs, *run)
		}
	}
	printSummary(os.Stdout, l)
	if out != "" {
		if err := l.Write(out); err != nil {
			fatal(err)
		}
	}
	return status
}

// parseRun reads the ledger record a run prints before its result line.
func parseRun(stdout []byte) (*ledger.Run, error) {
	var lines []string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) < 2 {
		return nil, fmt.Errorf("run printed %d lines, want a record and a result", len(lines))
	}
	var r ledger.Run
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &r); err != nil {
		return nil, fmt.Errorf("run record: %w", err)
	}
	return &r, nil
}

// printSummary prints each workload's metrics over its runs.
func printSummary(w io.Writer, l *ledger.Ledger) {
	h := l.Host
	fmt.Fprintf(w, "host: %s, %d CPUs, GOMAXPROCS %d, %s, %s; %d s per run\n", h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion, h.OS, l.Seconds)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian\tmin\tmax\tn")
	for _, wl := range l.Workloads() {
		var runs []ledger.Run
		for _, r := range l.Runs {
			if r.Workload == wl {
				runs = append(runs, r)
			}
		}
		att, failed := 0, 0
		for _, r := range runs {
			att += r.Attempted
			failed += r.Failed
		}
		fmt.Fprintf(tw, "%s\tops\tcount\t%d attempted\t%d failed\t\t%d\n", wl, att, failed, len(runs))
		names := slices.Sorted(maps.Keys(runs[0].Metrics))
		for _, name := range append(names, slices.Sorted(maps.Keys(runs[0].Notes))...) {
			var vs []float64
			var unit string
			for _, r := range runs {
				v, ok := r.Metrics[name]
				if !ok {
					v, ok = r.Notes[name]
				}
				if ok {
					vs = append(vs, v.Value)
					unit = v.Unit
				}
			}
			if len(vs) == 0 {
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%.4g\t%d\n", wl, name, unit, ledger.Median(vs), slices.Min(vs), slices.Max(vs), len(vs))
		}
	}
	tw.Flush()
}

// hostInfo describes this machine.
func hostInfo() ledger.Host {
	h := ledger.Host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH, CPU: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for line := range strings.Lines(string(data)) {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
