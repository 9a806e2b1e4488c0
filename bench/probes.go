package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"nocout"
	"nocout/bench/ledger"
	"nocout/campaign"
	"nocout/internal/chip"
	"nocout/internal/cpu"
	"nocout/internal/sim"
)

// Layer probes time the workload, checkpoint and campaign layers in
// isolation. They are the same on every workload, so a traced run of any
// workload reports every per-layer metric.

// probeRepeats is how many times each probe runs; the median is reported.
const probeRepeats = 3

// medianNs runs f probeRepeats times and returns the median host ns.
func medianNs(f func() error) (float64, error) {
	var ns []float64
	for range probeRepeats {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ns = append(ns, float64(time.Since(start)))
	}
	return ledger.Median(ns), nil
}

var sinkInstr cpu.Instr

// drain pulls n instructions from each of cores streams of w.
func drain(w nocout.Workload, cores, n int, seed uint64) {
	for core := range cores {
		st := w.StreamFor(core, seed)
		for range n {
			sinkInstr = st.Next()
		}
	}
}

// probeLayers measures the workload.*, ckpt.* and campaign.* metrics.
func probeLayers(e *env) (map[string]float64, error) {
	out := map[string]float64{}
	for _, probe := range []func(*env, map[string]float64) error{probeStreams, probeNOC3, probeCkpt, probeCampaign} {
		if err := probe(e, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// probeStreams times instruction generation: the Data Serving generator,
// and the open-system stream answering the core's once-per-cycle NextAt.
func probeStreams(e *env, out map[string]float64) error {
	const n = 1 << 20
	ds, err := nocout.ParseWorkload("Data Serving")
	if err != nil {
		return err
	}
	ns, err := medianNs(func() error { drain(ds, 1, n, e.seed); return nil })
	if err != nil {
		return err
	}
	out["workload.stream_ns_per_instr"] = ns / n

	open, err := nocout.ParseWorkload(openLow)
	if err != nil {
		return err
	}
	ns, err = medianNs(func() error {
		st, ok := open.StreamFor(0, e.seed).(cpu.TimedStream)
		if !ok {
			return fmt.Errorf("%s: stream is not timed", openLow)
		}
		for i := range sim.Cycle(n) {
			sinkInstr = st.NextAt(i)
		}
		return nil
	})
	out["workload.open_ns_per_instr"] = ns / n
	return err
}

// probeNOC3 records MapReduce-C at 16 cores to a NOC3 trace and replays
// every stream of it. Encode time excludes generating the instructions.
func probeNOC3(e *env, out map[string]float64) error {
	const cores, perCore = 16, recordPerCore
	instrs := float64(cores * perCore)
	src, err := nocout.ParseWorkload("MapReduce-C")
	if err != nil {
		return err
	}
	path := filepath.Join(e.dir, "probe.noc3")
	gen, err := medianNs(func() error { drain(src, cores, perCore, e.seed); return nil })
	if err != nil {
		return err
	}
	rec, err := medianNs(func() error { return nocout.RecordTraceFile(path, src, cores, perCore, e.seed) })
	if err != nil {
		return err
	}
	dec, err := medianNs(func() error {
		tf, err := nocout.LoadTrace(path)
		if err != nil {
			return err
		}
		drain(tf, cores, perCore, e.seed)
		if cl, ok := tf.(io.Closer); ok {
			return cl.Close()
		}
		return nil
	})
	if err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	out["workload.noc3_encode_ns_per_instr"] = (rec - gen) / instrs
	out["workload.noc3_decode_ns_per_instr"] = dec / instrs
	out["workload.noc3_bytes_per_instr"] = float64(fi.Size()) / instrs
	return nil
}

// probeCkpt snapshots a warmed 64-core NOC-Out chip and restores it,
// checking the restored chip's state hash against the donor's.
func probeCkpt(e *env, out map[string]float64) error {
	w, err := nocout.ParseWorkload("Data Serving")
	if err != nil {
		return err
	}
	cfg := chip.DefaultConfig(chip.NOCOut)
	cfg.Seed = e.seed
	start := time.Now()
	donor := chip.New(cfg, w)
	donor.PrewarmCaches()
	donor.Warmup(nocout.Quick.Warmup)
	warm := float64(time.Since(start))
	want := donor.StateHash()

	var buf bytes.Buffer
	snap, err := medianNs(func() error { buf.Reset(); return donor.Snapshot(&buf) })
	if err != nil {
		return err
	}
	restore, err := medianNs(func() error {
		c, err := chip.Restore(cfg, w, 1, bytes.NewReader(buf.Bytes()))
		if err == nil {
			got := c.StateHash()
			e.ops.check(got == want, "ckpt: restored state hash %x, donor %x", got, want)
		}
		return err
	})
	if err != nil {
		return err
	}
	out["ckpt.snapshot_ms"] = snap / 1e6
	out["ckpt.restore_ms"] = restore / 1e6
	out["ckpt.bytes"] = float64(buf.Len())
	out["ckpt.restore_vs_warmup"] = restore / warm
	return nil
}

// probeCampaign measures the campaign layer's own cost on a sweep whose
// simulations are tiny: a plain Runner, a cold campaign in a fresh
// directory, and an all-cached re-run, each the median of probeRepeats.
func probeCampaign(e *env, out map[string]float64) error {
	var names []string
	for _, p := range nocout.BuiltinWorkloads() {
		names = append(names, p.Name)
	}
	sw, err := nocout.NewExperiment(
		nocout.WithTitle("campaign probe"),
		nocout.WithDesigns(nocout.Mesh, nocout.NOCOut),
		nocout.WithWorkloads(names...),
		nocout.WithCoreCounts(4),
		nocout.WithQuality(nocout.Quality{Warmup: 200, Window: 200, Seeds: 1}),
		nocout.WithSeed(e.seed),
	).Sweep()
	if err != nil {
		return err
	}
	var plain []string
	plainNs, err := medianNs(func() (err error) {
		_, plain, err = runSweep(e, &nocout.Runner{}, "campaign-probe/plain", sw)
		return err
	})
	if err != nil {
		return err
	}
	opts := campaign.Options{Workers: e.procs}
	var c *campaign.Campaign
	fresh := 0
	coldNs, err := medianNs(func() (err error) {
		fresh++
		if c, err = campaign.Create(filepath.Join(e.dir, fmt.Sprintf("campaign%d", fresh)), sw); err != nil {
			return err
		}
		_, err = c.Work(e.ctx, opts)
		return err
	})
	if err != nil {
		return err
	}
	var again campaign.Stats
	hitNs, err := medianNs(func() (err error) {
		again, err = c.Work(e.ctx, opts)
		return err
	})
	if err != nil {
		return err
	}
	merged, err := c.Merge()
	if err != nil {
		return err
	}
	ds, err := reportOps(e.ops, "campaign-probe/campaign", merged)
	if err != nil {
		return err
	}
	e.ops.check(slices.Equal(ds, plain) && again.Computed == 0,
		"campaign: merged %v differs from plain %v (cached re-run computed %d)", ds, plain, again.Computed)
	points := float64(sw.Len())
	out["campaign.cold_overhead_ms_per_point"] = (coldNs - plainNs) / points / 1e6
	out["campaign.hit_ms_per_point"] = hitNs / points / 1e6
	return nil
}
