package main

import (
	"fmt"
	"io"
	"time"

	"nocout"
	"nocout/internal/chip"
	"nocout/internal/sim"
)

// simPoint is one chip-driven simulation: a design at a core count under
// a workload spec, warmed up and then measured for a window.
type simPoint struct {
	design   chip.Design
	workload string // any nocout.ParseWorkload spec
	label    string // the workload's name in op names; "" means workload
	cores    int
	seed     uint64
	warmup   sim.Cycle
	window   sim.Cycle
	domains  int // > 1 shards the simulation (chip.NewSharded)
}

// name identifies the point's result in op logs and golden.json; the
// domain count is left out because results do not depend on it.
func (p simPoint) name() string {
	label := p.label
	if label == "" {
		label = p.workload
	}
	return fmt.Sprintf("chip/%s/%s/%d/%d+%d/s%d", p.design, label, p.cores, p.warmup, p.window, p.seed)
}

// chipRun is what one simulation measured.
type chipRun struct {
	setupNs  int64 // chip.New + PrewarmCaches
	stepNs   int64 // Warmup + Run
	windowNs int64 // Run
	cycles   int64
	instrs   int64 // committed in the window
	digest   string
}

// runChip simulates p, recording its phases as spans. With tr set, the
// chip's components tick behind tr's timers.
func runChip(p simPoint, tr *tracer, spans *spanLog) (chipRun, error) {
	var r chipRun
	w, err := nocout.ParseWorkload(p.workload)
	if err != nil {
		return r, err
	}
	if cl, ok := w.(io.Closer); ok {
		defer cl.Close()
	}
	cfg := chip.DefaultConfig(p.design)
	cfg.Cores = p.cores
	cfg.Seed = p.seed

	root := spans.begin(0, p.name())
	phase := func(name string, f func()) int64 {
		id := spans.begin(root, name)
		start := time.Now()
		f()
		spans.end(id)
		return int64(time.Since(start))
	}
	var c *chip.Chip
	build := phase("build", func() { c = chip.NewSharded(cfg, w, p.domains) })
	var before [numClasses]classStat
	if tr != nil {
		if err := tr.instrument(c); err != nil {
			return r, err
		}
		before = tr.classes
	}
	prewarm := phase("prewarm", c.PrewarmCaches)
	warm := phase("warmup", func() { c.Warmup(p.warmup) })
	r.windowNs = phase("window", func() { c.Run(p.window) })
	var m chip.Metrics
	phase("metrics", func() { m = c.Metrics() })
	spans.end(root)

	r.setupNs = build + prewarm
	r.stepNs = warm + r.windowNs
	r.cycles = int64(p.warmup + p.window)
	r.instrs = m.Instrs
	if tr != nil {
		tr.stepNs += r.stepNs
		tr.cycles += r.cycles
		spans.setClasses(root, classTable(before, tr.classes))
	}
	r.digest, err = chipDigest(c, m)
	return r, err
}
