// Consolidated scenarios through the behavioral Workload API: a
// multiprogrammed mix with its per-member IPC breakdown, a custom
// phased (map→shuffle) schedule built from the calibration blocks, and
// a record-then-replay round trip through the "trace:<path>" scheme —
// the three workload families the registry serves beyond the paper's
// six synthetics.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"reflect"
	"sort"

	"nocout"
)

func main() {
	log.SetFlags(0)
	// All work happens in run so its defers — the temp-dir cleanup in
	// particular — execute on error paths too (log.Fatal would skip them).
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cfg := nocout.DefaultConfig(nocout.NOCOut)
	cfg.Cores = 16

	// A phased schedule is just data: calibrations plus instruction
	// counts. This one stretches the builtin example's shuffle phase.
	mapPhase, err := nocout.WorkloadParamsOf("mapreduce-c")
	if err != nil {
		return err
	}
	shufflePhase, err := nocout.WorkloadParamsOf("mapreduce-w")
	if err != nil {
		return err
	}
	heavyShuffle := nocout.NewPhased("Shuffle-Heavy MapReduce",
		nocout.Phase{Params: mapPhase, Instrs: 20000},
		nocout.Phase{Params: shufflePhase, Instrs: 60000},
	)

	rep, err := nocout.NewExperiment(
		nocout.WithTitle("Workload families on 16-core NOC-Out"),
		nocout.WithVariant("NOC-Out", cfg),
		nocout.WithWorkloads("websearch", "mix", "phased"), // aliases resolve
		nocout.WithWorkloadValues(heavyShuffle),            // unregistered values sweep too
		nocout.WithQuality(nocout.Quick),
	).Run(context.Background())
	if err != nil {
		return err
	}
	fmt.Println(rep.Table())

	// The mix result carries one IPC per member workload.
	mix := rep.MustGet("NOC-Out", "Consolidated", 0)
	fmt.Println("Consolidated per-member IPC:")
	members := make([]string, 0, len(mix.PerWorkloadIPC))
	for name := range mix.PerWorkloadIPC {
		members = append(members, name)
	}
	sort.Strings(members)
	for _, name := range members {
		fmt.Printf("  %-14s %.2f\n", name, mix.PerWorkloadIPC[name])
	}

	// Record Web Search once and replay it through a sweep of its own (a
	// replay keeps its source's name, so it cannot share the sweep above);
	// a recording that covers the run reproduces the live Result exactly.
	ws, err := nocout.ParseWorkload("Web Search")
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "nocout-trace")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "websearch.noctrace")
	if err := nocout.RecordTraceFile(path, ws, cfg.Cores, int(nocout.Quick.Warmup+nocout.Quick.Window)*3, cfg.Seed); err != nil {
		return err
	}

	replayed, err := nocout.NewExperiment(
		nocout.WithVariant("NOC-Out", cfg),
		nocout.WithWorkloads("trace:"+path),
		nocout.WithQuality(nocout.Quick),
	).Run(context.Background())
	if err != nil {
		return err
	}
	live := rep.MustGet("NOC-Out", "Web Search", 0)
	replay := replayed.MustGet("NOC-Out", "Web Search", 0)
	fmt.Printf("\nlive:   %v\nreplay: %v\nexact reproduction: %v\n",
		live, replay, reflect.DeepEqual(live, replay))
	return nil
}
