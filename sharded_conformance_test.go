package nocout

import (
	"fmt"
	"testing"

	"nocout/internal/chip"
	"nocout/internal/workload"
)

// This file is the parallel kernel's correctness oracle: the sharded
// conservative kernel (chip.NewSharded, domains stepping concurrently
// under the horizon protocol) must be bit-identical to the single-engine
// scheduled kernel for every registered design, every hierarchy, and any
// domain count — the same oracle TestKernelConformance applies to
// scheduled-vs-naive, extended to sharded-vs-scheduled.

// TestShardedKernelConformance holds a 4-domain sharded chip to the
// single-engine scheduled kernel in lockstep for every registered design.
func TestShardedKernelConformance(t *testing.T) {
	w, err := workload.Parse("MapReduce-C")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Designs() {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig(d)
			cfg.Cores = 16
			ref := chip.New(cfg, w)
			ref.PrewarmCaches()
			lockstep(t, confQ.Warmup+confQ.Window, ref, func() *chip.Chip {
				sh := chip.NewSharded(cfg, w, 4)
				sh.PrewarmCaches()
				if d != Ideal && d != Crossbar && sh.NumDomains() != 4 {
					t.Fatalf("sharded chip runs %d domains, want 4", sh.NumDomains())
				}
				return sh
			})
		})
	}
}

// shardedRun measures cfg through the Warmup/Run path the experiment
// engine uses, on a chip of the given domain count.
func shardedRun(cfg Config, w workload.Workload, domains int) *chip.Chip {
	c := chip.NewSharded(cfg, w, domains)
	c.PrewarmCaches()
	c.Warmup(confQ.Warmup)
	c.Run(confQ.Window)
	return c
}

// TestShardedHierarchyConformance runs the sharded kernel against every
// registered memory hierarchy: a full measurement in 4 domains agrees
// with the single-engine kernel's.
func TestShardedHierarchyConformance(t *testing.T) {
	w, err := workload.Parse("Web Search")
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range Hierarchies() {
		h := h
		t.Run(h.String(), func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig(Mesh)
			cfg.Cores = 16
			cfg.Hierarchy = h
			agree(t, "after the window, 1 then 4 domains", shardedRun(cfg, w, 1), shardedRun(cfg, w, 4))
		})
	}
}

// TestShardedDomainCountProperty is the domain-count invariance property:
// for the paper's two primary organizations at two core counts, every
// domain count in {1, 2, 4, 8} agrees with one domain, and so does a
// repeat of the same run — under -race this also proves the domain
// goroutines share no unsynchronized state.
func TestShardedDomainCountProperty(t *testing.T) {
	w, err := workload.Parse("MapReduce-C")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []Design{Mesh, NOCOut} {
		for _, cores := range []int{16, 64} {
			d, cores := d, cores
			t.Run(fmt.Sprintf("%s/%dcores", d, cores), func(t *testing.T) {
				t.Parallel()
				cfg := DefaultConfig(d)
				cfg.Cores = cores
				ref := shardedRun(cfg, w, 1)
				for _, domains := range []int{1, 2, 4, 8} {
					agree(t, fmt.Sprintf("after the window, 1 domain then %d domains twice", domains),
						ref, shardedRun(cfg, w, domains), shardedRun(cfg, w, domains))
				}
			})
		}
	}
}
