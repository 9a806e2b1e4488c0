package chip

import (
	"testing"

	"nocout/internal/noc"
	"nocout/internal/topo"
	"nocout/internal/workload"
)

func small(d Design) Config {
	cfg := DefaultConfig(d)
	cfg.Cores = 16
	if d == NOCOut {
		cfg.NOCOut.Columns = 4
		cfg.NOCOut.RowsPerSide = 2
	}
	return cfg
}

func TestAllDesignsExecute(t *testing.T) {
	for _, d := range []Design{Mesh, FBfly, NOCOut, Ideal} {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			t.Parallel()
			m := Measure(small(d), workload.Synth(workload.MapReduceC), 2000, 4000)
			if m.Instrs == 0 {
				t.Fatalf("%v: no instructions committed", d)
			}
			if m.AggIPC <= 0 || m.PerCoreIPC <= 0 {
				t.Fatalf("%v: IPC not positive: %+v", d, m)
			}
			if m.Dir.Accesses == 0 {
				t.Fatalf("%v: LLC never accessed", d)
			}
			if m.Net.Delivered == 0 {
				t.Fatalf("%v: network idle", d)
			}
		})
	}
}

func TestDefault64CoreConfigsExecute(t *testing.T) {
	for _, d := range []Design{Mesh, NOCOut} {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			t.Parallel()
			m := Measure(DefaultConfig(d), workload.Synth(workload.MapReduceW), 1500, 2500)
			if m.ActiveCores != 64 {
				t.Fatalf("active = %d", m.ActiveCores)
			}
			if m.Instrs == 0 || m.Dir.Accesses == 0 {
				t.Fatalf("64-core %v silent: %+v", d, m)
			}
		})
	}
}

func TestWorkloadScalingLimitDisablesCores(t *testing.T) {
	cfg := DefaultConfig(NOCOut)
	c := New(cfg, workload.Synth(workload.WebSearch)) // 16-core workload
	if c.ActiveCores() != 16 {
		t.Fatalf("active = %d, want 16", c.ActiveCores())
	}
	enabled := 0
	adjacent := 0
	for i, co := range c.Cores {
		if !co.Enabled() {
			continue
		}
		enabled++
		_, _, row := topo.DefaultNOCOutParams().CoreLoc(c.Fabric.CoreNode(i))
		if row == 0 {
			adjacent++
		}
	}
	if enabled != 16 {
		t.Fatalf("enabled = %d", enabled)
	}
	// §5.3: the 16 active cores are the tiles adjacent to the LLC.
	if adjacent != 16 {
		t.Fatalf("only %d/16 active cores adjacent to the LLC", adjacent)
	}
}

func TestCentralTilesChosenOnMesh(t *testing.T) {
	cfg := DefaultConfig(Mesh)
	c := New(cfg, workload.Synth(workload.WebFrontend)) // 16-core workload
	if c.ActiveCores() != 16 {
		t.Fatalf("active = %d", c.ActiveCores())
	}
	for i, co := range c.Cores {
		if !co.Enabled() {
			continue
		}
		x, y := c.Plan.Coord(noc.NodeID(i))
		if x < 2 || x > 5 || y < 2 || y > 5 {
			t.Fatalf("active core %d at (%d,%d) is not central", i, x, y)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := Measure(small(Mesh), workload.Synth(workload.SATSolver), 1000, 2000)
	b := Measure(small(Mesh), workload.Synth(workload.SATSolver), 1000, 2000)
	if a.Instrs != b.Instrs || a.Dir.Accesses != b.Dir.Accesses || a.Net.Delivered != b.Net.Delivered {
		t.Fatalf("same seed, different results:\n%+v\n%+v", a, b)
	}
	cfg := small(Mesh)
	cfg.Seed = 2
	c := Measure(cfg, workload.Synth(workload.SATSolver), 1000, 2000)
	if c.Instrs == a.Instrs && c.Net.Delivered == a.Net.Delivered {
		t.Fatal("different seeds should perturb the run")
	}
}

func TestIdealBeatsMeshAt64Cores(t *testing.T) {
	// Figure 1's premise: interconnect delay costs real performance at 64
	// cores on latency-sensitive workloads.
	mi := Measure(DefaultConfig(Ideal), workload.Synth(workload.DataServing), 3000, 6000)
	mm := Measure(DefaultConfig(Mesh), workload.Synth(workload.DataServing), 3000, 6000)
	if mi.AggIPC <= mm.AggIPC {
		t.Fatalf("ideal (%.3f) should outperform mesh (%.3f)", mi.AggIPC, mm.AggIPC)
	}
}

func TestInstructionMissesHitInLLC(t *testing.T) {
	// The instruction footprint fits the LLC: after warm-up, LLC misses
	// should be dominated by data, and the ifetch stall share must be
	// meaningful (the paper's core observation).
	m := Measure(DefaultConfig(Mesh), workload.Synth(workload.DataServing), 5000, 10000)
	if m.L1IMPKI < 5 {
		t.Fatalf("L1-I MPKI = %.1f: instruction footprint should thrash the L1-I", m.L1IMPKI)
	}
	if m.IfetchStallPct < 0.05 {
		t.Fatalf("ifetch stall share = %.3f: instruction fetches should matter", m.IfetchStallPct)
	}
}

func TestSnoopsAreRare(t *testing.T) {
	// Figure 4: coherence activity is negligible (~2% of LLC accesses).
	m := Measure(DefaultConfig(Mesh), workload.Synth(workload.MapReduceC), 5000, 10000)
	rate := m.Dir.SnoopRate()
	if rate > 0.10 {
		t.Fatalf("snoop rate %.3f: should be rare", rate)
	}
}

func TestMemoryTrafficFlows(t *testing.T) {
	m := Measure(small(Mesh), workload.Synth(workload.WebSearch), 2000, 4000)
	if m.Dir.MemReads == 0 {
		t.Fatal("vast dataset must generate memory reads")
	}
}

func TestMetricsLatencyAccounting(t *testing.T) {
	m := Measure(small(NOCOut), workload.Synth(workload.MapReduceW), 2000, 4000)
	if m.AvgNetLatency <= 0 || m.AvgRespLatency <= 0 {
		t.Fatalf("latency accounting broken: %+v", m)
	}
}
