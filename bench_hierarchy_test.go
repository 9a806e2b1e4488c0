package nocout

import (
	"testing"
)

// This file benchmarks the memory-hierarchy layer: a full Quick-quality
// chip measurement per registered hierarchy on Figure 1's 64-core mesh
// configuration (Data Serving, software scalability lifted — the
// configuration whose core-to-LLC distance sensitivity motivates the
// paper). CI archives the results as BENCH_hierarchy.json through the
// same converter as BENCH_kernel.json and BENCH_workload.json, so the
// hierarchy layer's perf and the hierarchies' relative system performance
// are tracked PR over PR.

// BenchmarkHierarchyQuick measures every registered hierarchy on the
// Figure 1 mesh system; agg-ipc is the hierarchy's Quick-quality system
// throughput and ns/simcycle the simulator cost of its memory system.
func BenchmarkHierarchyQuick(b *testing.B) {
	simCycles := int64(Quick.Warmup + Quick.Window)
	for _, id := range Hierarchies() {
		hier, err := HierarchyOf(id)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(hier.Name(), func(b *testing.B) {
			cfg := hier.DefaultConfig(DefaultConfig(Mesh))
			cfg.Hierarchy = id
			var res Result
			for i := 0; i < b.N; i++ {
				res = measure(b, cfg, Quick, WithWorkloads("Data Serving"), WithUnlimitedCores())
			}
			b.ReportMetric(res.AggIPC, "agg-ipc")
			b.ReportMetric(res.AvgNetLatency, "net-lat-cy")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(simCycles*int64(b.N)), "ns/simcycle")
		})
	}
}
