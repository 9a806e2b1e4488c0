package nocout

import (
	"testing"

	"nocout/internal/sim"
	"nocout/internal/stats"
	"nocout/opensys"
)

// This file benchmarks the open-system traffic subsystem: raw arrival
// generation per process, latency-histogram record and merge cost, and
// a full Quick-quality open-loop measurement. CI archives the results
// as BENCH_opensys.json so the subsystem's perf trajectory is tracked
// PR over PR alongside the kernel's and workload layer's.

// BenchmarkOpenSysArrival prices arrival-schedule generation for each
// registered process; ns/op is ns per generated request arrival.
func BenchmarkOpenSysArrival(b *testing.B) {
	for _, bc := range []struct{ name, spec string }{
		{"Poisson", "opensys:arrival=poisson"},
		{"MMPP", "opensys:arrival=mmpp"},
		{"Burst", "opensys:arrival=burst"},
	} {
		o, err := opensys.Parse(bc.spec)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			if got := o.ArrivalTimes(0, 1, b.N); len(got) != b.N {
				b.Fatalf("generated %d arrivals, want %d", len(got), b.N)
			}
		})
	}
}

// BenchmarkOpenSysHistRecord is the per-request cost of the streaming
// latency histogram on the hot completion path.
func BenchmarkOpenSysHistRecord(b *testing.B) {
	rng := sim.NewRNG(1)
	var h stats.LogHist
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(int64(rng.Uint64() % (1 << 20)))
	}
	if h.Count() != int64(b.N) {
		b.Fatalf("count %d, want %d", h.Count(), b.N)
	}
}

// BenchmarkOpenSysHistMerge is the cost of folding one seed's (or one
// core's) histogram into an aggregate, as runSeeds and Chip.Metrics do.
func BenchmarkOpenSysHistMerge(b *testing.B) {
	rng := sim.NewRNG(2)
	var src stats.LogHist
	for i := 0; i < 1<<14; i++ {
		src.Record(int64(rng.Uint64() % (1 << 24)))
	}
	var dst stats.LogHist
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Merge(&src)
	}
	if dst.Count() != int64(b.N)*src.Count() {
		b.Fatalf("merged count %d", dst.Count())
	}
}

// BenchmarkOpenSysQuick is the end-to-end open-loop measurement: a
// Quick-quality 16-core mesh driven by the default Poisson process,
// reporting the simulated tail alongside wall cost.
func BenchmarkOpenSysQuick(b *testing.B) {
	cfg := DefaultConfig(Mesh)
	cfg.Cores = 16
	simCycles := int64(Quick.Warmup + Quick.Window)
	var res Result
	for i := 0; i < b.N; i++ {
		res = measure(b, cfg, Quick, WithWorkloads("open-poisson"))
	}
	if res.ReqLatency == nil {
		b.Fatal("open-loop run has no ReqLatency")
	}
	b.ReportMetric(res.AggIPC, "agg-ipc")
	b.ReportMetric(float64(res.ReqLatency.P99), "p99-cy")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(simCycles*int64(b.N)), "ns/simcycle")
}
