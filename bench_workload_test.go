package nocout

import (
	"os"
	"path/filepath"
	"testing"

	"nocout/internal/workload"
)

// This file benchmarks the workload layer: raw per-stream generation
// cost for every registered workload, and a full Quick-quality chip
// measurement driven by a recorded NOC3 trace vs the live synthetic
// generator. CI archives the results as BENCH_workload.json so the
// workload layer's perf trajectory is tracked PR over PR alongside the
// kernel's.

// BenchmarkWorkloadStream measures stream generation for every
// registered workload plus a NOC3 trace replay of Data Serving; ns/op is
// ns per generated instruction.
func BenchmarkWorkloadStream(b *testing.B) {
	for _, w := range RegisteredWorkloads() {
		b.Run(w.Name(), func(b *testing.B) {
			st := w.StreamFor(0, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.Next()
			}
		})
	}
	b.Run("Capture-Replay", func(b *testing.B) {
		tf := recordTrace(b, workload.Synth(workload.DataServing), 1, 4096, 1)
		st := tf.StreamFor(0, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st.Next()
		}
	})
}

// recordTrace records w to a NOC3 trace under b's temp dir and opens it.
func recordTrace(b *testing.B, w Workload, cores, perCore int, seed uint64) *TraceFile {
	b.Helper()
	path := filepath.Join(b.TempDir(), "bench.noctrace")
	if err := RecordTraceFile(path, w, cores, perCore, seed); err != nil {
		b.Fatal(err)
	}
	tf, err := workload.OpenTraceFile(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { tf.Close() })
	return tf
}

// BenchmarkTraceFormat measures the NOC3 trace container on a 16-core
// Quick-length recording: record cost (noc3-record's ns/instr is wall
// time per recorded instruction, stream generation included, on up to
// four CPUs), decode cost (noc3-decode's ns/instr is per replayed
// instruction, including steady-state block decode) and on-disk
// compression ratio (in-memory stream bytes over file bytes, reported as
// compress-x).
func BenchmarkTraceFormat(b *testing.B) {
	cfg := DefaultConfig(Mesh)
	cfg.Cores = 16
	perCore := int(Quick.Warmup+Quick.Window) * 3
	src, err := ParseWorkload("MapReduce-C")
	if err != nil {
		b.Fatal(err)
	}
	noc3 := filepath.Join(b.TempDir(), "bench3.noctrace")
	if err := RecordTraceFile(noc3, src, cfg.Cores, perCore, cfg.Seed); err != nil {
		b.Fatal(err)
	}
	rawBytes := float64(cfg.Cores) * float64(perCore) * 24 // in-memory cpu.Instr size
	compressX := func(b *testing.B, path string) {
		st, err := os.Stat(path)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rawBytes/float64(st.Size()), "compress-x")
	}

	b.Run("noc3-record", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "record.noctrace")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := RecordTraceFile(path, src, cfg.Cores, perCore, cfg.Seed); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(cfg.Cores*perCore)), "ns/instr")
	})
	b.Run("noc3-decode", func(b *testing.B) {
		total := int64(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tf, err := workload.OpenTraceFile(noc3)
			if err != nil {
				b.Fatal(err)
			}
			st := tf.StreamFor(0, 1)
			for k := 0; k < perCore; k++ {
				st.Next()
			}
			total += int64(perCore)
			tf.Close()
		}
		b.StopTimer()
		compressX(b, noc3)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/instr")
	})
}

// BenchmarkWorkloadQuick compares a Quick-quality 16-core mesh
// measurement driven synthetically against the same measurement driven
// by a non-wrapping NOC3 trace (the ns/simcycle gap is the cost — or
// saving — of replay on the full simulation path).
func BenchmarkWorkloadQuick(b *testing.B) {
	cfg := DefaultConfig(Mesh)
	cfg.Cores = 16
	simCycles := int64(Quick.Warmup + Quick.Window)
	report := func(b *testing.B, res Result) {
		b.ReportMetric(res.AggIPC, "agg-ipc")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(simCycles*int64(b.N)), "ns/simcycle")
	}

	b.Run("synthetic", func(b *testing.B) {
		var res Result
		for i := 0; i < b.N; i++ {
			res = measure(b, cfg, Quick, WithWorkloads("MapReduce-C"))
		}
		report(b, res)
	})
	b.Run("trace-replay", func(b *testing.B) {
		src, err := ParseWorkload("MapReduce-C")
		if err != nil {
			b.Fatal(err)
		}
		tf := recordTrace(b, src, cfg.Cores, int(Quick.Warmup+Quick.Window)*3, cfg.Seed)
		b.ResetTimer()
		var res Result
		for i := 0; i < b.N; i++ {
			res = measure(b, cfg, Quick, WithWorkloadValues(tf))
		}
		report(b, res)
	})
}
