package nocout

import (
	"bytes"
	"context"
	"testing"

	"nocout/internal/chip"
)

// This file benchmarks the warm-state checkpoint subsystem: the cost and
// size of one snapshot, the cost of one restore, and the end-to-end
// measurement with a cold vs warm checkpoint cache. CI archives the
// results as BENCH_checkpoint.json so the subsystem's perf trajectory —
// and the warmup cycles a cache hit saves — is tracked PR over PR.

// benchWarmChip builds and warms the benchmark system: a Quick-quality
// 16-core mesh on Web Search.
func benchWarmChip(b *testing.B) (Config, *chip.Chip) {
	b.Helper()
	cfg := DefaultConfig(Mesh)
	cfg.Cores = 16
	w, err := ParseWorkload("Web Search")
	if err != nil {
		b.Fatal(err)
	}
	return cfg, warmChip(cfg, w, 1, Quick.Warmup)
}

// BenchmarkCheckpointSnapshot prices one full-chip snapshot, with its
// allocations; ckpt-bytes is the container size the store writes per
// prefix.
func BenchmarkCheckpointSnapshot(b *testing.B) {
	_, c := benchWarmChip(b)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := c.Snapshot(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "ckpt-bytes")
}

// BenchmarkCheckpointRestore prices one restore — parse, rebuild the
// chip, load every section — with its allocations; a restore replaces an
// entire warmup on a cache hit, and warmup-cycles-replaced is what each
// one avoids simulating.
func BenchmarkCheckpointRestore(b *testing.B) {
	cfg, c := benchWarmChip(b)
	w, err := ParseWorkload("Web Search")
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Snapshot(&buf); err != nil {
		b.Fatal(err)
	}
	snap := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chip.Restore(cfg, w, 1, bytes.NewReader(snap)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(Quick.Warmup), "warmup-cycles-replaced")
}

// benchCheckpointSweep measures the one-point Quick sweep through rn,
// reporting ns/op for the whole measurement.
func benchCheckpointSweep(b *testing.B, rn *Runner) {
	cfg := DefaultConfig(Mesh)
	cfg.Cores = 16
	exp := NewExperiment(
		WithTitle("checkpoint bench"),
		WithWorkloads("Web Search"),
		WithQuality(Quick),
		WithVariant("Mesh", cfg),
	)
	sw, err := exp.Sweep()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rn.Run(context.Background(), sw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointSweepPlain is the baseline: warmup simulated on
// every measurement.
func BenchmarkCheckpointSweepPlain(b *testing.B) {
	benchCheckpointSweep(b, &Runner{})
}

// BenchmarkCheckpointSweepWarm measures through a pre-populated cache:
// every iteration restores instead of warming, so the difference from
// Plain is the warmup time a hit saves (minus the restore cost above).
func BenchmarkCheckpointSweepWarm(b *testing.B) {
	st, err := NewCheckpointStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	rn := &Runner{Checkpoints: st}
	// Populate the cache outside the timed region.
	benchCheckpointSweep(b, rn)
	hitsBefore, _, _ := st.Stats()
	benchCheckpointSweep(b, rn)
	hits, misses, _ := st.Stats()
	if hits-hitsBefore < int64(b.N) {
		b.Fatalf("warm pass hit %d of %d iterations (misses %d)", hits-hitsBefore, b.N, misses)
	}
	b.ReportMetric(float64(Quick.Warmup), "warmup-cycles-saved/op")
}
