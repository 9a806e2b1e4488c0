package workload

import (
	"encoding/hex"
	"fmt"
	"io"
)

// Trace inspection: TraceInfo summarizes a NOC3 trace for the
// `nocout -trace-info` subcommand — header metadata, per-section byte
// accounting, block/predictor counts, and the compression ratio against
// the raw in-memory stream size.

// TraceInfo describes a trace file on disk.
type TraceInfo struct {
	Path      string `json:"path"`
	Format    string `json:"format"` // always "NOC3", the one trace format
	FileBytes int64  `json:"file_bytes"`

	Source     string `json:"source"`
	Seed       uint64 `json:"seed"`
	ScaleLimit int    `json:"scale_limit"`
	Cores      int    `json:"cores"`
	Instrs     int64  `json:"instrs"` // total recorded instructions, all cores

	// Fingerprint is the recording's behavioral fingerprint: the SHA-256
	// of its canonical NOC2 encoding.
	Fingerprint string `json:"fingerprint"`

	// Section accounting and block-level compression detail.
	BlockLen         int    `json:"block_len,omitempty"`
	Blocks           int    `json:"blocks,omitempty"`
	PredPrev         uint64 `json:"pred_prev,omitempty"`  // previous-instruction predictor wins
	PredPhase        uint64 `json:"pred_phase,omitempty"` // phase predictor wins
	HeaderSectionB   int    `json:"header_section_bytes,omitempty"`
	IndexSectionB    int    `json:"index_section_bytes,omitempty"`
	BlockSectionB    uint64 `json:"block_section_bytes,omitempty"`
	RawResidualBytes uint64 `json:"raw_residual_bytes,omitempty"`
}

// BytesPerInstr is the on-disk cost per recorded instruction.
func (ti *TraceInfo) BytesPerInstr() float64 {
	if ti.Instrs == 0 {
		return 0
	}
	return float64(ti.FileBytes) / float64(ti.Instrs)
}

// CompressionRatio is raw stream bytes (24 per cpu.Instr in memory) over
// file bytes — how much smaller the container is than the replayed data.
func (ti *TraceInfo) CompressionRatio() float64 {
	if ti.FileBytes == 0 {
		return 0
	}
	return float64(ti.Instrs) * 24 / float64(ti.FileBytes)
}

// InspectTrace reads a NOC3 trace file's metadata from its header and
// index sections alone, without decoding a block. It opens the file
// through OpenTraceFile, so anything else fails with ErrNotTrace.
func InspectTrace(path string) (*TraceInfo, error) {
	t, err := OpenTraceFile(path)
	if err != nil {
		return nil, err
	}
	defer t.Close()
	ti := &TraceInfo{
		Path:             path,
		Format:           "NOC3",
		FileBytes:        t.size,
		Source:           t.hdr.Source,
		Seed:             t.hdr.Seed,
		ScaleLimit:       t.hdr.ScaleLimit,
		Cores:            len(t.cores),
		Fingerprint:      hex.EncodeToString(t.fp[:]),
		BlockLen:         t.blockLen,
		Blocks:           t.stats.Blocks,
		PredPrev:         t.stats.PredPrev,
		PredPhase:        t.stats.PredPhase,
		HeaderSectionB:   t.headerSz,
		IndexSectionB:    t.indexSz,
		BlockSectionB:    t.stats.BlockSectionBytes,
		RawResidualBytes: t.stats.RawResidualBytes,
	}
	for i := range t.cores {
		ti.Instrs += int64(t.cores[i].meta.Total)
	}
	return ti, nil
}

// WriteText renders the info as the CLI's human-readable report.
func (ti *TraceInfo) WriteText(w io.Writer) {
	fmt.Fprintf(w, "trace:        %s\n", ti.Path)
	fmt.Fprintf(w, "format:       %s\n", ti.Format)
	fmt.Fprintf(w, "source:       %s (seed %d, scale limit %d)\n", ti.Source, ti.Seed, ti.ScaleLimit)
	fmt.Fprintf(w, "cores:        %d\n", ti.Cores)
	fmt.Fprintf(w, "instructions: %d (%d per core)\n", ti.Instrs, ti.Instrs/int64(max(ti.Cores, 1)))
	fmt.Fprintf(w, "file bytes:   %d (%.3f bytes/instr, %.2fx vs in-memory stream)\n",
		ti.FileBytes, ti.BytesPerInstr(), ti.CompressionRatio())
	fmt.Fprintf(w, "fingerprint:  capture:%s\n", ti.Fingerprint)
	fmt.Fprintf(w, "block length: %d instructions\n", ti.BlockLen)
	total := ti.PredPrev + ti.PredPhase
	fmt.Fprintf(w, "blocks:       %d (%d prev-delta, %d phase-delta — %.1f%% phase)\n",
		ti.Blocks, ti.PredPrev, ti.PredPhase, 100*float64(ti.PredPhase)/float64(max(total, 1)))
	fmt.Fprintf(w, "sections:     header %dB, blocks %dB, index %dB\n",
		ti.HeaderSectionB, ti.BlockSectionB, ti.IndexSectionB)
	if ti.RawResidualBytes > 0 {
		fmt.Fprintf(w, "deflate:      %dB residuals -> %dB on disk (%.2fx)\n",
			ti.RawResidualBytes, ti.BlockSectionB, float64(ti.RawResidualBytes)/float64(ti.BlockSectionB))
	}
}
