package workload

import (
	"bufio"
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"math"
	"os"

	"nocout/internal/cas"
	"nocout/internal/ckpt"
	"nocout/internal/cpu"
)

// The NOC3 writer: records a workload (or converts a decoded NOC2
// capture) into the sectioned container, streaming block by block so the
// writer's footprint is O(block) no matter how long the trace is, and
// hashing the canonical NOC2 encoding as it goes so the recording's
// behavioral fingerprint is identical in either format.

// noc3Writer streams one container through a ckpt.Writer. All buffers
// are reused across blocks and cores.
type noc3Writer struct {
	cw       *ckpt.Writer
	blockLen int

	// Per-file accumulation for the index section.
	offsets   []uint64 // each block section's file offset (at its kind byte)
	sizes     []uint64 // each block section's total bytes (header + payload)
	rawBytes  uint64   // uncompressed residual bytes across all blocks
	predCount [2]uint64

	// NOC2 canonical hash, fed in lockstep with the blocks.
	fp hash.Hash

	// Scratch.
	enc     blockEnc
	payload ckpt.Enc
	comp    bytes.Buffer
	fw      *flate.Writer
}

// begin writes the preamble and header section, and primes the NOC2 hash
// with the equivalent NOC2 header. Header floats are uvarints of their
// bits and counts are uvarints, as in NOC2.
func (w *noc3Writer) begin(h captureHeader, cores []coreMeta) {
	p := &w.payload
	p.String(h.Source)
	p.U64(h.Seed)
	p.U64(uint64(h.ScaleLimit))
	p.U64(h.Instr.Base)
	p.U64(h.Instr.Size)
	p.U64(h.Hot.Base)
	p.U64(h.Hot.Size)
	p.U64(uint64(w.blockLen))
	p.U64(uint64(len(cores)))
	for _, m := range cores {
		p.String(m.Member)
		p.U64(uint64(m.Params.Width))
		p.U64(uint64(m.Params.ROB))
		p.U64(math.Float64bits(m.Params.BaseCPI))
		p.U64(math.Float64bits(m.Params.DepChance))
		p.U64(m.Local.Base)
		p.U64(m.Local.Size)
		p.U64(uint64(m.Total))
	}
	w.cw.Section(noc3SecHeader, p.Bytes())

	w.fp = sha256.New()
	n2 := &noc2Enc{w: w.fp}
	n2.header(h, len(cores))
}

// coreBlocks drains m.Total instructions from next into blocks for one
// core, writing each as its own section and feeding the NOC2 hash. The
// iaddr scratch slices rotate between current and previous block.
func (w *noc3Writer) coreBlocks(core int, m coreMeta, next func() cpu.Instr, buf []cpu.Instr, curIA, prevIA []uint64) error {
	if err := w.cw.Err(); err != nil {
		return err
	}
	n2 := &noc2Enc{w: w.fp}
	n2.coreHeader(m)
	prevDelta := int64(0)
	havePrev := false
	for idx, done := 0, 0; done < m.Total; idx++ {
		count := min(w.blockLen, m.Total-done)
		block := buf[:count]
		for i := range block {
			in := next()
			if in.Kind > cpu.KindStore {
				return fmt.Errorf("workload: core %d record %d has kind %d; only ALU/load/store streams are recordable", core, done+i, in.Kind)
			}
			block[i] = in
			curIA[i] = in.IAddr
			n2.instr(in, &prevDelta)
		}
		done += count

		var prev []uint64
		if havePrev {
			prev = prevIA[:w.blockLen]
		}
		pred, resid := w.enc.encode(idx, block, prev)
		w.predCount[pred]++
		w.rawBytes += uint64(len(resid))

		w.comp.Reset()
		if w.fw == nil {
			w.fw, _ = flate.NewWriter(&w.comp, flate.DefaultCompression)
		} else {
			w.fw.Reset(&w.comp)
		}
		if _, err := w.fw.Write(resid); err != nil {
			return err
		}
		if err := w.fw.Close(); err != nil {
			return err
		}

		p := &w.payload
		p.Reset()
		p.U64(uint64(core))
		p.U64(uint64(idx))
		p.U64(uint64(pred)) // predictor ids are < 0x80: one byte
		p.U64(uint64(count))
		p.U64(uint64(len(resid)))
		p.Raw(w.comp.Bytes())
		off := w.cw.Offset()
		w.cw.Section(noc3SecBlock, p.Bytes())
		w.offsets = append(w.offsets, uint64(off))
		w.sizes = append(w.sizes, uint64(w.cw.Offset()-off))

		curIA, prevIA = prevIA, curIA
		havePrev = true
	}
	if n2.err != nil {
		return n2.err
	}
	return w.cw.Err()
}

// finish writes the index section and trailer.
func (w *noc3Writer) finish() error {
	if err := w.cw.Err(); err != nil {
		return err
	}
	p := &w.payload
	p.Reset()
	p.Raw(w.fp.Sum(nil))
	p.U64(uint64(len(w.offsets)))
	for i := range w.offsets {
		p.U64(w.offsets[i])
		p.U64(w.sizes[i])
	}
	p.U64(w.rawBytes)
	p.U64(w.predCount[predPrev])
	p.U64(w.predCount[predPhase])
	indexOff := w.cw.Offset()
	w.cw.Section(noc3SecIndex, p.Bytes())

	var tr [noc3TrailerBytes]byte
	binary.LittleEndian.PutUint64(tr[:8], uint64(indexOff))
	copy(tr[8:], noc3TrailerMagic[:])
	w.cw.Raw(tr[:])
	return w.cw.Err()
}

// writeNOC3 streams a whole container to dst: the header, then each
// core's blocks drawn from stream(core), then the index and trailer.
// blockLen <= 0 selects DefaultBlockLen.
func writeNOC3(dst io.Writer, h captureHeader, metas []coreMeta, blockLen int, stream func(core int) func() cpu.Instr) error {
	if blockLen <= 0 {
		blockLen = DefaultBlockLen
	}
	if blockLen > maxBlockLen {
		return fmt.Errorf("workload: block length %d exceeds the %d cap", blockLen, maxBlockLen)
	}
	nw := &noc3Writer{cw: ckpt.NewContainerWriter(dst, noc3Magic, noc3Version), blockLen: blockLen}
	nw.begin(h, metas)
	buf := make([]cpu.Instr, blockLen)
	curIA := make([]uint64, blockLen)
	prevIA := make([]uint64, blockLen)
	for i, m := range metas {
		if err := nw.coreBlocks(i, m, stream(i), buf, curIA, prevIA); err != nil {
			return err
		}
	}
	return nw.finish()
}

// recordMeta validates a recording of w and assembles its header and
// per-core metadata. It is the only recording validator: anything it
// accepts encodes within the reader's caps.
func recordMeta(w Workload, cores, perCore int, seed uint64) (captureHeader, []coreMeta, error) {
	if cores < 1 || cores > maxCaptureCores {
		return captureHeader{}, nil, fmt.Errorf("workload: recording needs 1..%d cores, got %d", maxCaptureCores, cores)
	}
	if perCore < 1 || perCore > maxTrace {
		return captureHeader{}, nil, fmt.Errorf("workload: recording needs 1..%d instructions per core, got %d", maxTrace, perCore)
	}
	if len(w.Name()) > maxCaptureName {
		return captureHeader{}, nil, fmt.Errorf("workload: name %.32q... exceeds the %d-byte capture cap", w.Name(), maxCaptureName)
	}
	lay := w.Layout()
	if lay.Instr.Size > maxCaptureRegion || lay.Hot.Size > maxCaptureRegion {
		return captureHeader{}, nil, fmt.Errorf("workload: shared region exceeds the %d-byte capture cap", maxCaptureRegion)
	}
	if lay.Instr.wraps() || lay.Hot.wraps() {
		return captureHeader{}, nil, fmt.Errorf("workload: shared region wraps past the top of the address space")
	}
	// Clamp the recorded limit to the recorded core count: replay can
	// never drive more cores than were captured, and an Unlimited-wrapped
	// source would otherwise store a limit the reader's sanity cap
	// rejects, making the file unreadable.
	limit := min(w.MaxCores(), cores)
	hdr := captureHeader{Source: w.Name(), Seed: seed, ScaleLimit: limit, Instr: lay.Instr, Hot: lay.Hot}
	metas := make([]coreMeta, cores)
	for i := range metas {
		member, _ := MemberNameOf(w, i)
		if len(member) > maxCaptureName {
			return captureHeader{}, nil, fmt.Errorf("workload: core %d member name %.32q... exceeds the %d-byte capture cap", i, member, maxCaptureName)
		}
		cp := w.CoreParams(i, seed)
		cp.Seed = 0
		local := lay.Local(i)
		if local.Size > maxCaptureRegion {
			return captureHeader{}, nil, fmt.Errorf("workload: core %d local region exceeds the %d-byte capture cap", i, maxCaptureRegion)
		}
		if local.wraps() {
			return captureHeader{}, nil, fmt.Errorf("workload: core %d local region wraps past the top of the address space", i)
		}
		metas[i] = coreMeta{Member: member, Params: cp, Local: local, Total: perCore}
	}
	return hdr, metas, nil
}

// WriteNOC3 records cores×perCore instructions from w at the given seed
// straight into dst as a NOC3 container. Memory stays O(blockLen)
// regardless of perCore: each core's stream is drained block by block and
// every block is compressed and written before the next is read.
// blockLen <= 0 selects DefaultBlockLen.
func WriteNOC3(dst io.Writer, w Workload, cores, perCore int, seed uint64, blockLen int) error {
	hdr, metas, err := recordMeta(w, cores, perCore, seed)
	if err != nil {
		return err
	}
	return writeNOC3(dst, hdr, metas, blockLen, func(core int) func() cpu.Instr {
		return w.StreamFor(core, seed).Next
	})
}

// RecordFile records cores×perCore instructions from w at the given seed
// into a NOC3 trace file at path — the bounded-memory recording path the
// CLI's -record-trace uses. Replay it anywhere a workload name is
// accepted via "trace:<path>". A failed recording leaves an existing file
// at path untouched.
func RecordFile(path string, w Workload, cores, perCore int, seed uint64) error {
	return writeTraceFile(path, func(dst io.Writer) error {
		return WriteNOC3(dst, w, cores, perCore, seed, 0)
	})
}

// ConvertNOC3 re-encodes a NOC2 capture decoded by ReadCapture as a NOC3
// container. The converted trace replays bit-identically (same streams,
// same header identity) and fingerprints identically (the hash is
// computed over the capture's canonical NOC2 encoding either way).
func ConvertNOC3(dst io.Writer, c *Capture, blockLen int) error {
	metas := make([]coreMeta, len(c.Cores))
	for i := range c.Cores {
		cc := &c.Cores[i]
		metas[i] = coreMeta{Member: cc.Member, Params: cc.Params, Local: cc.Local, Total: len(cc.Instrs)}
	}
	return writeNOC3(dst, c.header(), metas, blockLen, func(core int) func() cpu.Instr {
		instrs, k := c.Cores[core].Instrs, 0
		return func() cpu.Instr { in := instrs[k]; k++; return in }
	})
}

// ConvertFile upgrades a NOC2 capture file to a NOC3 trace file. A failed
// conversion leaves an existing file at out untouched.
func ConvertFile(in, out string) error {
	f, err := os.Open(in)
	if err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	defer f.Close()
	c, err := ReadCapture(f)
	if err != nil {
		return fmt.Errorf("workload: capture %s: %w", in, err)
	}
	return writeTraceFile(out, func(dst io.Writer) error { return ConvertNOC3(dst, c, 0) })
}

// writeTraceFile streams fill's output to path through a buffered
// same-directory temp file, renamed into place only on success. Traces
// are world-readable, like a file from os.Create under the usual umask.
func writeTraceFile(path string, fill func(io.Writer) error) error {
	return cas.WriteFileFunc(path, func(f *os.File) error {
		if err := f.Chmod(0o644); err != nil {
			return err
		}
		bw := bufio.NewWriterSize(f, 1<<16)
		if err := fill(bw); err != nil {
			return err
		}
		return bw.Flush()
	})
}
