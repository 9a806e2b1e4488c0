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
	"runtime"
	"sync"

	"nocout/internal/cas"
	"nocout/internal/ckpt"
	"nocout/internal/cpu"
)

// The NOC3 writer: records a workload into the sectioned container as a
// bounded pipeline. The calling goroutine draws each block from the
// streams in core-major order and hashes its canonical NOC2 encoding into
// the fingerprint, so a Workload's streams are only ever drawn on that
// goroutine. Encoder goroutines, one per CPU
// up to four, compute blocks' residuals and deflate them, and the calling
// goroutine writes the finished sections strictly in the order it drew
// them, so the bytes do not depend on how many encoders ran. Blocks in
// flight live in a fixed ring, so memory is O(encoders × block) however
// long the trace is.

// maxEncoders caps the encoder goroutines. Drawing and hashing a block on
// the calling goroutine costs about a third of encoding it, so more
// encoders would only wait on the calling goroutine; four also keeps a
// recording's memory to a few MB on any host.
const maxEncoders = 4

// recordEncoders is how many encoder goroutines a recording starts: one
// per CPU, up to maxEncoders.
func recordEncoders() int { return min(runtime.GOMAXPROCS(0), maxEncoders) }

// noc3Writer streams one container through a ckpt.Writer.
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

	payload ckpt.Enc // header and index payload scratch
}

// recJob is one block in flight. The calling goroutine fills its block
// and submits it, an encoder turns it into a finished payload and signals
// done, and the calling goroutine writes it. Each hand-over is a channel
// operation, so no field is ever accessed by two goroutines at once.
type recJob struct {
	core, idx int
	block     []cpu.Instr // the drawn records
	prevIA    []uint64    // the predecessor block's instruction addresses; empty for a core's first block

	pred    byte          // the chosen predictor
	raw     int           // residual bytes before deflate
	payload bytes.Buffer  // the finished block section payload
	done    chan struct{} // signalled once payload is finished
}

// encode turns the job's block into its section payload: predictor
// choice, residuals, then the payload header followed by the deflated
// residuals.
func (j *recJob) encode(enc *blockEnc, fw *flate.Writer) {
	pred, resid := enc.encode(j.idx, j.block, j.prevIA)
	j.pred, j.raw = pred, len(resid)
	p := &j.payload
	p.Reset()
	h := p.AvailableBuffer()
	// Predictor ids are < 0x80: one byte.
	for _, v := range [...]uint64{uint64(j.core), uint64(j.idx), uint64(pred), uint64(len(j.block)), uint64(len(resid))} {
		h = binary.AppendUvarint(h, v)
	}
	p.Write(h)
	// A flate.Writer fails only when its destination does, and a
	// bytes.Buffer does not.
	fw.Reset(p)
	fw.Write(resid)
	fw.Close()
}

// encodeBlocks is one encoder goroutine: it encodes jobs until the
// channel closes.
func encodeBlocks(jobs <-chan *recJob) {
	var enc blockEnc
	fw, _ := flate.NewWriter(io.Discard, flate.DefaultCompression) // fails only for an invalid level
	for j := range jobs {
		j.encode(&enc, fw)
		j.done <- struct{}{}
	}
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

// blocks draws every core's blocks from stream(core), hashes each into
// the fingerprint and submits it to the encoders through jobs, reusing
// the ring's slots in order. Reclaiming a slot retires the job it held,
// so sections are written in the order they were drawn. It stops drawing
// at the first invalid kind or failed write; jobs still in flight are
// then left to the encoders unwritten.
func (w *noc3Writer) blocks(metas []coreMeta, stream func(core int) func() cpu.Instr, ring []recJob, jobs chan<- *recJob) error {
	n2 := &noc2Enc{w: w.fp}
	ia := make([]uint64, w.blockLen) // the last drawn block's instruction addresses
	var rec []byte                   // one block's canonical NOC2 records
	seq := 0                         // blocks submitted so far
	for core, m := range metas {
		next := stream(core)
		n2.coreHeader(m)
		prevDelta := int64(0)
		for idx, done := 0, 0; done < m.Total; idx++ {
			j := &ring[seq%len(ring)]
			if j.done == nil {
				j.block = make([]cpu.Instr, w.blockLen)
				j.prevIA = make([]uint64, 0, w.blockLen)
				j.done = make(chan struct{}, 1)
			} else {
				w.retire(j)
			}
			if err := w.cw.Err(); err != nil {
				return err
			}
			j.core, j.idx = core, idx
			j.prevIA = j.prevIA[:0]
			if idx > 0 { // every block but a core's last is full
				j.prevIA = append(j.prevIA, ia...)
			}
			j.block = j.block[:min(w.blockLen, m.Total-done)]
			rec = rec[:0]
			for i := range j.block {
				in := next()
				if in.Kind > cpu.KindStore {
					return fmt.Errorf("workload: core %d record %d has kind %d; only ALU/load/store streams are recordable", core, done+i, in.Kind)
				}
				j.block[i] = in
				ia[i] = in.IAddr
				rec = appendNOC2Record(rec, in, &prevDelta)
			}
			w.fp.Write(rec)
			done += len(j.block)
			jobs <- j
			seq++
		}
	}
	for s := max(seq-len(ring), 0); s < seq; s++ {
		w.retire(&ring[s%len(ring)])
	}
	return nil
}

// retire waits for j's encoder, writes its block section and accounts it
// in the index.
func (w *noc3Writer) retire(j *recJob) {
	<-j.done
	off := w.cw.Offset()
	w.cw.Section(noc3SecBlock, j.payload.Bytes())
	w.offsets = append(w.offsets, uint64(off))
	w.sizes = append(w.sizes, uint64(w.cw.Offset()-off))
	w.predCount[j.pred]++
	w.rawBytes += uint64(j.raw)
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
// core's blocks drawn from stream(core) on the calling goroutine, then the
// index and trailer. It waits for its encoders before returning, on every
// path. blockLen <= 0 selects DefaultBlockLen.
func writeNOC3(dst io.Writer, h captureHeader, metas []coreMeta, blockLen int, stream func(core int) func() cpu.Instr) error {
	if blockLen <= 0 {
		blockLen = DefaultBlockLen
	}
	if blockLen > maxBlockLen {
		return fmt.Errorf("workload: block length %d exceeds the %d cap", blockLen, maxBlockLen)
	}
	nw := &noc3Writer{cw: ckpt.NewContainerWriter(dst, noc3Magic, noc3Version), blockLen: blockLen}
	nw.begin(h, metas)

	encoders := recordEncoders()
	// Two slots per encoder let the calling goroutine draw a block while
	// every encoder holds one. The channel holds at most every slot's job,
	// so a send never blocks.
	ring := make([]recJob, 2*encoders)
	jobs := make(chan *recJob, len(ring))
	var wg sync.WaitGroup
	wg.Add(encoders)
	for range encoders {
		go func() {
			defer wg.Done()
			encodeBlocks(jobs)
		}()
	}
	defer func() {
		close(jobs)
		wg.Wait()
	}()
	if err := nw.blocks(metas, stream, ring, jobs); err != nil {
		return err
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
		if err := validCoreParams(i, cp); err != nil {
			return captureHeader{}, nil, err
		}
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
// straight into dst as a NOC3 container. Memory stays O(encoders ×
// blockLen) regardless of perCore: blocks are drawn, compressed on up to
// four CPUs and written in order through a fixed ring of jobs. w's
// streams are drawn only on the calling goroutine, so they need not be
// safe for concurrent use. blockLen <= 0 selects DefaultBlockLen.
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
// CLI's -record-trace uses. As in WriteNOC3, memory is O(encoders ×
// block), w's streams are drawn only on the calling goroutine, and up to
// four CPUs encode blocks. Replay it anywhere a workload name is accepted
// via "trace:<path>". A failed recording leaves an existing file at path
// untouched.
func RecordFile(path string, w Workload, cores, perCore int, seed uint64) error {
	return writeTraceFile(path, func(dst io.Writer) error {
		return WriteNOC3(dst, w, cores, perCore, seed, 0)
	})
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
