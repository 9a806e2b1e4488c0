package workload

import (
	"encoding/binary"
	"fmt"

	"nocout/internal/cpu"
)

// This file defines the NOC3 trace container, the one trace format this
// package reads and writes: sectioned, block-oriented and
// delta-compressed, so that replaying a datacenter-scale recording is
// O(cores × block) memory instead of O(trace), and so that recording
// streams blocks to disk incrementally instead of buffering the whole
// recording.
//
// # Container layout
//
// NOC3 is framed by internal/ckpt — its sections are written by a
// ckpt.Writer under the NOC3 magic, read back one at a time by
// ckpt.ReadSection, and their payloads use the ckpt.Enc/Dec codec — and
// adds a trailing index + fixed trailer so a reader can seek straight to
// any block:
//
//	magic    "NOC3"  (4 bytes)
//	version  uvarint (currently 1)
//	section* :
//	  kind     uvarint        1 header | 2 block | 3 index
//	  length   uvarint        payload byte count
//	  crc32    4 bytes LE     IEEE CRC over the payload
//	  payload  length bytes
//	trailer  8 bytes LE index-section file offset + "3CON" (4 bytes)
//
// The header section carries the recording's identity (source, seed,
// scale limit, shared regions) plus the block length and each core's
// identity (member, params, local region, total instructions). Block
// sections follow in core-major order: core 0's blocks, then core 1's,
// and so on. The index section is last — recording appends it after the
// final block, so the writer never seeks — and lists every block
// section's (offset, size) plus aggregate compression statistics and the
// recording's behavioral fingerprint (the SHA-256 of its canonical NOC2
// encoding, computed while recording, so Point.Key and every
// content-addressed cache depend on the streams, not the container).
//
// # Block encoding
//
// Each block holds up to blockLen instructions, split into three residual
// streams (kinds packed 2 bits each, instruction-address residuals,
// data-address residuals) and deflate-compressed. The instruction-address
// stream is the phase-aware part: per block the encoder tries two
// predictors and records the winner in the block —
//
//	predPrev  (0): delta from the previous instruction in the block
//	              (first record is absolute) — the NOC2 encoding's predictor;
//	predPhase (1): delta from the instruction at the same offset in the
//	              previous block — when the block length divides (or
//	              approximates) a workload's phase period, adjacent
//	              blocks sample the same loop/phase structure and the
//	              residuals collapse (PC-bzip2's phase-space continuity,
//	              applied per block).
//
// A predPhase block decodes against its predecessor's addresses, so every
// keyframeEvery-th block is forced to predPrev: a seek replays at most
// keyframeEvery-1 extra blocks, never the whole stream, and each block
// remains decodable from its keyframe group alone. Data addresses are
// delta-chained within the block (first is absolute), independent of the
// predictor choice.

// noc3Magic identifies the NOC3 trace container.
var noc3Magic = [4]byte{'N', 'O', 'C', '3'}

// noc3TrailerMagic terminates the file, preceded by the 8-byte LE index
// section offset.
var noc3TrailerMagic = [4]byte{'3', 'C', 'O', 'N'}

// noc3Version is the container version this package writes and the only
// one it reads (the NOCK compatibility stance: no cross-version
// migration).
const noc3Version = 1

// Section kinds.
const (
	noc3SecHeader = 1
	noc3SecBlock  = 2
	noc3SecIndex  = 3
)

// Block predictors.
const (
	predPrev  = 0 // delta from the previous instruction in the block
	predPhase = 1 // delta from the same offset in the previous block
)

// DefaultBlockLen is the instructions-per-block the recorder uses: big
// enough that varint/deflate framing amortizes, small enough that a
// 64-core replay's working set stays a few MB.
const DefaultBlockLen = 4096

// Format caps. Corrupt headers must fail cleanly, never allocate
// proportionally to what they claim.
const (
	maxBlockLen      = 1 << 20 // instructions per block
	keyframeEvery    = 8       // forced predPrev cadence; bounds seek cost
	noc3TrailerBytes = 12      // 8-byte index offset + trailer magic
	// maxBlockSection bounds one block section's total on-disk bytes
	// (header + payload): the residual streams cannot exceed ~21 bytes per
	// instruction and deflate's stored-block overhead is < 1/1000 + 5 bytes
	// per 64KB, so 32 bytes/instr plus slack is unreachable by a genuine
	// writer and cheap to verify.
	maxBlockSectionBytes = 32*maxBlockLen + 256
)

// blockResidCap bounds the uncompressed residual buffer for a block of n
// instructions: packed kinds + worst-case varints for both address
// streams.
func blockResidCap(n int) int {
	return (n+3)/4 + 2*n*binary.MaxVarintLen64
}

// varintLen returns the encoded size of v as a zigzag varint.
func varintLen(v int64) int {
	u := uint64(v)<<1 ^ uint64(v>>63)
	n := 1
	for u >= 0x80 {
		u >>= 7
		n++
	}
	return n
}

// blockEnc encodes instruction blocks, retaining its buffers across calls
// so steady-state recording allocates nothing per block.
type blockEnc struct {
	resid []byte // assembled residual streams, pre-compression
}

// encode assembles the residual streams for instrs, choosing the
// predictor: predPhase when the block is not a keyframe, prevIA covers
// every offset, and its residuals encode strictly smaller than predPrev's.
// prevIA is the previous block's instruction addresses (nil for the first
// block). Returns the chosen predictor and the residual buffer (owned by
// the encoder, valid until the next call).
func (e *blockEnc) encode(idx int, instrs []cpu.Instr, prevIA []uint64) (pred byte, resid []byte) {
	pred = predPrev
	if idx%keyframeEvery != 0 && len(prevIA) >= len(instrs) {
		prevCost, phaseCost := 0, 0
		last := int64(0)
		for i, in := range instrs {
			ia := int64(in.IAddr)
			prevCost += varintLen(ia - last)
			last = ia
			phaseCost += varintLen(ia - int64(prevIA[i]))
		}
		if phaseCost < prevCost {
			pred = predPhase
		}
	}

	n := len(instrs)
	if cap(e.resid) < blockResidCap(n) {
		e.resid = make([]byte, 0, blockResidCap(n))
	}
	buf := e.resid[:0]
	// Kinds, 2 bits each, little end first.
	var packed byte
	for i, in := range instrs {
		packed |= byte(in.Kind) << (uint(i%4) * 2)
		if i%4 == 3 {
			buf = append(buf, packed)
			packed = 0
		}
	}
	if n%4 != 0 {
		buf = append(buf, packed)
	}
	// Instruction-address residuals under the chosen predictor.
	if pred == predPhase {
		for i, in := range instrs {
			buf = binary.AppendVarint(buf, int64(in.IAddr)-int64(prevIA[i]))
		}
	} else {
		last := int64(0)
		for _, in := range instrs {
			ia := int64(in.IAddr)
			buf = binary.AppendVarint(buf, ia-last)
			last = ia
		}
	}
	// Data-address residuals, delta-chained within the block.
	lastDA := int64(0)
	for _, in := range instrs {
		if in.Kind != cpu.KindALU {
			da := int64(in.DAddr)
			buf = binary.AppendVarint(buf, da-lastDA)
			lastDA = da
		}
	}
	e.resid = buf
	return pred, buf
}

// decodeBlockResiduals reconstructs a block from its residual streams
// into instrs (len == the block's record count) and ia (the reconstructed
// instruction addresses, len == count). prevIA is required when pred is
// predPhase. Every validation failure is a clean error — hostile inputs
// cannot panic or over-allocate.
func decodeBlockResiduals(resid []byte, pred byte, prevIA []uint64, instrs []cpu.Instr, ia []uint64) error {
	n := len(instrs)
	kb := (n + 3) / 4
	if len(resid) < kb {
		return fmt.Errorf("residuals truncated in kinds: %d bytes for %d records", len(resid), n)
	}
	for i := 0; i < n; i++ {
		k := cpu.InstrKind(resid[i/4] >> (uint(i%4) * 2) & 3)
		if k > cpu.KindStore {
			return fmt.Errorf("record %d has invalid kind %d", i, k)
		}
		instrs[i].Kind = k
	}
	off := kb
	switch pred {
	case predPrev:
		last := int64(0)
		for i := 0; i < n; i++ {
			d, k := binary.Varint(resid[off:])
			if k <= 0 {
				return fmt.Errorf("record %d iaddr residual truncated", i)
			}
			off += k
			last += d
			ia[i] = uint64(last)
		}
	case predPhase:
		if len(prevIA) < n {
			return fmt.Errorf("phase-predicted block of %d records lacks a %d-record predecessor", n, len(prevIA))
		}
		for i := 0; i < n; i++ {
			d, k := binary.Varint(resid[off:])
			if k <= 0 {
				return fmt.Errorf("record %d iaddr residual truncated", i)
			}
			off += k
			ia[i] = uint64(int64(prevIA[i]) + d)
		}
	default:
		return fmt.Errorf("invalid predictor %d", pred)
	}
	for i := 0; i < n; i++ {
		instrs[i].IAddr = ia[i]
	}
	lastDA := int64(0)
	for i := 0; i < n; i++ {
		if instrs[i].Kind == cpu.KindALU {
			instrs[i].DAddr = 0
			continue
		}
		d, k := binary.Varint(resid[off:])
		if k <= 0 {
			return fmt.Errorf("record %d daddr residual truncated", i)
		}
		off += k
		lastDA += d
		instrs[i].DAddr = uint64(lastDA)
	}
	if off != len(resid) {
		return fmt.Errorf("%d trailing residual bytes", len(resid)-off)
	}
	return nil
}
