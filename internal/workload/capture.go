package workload

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"nocout/internal/cpu"
)

// This file holds the canonical NOC2 encoding. NOC3 is the one trace
// format read and written; a recording's fingerprint is the SHA-256 of
// its NOC2 encoding, so the encoder (noc2Enc and appendNOC2Record) is
// that fingerprint's definition, and the NOC3 writer streams it into the
// hash while recording.
//
// Encoding: the "NOC2" magic, a header (source name, recording seed,
// software scalability limit, shared instruction/hot regions), then one
// block per core: member name, pipeline parameters, local region, and
// the instruction records (kind uvarint, iaddr varint delta, daddr
// uvarint for loads/stores; the delta baseline resets per core).

// captureMagic opens the canonical NOC2 encoding.
var captureMagic = [4]byte{'N', 'O', 'C', '2'}

// Recording caps, which the NOC3 reader enforces too: corrupt headers must
// produce clean errors, not multi-gigabyte allocations.
const (
	maxCaptureCores  = 1 << 12 // 4096 recorded cores
	maxCaptureName   = 1 << 10 // name/member strings
	maxCaptureRegion = 1 << 31 // 2GB per prewarm region (builtins are MBs)
	maxTrace         = 1 << 28 // 256M instructions per core
)

// captureHeader is the NOC2 header before the per-core blocks; the NOC3
// container carries the identical fields.
type captureHeader struct {
	Source     string
	Seed       uint64
	ScaleLimit int
	Instr, Hot Region
}

// coreMeta is one core's identity in a capture header: everything but
// the instruction records themselves.
type coreMeta struct {
	Member string
	Params cpu.Params
	Local  Region
	Total  int // recorded dynamic instructions
}

// noc2Enc emits the canonical NOC2 headers with a sticky error; each
// core's records follow as appendNOC2Record encodes them. The NOC3 writer
// streams both into a SHA-256, so a recording's fingerprint is the hash of
// its canonical NOC2 encoding without ever materializing that encoding.
type noc2Enc struct {
	w   io.Writer
	err error
	buf [binary.MaxVarintLen64]byte
}

func (e *noc2Enc) write(b []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}

func (e *noc2Enc) putU(v uint64) {
	k := binary.PutUvarint(e.buf[:], v)
	e.write(e.buf[:k])
}

func (e *noc2Enc) putS(s string) {
	e.putU(uint64(len(s)))
	if e.err == nil {
		_, e.err = io.WriteString(e.w, s)
	}
}

func (e *noc2Enc) putRegion(r Region) {
	e.putU(r.Base)
	e.putU(r.Size)
}

// header emits the magic and the shared header fields.
func (e *noc2Enc) header(h captureHeader, cores int) {
	e.write(captureMagic[:])
	e.putS(h.Source)
	e.putU(h.Seed)
	e.putU(uint64(h.ScaleLimit))
	e.putRegion(h.Instr)
	e.putRegion(h.Hot)
	e.putU(uint64(cores))
}

// coreHeader emits one core's identity block (member, params, local
// region, stream length); the caller follows with Total instr records.
func (e *noc2Enc) coreHeader(m coreMeta) {
	e.putS(m.Member)
	e.putU(uint64(m.Params.Width))
	e.putU(uint64(m.Params.ROB))
	e.putU(math.Float64bits(m.Params.BaseCPI))
	e.putU(math.Float64bits(m.Params.DepChance))
	e.putRegion(m.Local)
	e.putU(uint64(m.Total))
}

// appendNOC2Record appends in's canonical NOC2 record to b: the kind as a
// uvarint, the iaddr as a varint delta from the per-core baseline *prev
// (which it advances), and the daddr as a uvarint for loads and stores.
func appendNOC2Record(b []byte, in cpu.Instr, prev *int64) []byte {
	b = binary.AppendUvarint(b, uint64(in.Kind))
	b = binary.AppendVarint(b, int64(in.IAddr)-*prev)
	*prev = int64(in.IAddr)
	if in.Kind != cpu.KindALU {
		b = binary.AppendUvarint(b, in.DAddr)
	}
	return b
}

// validCoreParams rejects decoded pipeline parameters the cpu model would
// panic on (cpu.New's constructor contract).
func validCoreParams(core int, p cpu.Params) error {
	switch {
	case p.Width < 1 || p.Width > 64:
		return fmt.Errorf("workload: core %d has implausible width %d", core, p.Width)
	case p.ROB < p.Width || p.ROB > 1<<16:
		return fmt.Errorf("workload: core %d has implausible ROB %d", core, p.ROB)
	case math.IsNaN(p.BaseCPI) || math.IsInf(p.BaseCPI, 0) || p.BaseCPI < 1.0/float64(p.Width) || p.BaseCPI > 1e6:
		return fmt.Errorf("workload: core %d has implausible base CPI %v", core, p.BaseCPI)
	case math.IsNaN(p.DepChance) || p.DepChance < 0 || p.DepChance > 1:
		return fmt.Errorf("workload: core %d has implausible dep chance %v", core, p.DepChance)
	}
	return nil
}
