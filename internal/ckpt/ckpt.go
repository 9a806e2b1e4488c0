// Package ckpt is the checkpoint serialization substrate: a compact
// binary codec (varints, zigzag deltas, bit-exact floats, packed bitsets)
// plus a sectioned container format with per-section CRC integrity and an
// allocation-capped strict reader. The section framing is the repo's only
// one: the NOC3 trace container (internal/workload) writes and reads its
// sections through the same Writer and ReadSection.
//
// The package is deliberately leaf-level (stdlib only) so every component
// package — sim, cache, cpu, coherence, mem, noc, topo, workload, opensys,
// chip — can walk its state through it without import cycles. Each
// component has one State(*State) method that both saves and loads: a
// State encodes every field it is handed while saving and decodes into
// the same field while loading, so a format is written once. Components
// serialize *behavioral* private state (queues, arrays, cursors, RNG
// positions); measurement statistics are excluded by convention and
// re-zeroed on the restore path, exactly as the warmup boundary zeroes
// them.
//
// # Container format
//
// A checkpoint is a flat sequence of sections:
//
//	magic   "NOCK" (4 bytes)
//	version uvarint (currently 1)
//	section*:
//	  kind    uvarint  (component kind, caller-defined)
//	  length  uvarint  (payload bytes)
//	  crc32   4 bytes LE (IEEE, over the payload)
//	  payload length bytes
//
// Other formats reuse the framing under their own magic and version
// (NewContainerWriter, ReadSection). In a checkpoint, sections end at
// EOF; trailing garbage after a well-formed section is an error. The
// reader parses only headers up front — payloads stay raw subslices of
// the input and are CRC-verified lazily when a section is opened, so
// inspecting a checkpoint's index touches no section body.
//
// # Strictness
//
// The reader never trusts a decoded length: the whole input is bounded by
// MaxCheckpointBytes, section payloads must lie inside the input, and
// every decoded element count is validated against the bytes that could
// possibly encode that many elements before anything is allocated.
// Corrupt or truncated inputs produce errors, never panics or oversized
// allocations (FuzzReadCheckpoint enforces this).
package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
)

// Version is the container format version this package writes.
const Version = 1

// MaxCheckpointBytes bounds a whole checkpoint (256MB): a 64-core chip's
// warm state is tens of MB, so the cap is generous while still refusing
// absurd inputs outright.
const MaxCheckpointBytes = 1 << 28

// maxSections bounds the section count a reader will index.
const maxSections = 1 << 16

var magic = [4]byte{'N', 'O', 'C', 'K'}

// --- encoder ----------------------------------------------------------------

// Enc is an append-only checkpoint section encoder. The zero value is
// ready to use.
type Enc struct {
	buf []byte
}

// Bytes returns the encoded section payload.
func (e *Enc) Bytes() []byte { return e.buf }

// Reset empties the encoder, retaining its storage.
func (e *Enc) Reset() { e.buf = e.buf[:0] }

// reserve makes room for n more bytes.
func (e *Enc) reserve(n int) {
	if cap(e.buf)-len(e.buf) < n {
		e.buf = grow(e.buf, n)
	}
}

// grow returns b reallocated with room for n more bytes. One encoder is
// reused across a container's sections, so its storage grows to the
// largest of them; it doubles, where append's growth tends to 1.25x for
// large slices, so the storage allocated over a whole container stays
// about twice the largest section rather than about five times.
func grow(b []byte, n int) []byte {
	g := make([]byte, len(b), max(2*cap(b), len(b)+n, 64))
	copy(g, b)
	return g
}

// U64 appends an unsigned varint.
func (e *Enc) U64(v uint64) {
	e.reserve(binary.MaxVarintLen64)
	e.buf = binary.AppendUvarint(e.buf, v)
}

// I64 appends a signed (zigzag) varint, as binary.AppendVarint does.
func (e *Enc) I64(v int64) { e.U64(uint64(v<<1) ^ uint64(v>>63)) }

// Bool appends a boolean as one byte.
func (e *Enc) Bool(v bool) {
	e.reserve(1)
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// F64 appends a float bit-exactly as 8 fixed little-endian bytes.
func (e *Enc) F64(v float64) {
	e.reserve(8)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// Raw appends b verbatim, with no length prefix.
func (e *Enc) Raw(b []byte) {
	e.reserve(len(b))
	e.buf = append(e.buf, b...)
}

// String appends a length-prefixed string.
func (e *Enc) String(s string) {
	e.U64(uint64(len(s)))
	e.reserve(len(s))
	e.buf = append(e.buf, s...)
}

// U64s appends a delta-encoded uint64 array: the count, then each
// element as a zigzag varint of its delta from the predecessor (first
// delta is from zero). Sorted or clustered arrays — cache tags, LRU age
// stamps, sorted map keys — compress to a byte or two per element.
//
// U64s repeats U64sFunc's loop instead of calling it: the closure call
// per element made BenchmarkCheckpointSnapshot 23% slower (4.1 to 5.1
// ms/op, median of six runs each on a 2-CPU x86-64 host).
func (e *Enc) U64s(vs []uint64) {
	e.U64(uint64(len(vs)))
	buf, prev := e.buf, uint64(0)
	for _, v := range vs {
		if cap(buf)-len(buf) < binary.MaxVarintLen64 {
			buf = grow(buf, binary.MaxVarintLen64)
		}
		buf = binary.AppendVarint(buf, int64(v-prev))
		prev = v
	}
	e.buf = buf
}

// U64sFunc appends the n-element array whose element i is at(i), encoded
// as U64s encodes it, without the caller materializing the array.
func (e *Enc) U64sFunc(n int, at func(i int) uint64) {
	e.U64(uint64(n))
	buf, prev := e.buf, uint64(0)
	for i := 0; i < n; i++ {
		v := at(i)
		if cap(buf)-len(buf) < binary.MaxVarintLen64 {
			buf = grow(buf, binary.MaxVarintLen64)
		}
		buf = binary.AppendVarint(buf, int64(v-prev))
		prev = v
	}
	e.buf = buf
}

// Bools appends a packed bitset: the count, then ceil(n/8) bytes.
func (e *Enc) Bools(vs []bool) { e.BoolsFunc(len(vs), func(i int) bool { return vs[i] }) }

// BoolsFunc appends the n-bit set whose bit i is at(i), encoded as Bools
// encodes it, without the caller materializing a []bool.
func (e *Enc) BoolsFunc(n int, at func(i int) bool) {
	e.U64(uint64(n))
	e.reserve((n + 7) / 8)
	var b byte
	for i := 0; i < n; i++ {
		if at(i) {
			b |= 1 << (uint(i) % 8)
		}
		if i%8 == 7 {
			e.buf = append(e.buf, b)
			b = 0
		}
	}
	if n%8 != 0 {
		e.buf = append(e.buf, b)
	}
}

// --- decoder ----------------------------------------------------------------

// Dec decodes one section payload with a sticky error: after the first
// failure every subsequent read returns zero values, so call sites stay
// linear and the orchestrator checks Err once per section.
type Dec struct {
	b   []byte
	off int
	err error
}

// NewDec returns a decoder over payload.
func NewDec(payload []byte) *Dec { return &Dec{b: payload} }

// Err returns the first decode failure, or nil.
func (d *Dec) Err() error { return d.err }

// Remaining returns the undecoded byte count.
func (d *Dec) Remaining() int { return len(d.b) - d.off }

func (d *Dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("ckpt: "+format, args...)
	}
}

// Corrupt records a semantic corruption found by a decoder built on Dec
// (a trace header's oversized name or wrapping region, say); it sticks
// like any other decode failure. Checkpoint walks call State.Corrupt.
func (d *Dec) Corrupt(format string, args ...any) { d.fail(format, args...) }

// U64 reads an unsigned varint.
func (d *Dec) U64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("truncated or malformed uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// I64 reads a signed (zigzag) varint.
func (d *Dec) I64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("truncated or malformed varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Bool reads a boolean byte; values other than 0/1 are corruption.
func (d *Dec) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.b) {
		d.fail("truncated bool at offset %d", d.off)
		return false
	}
	v := d.b[d.off]
	d.off++
	if v > 1 {
		d.fail("invalid bool byte %d at offset %d", v, d.off-1)
		return false
	}
	return v == 1
}

// F64 reads a bit-exact float.
func (d *Dec) F64() float64 {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 8 {
		d.fail("truncated float at offset %d", d.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return math.Float64frombits(v)
}

// Raw reads n verbatim bytes, returned as a view into the payload.
func (d *Dec) Raw(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > d.Remaining() {
		d.fail("raw span of %d bytes exceeds %d remaining bytes", n, d.Remaining())
		return nil
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	return b
}

// String reads a length-prefixed string.
func (d *Dec) String() string {
	n := d.U64()
	if d.err != nil {
		return ""
	}
	if n > uint64(d.Remaining()) {
		d.fail("string length %d exceeds %d remaining bytes", n, d.Remaining())
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// Count reads an element count for a sequence whose elements each encode
// to at least one byte, validating it against the remaining input before
// the caller allocates — a corrupt count cannot force an oversized
// allocation.
func (d *Dec) Count() int {
	n := d.U64()
	if d.err != nil {
		return 0
	}
	if n > uint64(d.Remaining()) {
		d.fail("element count %d exceeds %d remaining bytes", n, d.Remaining())
		return 0
	}
	return int(n)
}

// U64sFunc reads an array written by Enc.U64s or Enc.U64sFunc whose
// length the caller's built geometry fixes at n, handing element i to
// set(i, v) in order, so the caller decodes straight into its own
// storage. A stored count other than n is corruption. set may call
// Corrupt to reject a value, which ends the decode.
func (d *Dec) U64sFunc(n int, set func(i int, v uint64)) {
	if !d.fixedCount(n) {
		return
	}
	prev := uint64(0)
	for i := 0; i < n && d.err == nil; i++ {
		delta, k := binary.Varint(d.b[d.off:])
		if k <= 0 {
			d.fail("truncated or malformed varint at offset %d", d.off)
			return
		}
		d.off += k
		prev += uint64(delta)
		set(i, prev)
	}
}

// BoolsFunc reads a packed bitset written by Enc.Bools or Enc.BoolsFunc
// whose length the caller's built geometry fixes at n, handing bit i to
// set(i, v) in order. A stored count other than n is corruption.
func (d *Dec) BoolsFunc(n int, set func(i int, v bool)) {
	if !d.fixedCount(n) {
		return
	}
	nb := (n + 7) / 8
	if nb > d.Remaining() {
		d.fail("bitset of %d bits exceeds %d remaining bytes", n, d.Remaining())
		return
	}
	b := d.b[d.off : d.off+nb]
	d.off += nb
	for i := 0; i < n; i++ {
		set(i, b[i/8]&(1<<(uint(i)%8)) != 0)
	}
}

// fixedCount reads the count of an array whose length the built geometry
// fixes at n and reports whether it is n.
func (d *Dec) fixedCount(n int) bool {
	stored := d.U64()
	if d.err != nil {
		return false
	}
	if stored != uint64(n) {
		d.fail("stored array of %d elements where the built geometry holds %d", stored, n)
		return false
	}
	return true
}

// --- container --------------------------------------------------------------

// Section is one component's serialized state inside a container.
type Section struct {
	Kind    uint64
	payload []byte
	crc     uint32
}

// Len returns the payload size in bytes.
func (s *Section) Len() int { return len(s.payload) }

// Writer streams a container to an io.Writer.
type Writer struct {
	w   io.Writer
	off int64
	err error
	hdr []byte
}

// NewWriter writes the checkpoint preamble and returns the writer.
func NewWriter(w io.Writer) *Writer { return NewContainerWriter(w, magic, Version) }

// NewContainerWriter writes the preamble of a container format built on
// this framing — the format's magic constant and version — and returns
// the writer.
func NewContainerWriter(w io.Writer, magic [4]byte, version uint64) *Writer {
	cw := &Writer{w: w}
	cw.write(binary.AppendUvarint(magic[:], version))
	return cw
}

func (cw *Writer) write(b []byte) {
	if cw.err != nil {
		return
	}
	n, err := cw.w.Write(b)
	cw.off += int64(n)
	cw.err = err
}

// Offset returns the bytes written so far: the file offset at which the
// next section begins.
func (cw *Writer) Offset() int64 { return cw.off }

// Raw writes b outside any section (a format's fixed trailer).
func (cw *Writer) Raw(b []byte) { cw.write(b) }

// Section appends one section (header, CRC, payload). The payload is
// written immediately; callers may reuse the encoder afterwards.
func (cw *Writer) Section(kind uint64, payload []byte) {
	cw.hdr = cw.hdr[:0]
	cw.hdr = binary.AppendUvarint(cw.hdr, kind)
	cw.hdr = binary.AppendUvarint(cw.hdr, uint64(len(payload)))
	cw.hdr = binary.LittleEndian.AppendUint32(cw.hdr, crc32.ChecksumIEEE(payload))
	cw.write(cw.hdr)
	cw.write(payload)
}

// Err returns the first underlying write failure, or nil.
func (cw *Writer) Err() error { return cw.err }

// Container is a parsed checkpoint: the section index plus raw payload
// views into the input buffer. Payload integrity is verified lazily by
// Open.
type Container struct {
	Version  uint64
	sections []Section
}

// ErrNotCheckpoint marks inputs without the container magic.
var ErrNotCheckpoint = errors.New("ckpt: not a NOCK checkpoint")

// Read parses a container from r, bounded by MaxCheckpointBytes. Only
// headers are validated here; section payloads are CRC-checked when
// opened. The container is read once, into one buffer sized from r when
// r can tell its length (a file, a bytes.Reader).
func Read(r io.Reader) (*Container, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("ckpt: reading checkpoint: %w", err)
	}
	if len(data) > MaxCheckpointBytes {
		return nil, fmt.Errorf("ckpt: checkpoint exceeds the %d-byte cap", MaxCheckpointBytes)
	}
	return Parse(data)
}

// readAll reads r to EOF or past MaxCheckpointBytes. It sizes its buffer
// from r's own length where r reports one, so a container of known length
// lands in a single allocation; io.ReadAll would grow from 512 bytes and
// copy the container several times over.
func readAll(r io.Reader) ([]byte, error) {
	size := int64(0)
	switch v := r.(type) {
	case interface{ Len() int }:
		size = int64(v.Len())
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := v.Stat(); err == nil && fi.Mode().IsRegular() {
			size = fi.Size()
		}
	}
	var buf bytes.Buffer
	if size <= MaxCheckpointBytes {
		// MinRead spare bytes, so the read that meets EOF finds room.
		buf.Grow(int(size) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(io.LimitReader(r, MaxCheckpointBytes+1))
	return buf.Bytes(), err
}

// Parse parses a container from an in-memory buffer the Container will
// alias (callers must not mutate data afterwards).
func Parse(data []byte) (*Container, error) {
	if len(data) > MaxCheckpointBytes {
		return nil, fmt.Errorf("ckpt: checkpoint exceeds the %d-byte cap", MaxCheckpointBytes)
	}
	if len(data) < len(magic) || [4]byte(data[:4]) != magic {
		return nil, ErrNotCheckpoint
	}
	off := len(magic)
	ver, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return nil, errors.New("ckpt: truncated version")
	}
	off += n
	if ver != Version {
		return nil, fmt.Errorf("ckpt: unsupported container version %d (want %d)", ver, Version)
	}
	c := &Container{Version: ver}
	for off < len(data) {
		if len(c.sections) >= maxSections {
			return nil, fmt.Errorf("ckpt: more than %d sections", maxSections)
		}
		kind, length, crc, n, err := sectionHeader(data[off:])
		if err != nil {
			return nil, fmt.Errorf("ckpt: %w in section at offset %d", err, off)
		}
		off += n
		if length > uint64(len(data)-off) {
			return nil, fmt.Errorf("ckpt: section kind %d claims %d bytes with %d remaining", kind, length, len(data)-off)
		}
		c.sections = append(c.sections, Section{
			Kind:    kind,
			payload: data[off : off+int(length)],
			crc:     crc,
		})
		off += int(length)
	}
	return c, nil
}

// sectionHeader decodes the section header at the start of b — kind,
// payload length, CRC — and returns the header's size in bytes. It is the
// one section-header decoder, shared by Parse and ReadSection.
func sectionHeader(b []byte) (kind, length uint64, crc uint32, n int, err error) {
	kind, k := binary.Uvarint(b)
	if k <= 0 {
		return 0, 0, 0, 0, errors.New("truncated section kind")
	}
	n = k
	length, k = binary.Uvarint(b[n:])
	if k <= 0 {
		return 0, 0, 0, 0, errors.New("truncated section length")
	}
	n += k
	if len(b)-n < 4 {
		return 0, 0, 0, 0, errors.New("truncated section CRC")
	}
	return kind, length, binary.LittleEndian.Uint32(b[n:]), n + 4, nil
}

// ReadSection reads the span of r at off into buf, which must be sized
// to hold exactly one section, verifies the section's CRC, and returns
// its kind and payload (a view into buf). Formats that index their
// sections — NOC3's trailing block index — read them one at a time
// through it instead of parsing a whole container.
func ReadSection(r io.ReaderAt, off int64, buf []byte) (kind uint64, payload []byte, err error) {
	if _, err := r.ReadAt(buf, off); err != nil {
		return 0, nil, fmt.Errorf("ckpt: reading section at offset %d: %w", off, err)
	}
	kind, length, crc, n, err := sectionHeader(buf)
	if err != nil {
		return 0, nil, fmt.Errorf("ckpt: %w in section at offset %d", err, off)
	}
	payload = buf[n:]
	if length != uint64(len(payload)) {
		return 0, nil, fmt.Errorf("ckpt: section at offset %d claims %d payload bytes, span has %d", off, length, len(payload))
	}
	if got := crc32.ChecksumIEEE(payload); got != crc {
		return 0, nil, fmt.Errorf("ckpt: section at offset %d CRC mismatch: stored %08x, computed %08x", off, crc, got)
	}
	return kind, payload, nil
}

// Len returns the section count.
func (c *Container) Len() int { return len(c.sections) }

// Kind returns section i's kind.
func (c *Container) Kind(i int) uint64 { return c.sections[i].Kind }

// SectionLen returns section i's payload size.
func (c *Container) SectionLen(i int) int { return len(c.sections[i].payload) }

// Open CRC-verifies section i and returns a decoder over its payload.
func (c *Container) Open(i int) (*Dec, error) {
	if i < 0 || i >= len(c.sections) {
		return nil, fmt.Errorf("ckpt: section %d out of range (have %d)", i, len(c.sections))
	}
	s := &c.sections[i]
	if got := crc32.ChecksumIEEE(s.payload); got != s.crc {
		return nil, fmt.Errorf("ckpt: section %d (kind %d) CRC mismatch: stored %08x, computed %08x", i, s.Kind, s.crc, got)
	}
	return NewDec(s.payload), nil
}
