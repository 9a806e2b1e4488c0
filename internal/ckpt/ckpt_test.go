package ckpt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestCodecRoundTrip drives every Enc primitive through its Dec inverse
// in one interleaved payload — the same shape component State walks
// produce.
func TestCodecRoundTrip(t *testing.T) {
	var e Enc
	e.U64(0)
	e.U64(1)
	e.U64(math.MaxUint64)
	e.I64(0)
	e.I64(-1)
	e.I64(math.MinInt64)
	e.I64(math.MaxInt64)
	e.I64(-42)
	e.Bool(true)
	e.Bool(false)
	e.F64(0)
	e.F64(math.Copysign(0, -1))
	e.F64(math.Inf(1))
	e.F64(math.Pi)
	e.String("")
	e.String("warm state")
	e.U64s(nil)
	e.U64s([]uint64{7, 7, 9, 1 << 40, 3}) // non-monotonic: deltas go negative
	e.U64sFunc(3, func(i int) uint64 { return uint64(9 - i) })
	e.Bools(nil)
	e.Bools([]bool{true, false, true, true, false, false, true, true, true}) // 9 bits: ragged tail byte
	e.BoolsFunc(8, func(i int) bool { return i%3 == 0 })                     // 8 bits: no tail byte

	d := NewDec(e.Bytes())
	check := func(name string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %v, want %v", name, got, want)
		}
	}
	check("u64 zero", d.U64(), uint64(0))
	check("u64 one", d.U64(), uint64(1))
	check("u64 max", d.U64(), uint64(math.MaxUint64))
	check("i64 zero", d.I64(), int64(0))
	check("i64 -1", d.I64(), int64(-1))
	check("i64 min", d.I64(), int64(math.MinInt64))
	check("i64 max", d.I64(), int64(math.MaxInt64))
	check("i64 -42", d.I64(), int64(-42))
	check("bool true", d.Bool(), true)
	check("bool false", d.Bool(), false)
	check("f64 zero", d.F64(), 0.0)
	if f := d.F64(); !math.Signbit(f) || f != 0 {
		t.Errorf("negative zero not bit-exact: got %v (signbit %v)", f, math.Signbit(f))
	}
	check("f64 inf", d.F64(), math.Inf(1))
	check("f64 pi", d.F64(), math.Pi)
	check("string empty", d.String(), "")
	check("string", d.String(), "warm state")
	u64s := func(n int) []uint64 {
		vs := make([]uint64, n)
		d.U64sFunc(n, func(i int, v uint64) { vs[i] = v })
		return vs
	}
	check("u64s nil", u64s(0), []uint64{})
	check("u64s", u64s(5), []uint64{7, 7, 9, 1 << 40, 3})
	check("u64s func", u64s(3), []uint64{9, 8, 7})
	bools := func(n int) []bool {
		bs := make([]bool, n)
		d.BoolsFunc(n, func(i int, v bool) { bs[i] = v })
		return bs
	}
	check("bools nil", bools(0), []bool{})
	check("bools", bools(9), []bool{true, false, true, true, false, false, true, true, true})
	check("bools func", bools(8), []bool{true, false, false, true, false, false, true, false})
	if err := d.Err(); err != nil {
		t.Fatalf("round trip failed: %v", err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d trailing bytes after full decode", d.Remaining())
	}
}

// TestDecStickyError checks the decoder's central contract: the first
// failure sticks, later reads return zero values, and no read past the
// failure can panic.
func TestDecStickyError(t *testing.T) {
	d := NewDec([]byte{0x80}) // truncated varint
	if v := d.U64(); v != 0 {
		t.Fatalf("failed read returned %d, want 0", v)
	}
	first := d.Err()
	if first == nil {
		t.Fatal("truncated varint did not fail")
	}
	// Every primitive after the failure is a zero-value no-op.
	if d.I64() != 0 || d.Bool() || d.F64() != 0 || d.String() != "" || d.Count() != 0 {
		t.Fatal("reads after a sticky error returned non-zero values")
	}
	d.U64sFunc(1, func(int, uint64) { t.Fatal("U64sFunc decoded after a sticky error") })
	d.BoolsFunc(1, func(int, bool) { t.Fatal("BoolsFunc decoded after a sticky error") })
	if d.Err() != first {
		t.Fatalf("sticky error was replaced: %v -> %v", first, d.Err())
	}
	// Corrupt after a failure must not mask the original error either.
	d.Corrupt("late corruption")
	if d.Err() != first {
		t.Fatal("Corrupt replaced the first error")
	}
}

// TestDecHostileLengths feeds each length-prefixed decoder a count far
// larger than the remaining input: all must error before allocating.
func TestDecHostileLengths(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<50)
	cases := map[string]func(*Dec){
		"string": func(d *Dec) { _ = d.String() },
		"count":  func(d *Dec) { d.Count() },
		// The fixed-length decoders, told to expect the hostile count.
		"u64s func":  func(d *Dec) { d.U64sFunc(1<<50, func(int, uint64) {}) },
		"bools func": func(d *Dec) { d.BoolsFunc(1<<50, func(int, bool) {}) },
	}
	for name, read := range cases {
		d := NewDec(huge)
		read(d)
		if d.Err() == nil {
			t.Errorf("%s accepted a 2^50 length with %d input bytes", name, len(huge))
		}
	}
	// Bool rejects non-0/1 bytes outright.
	d := NewDec([]byte{7})
	d.Bool()
	if d.Err() == nil {
		t.Error("Bool accepted byte 7")
	}
}

// TestFixedLengthMismatch: the fixed-length decoders take their length
// from the built geometry, so a stored count that differs from it is
// corruption and nothing is decoded.
func TestFixedLengthMismatch(t *testing.T) {
	var e Enc
	e.U64s([]uint64{1, 2, 3})
	e.Bools([]bool{true, false, true})
	for name, read := range map[string]func(*Dec){
		"u64s func": func(d *Dec) {
			d.U64sFunc(4, func(int, uint64) { t.Error("U64sFunc decoded a mismatched array") })
		},
		"bools func": func(d *Dec) {
			d.U64sFunc(3, func(int, uint64) {})
			d.BoolsFunc(2, func(int, bool) { t.Error("BoolsFunc decoded a mismatched array") })
		},
	} {
		d := NewDec(e.Bytes())
		read(d)
		if d.Err() == nil || !strings.Contains(d.Err().Error(), "built geometry") {
			t.Errorf("%s: error %v, want a geometry mismatch", name, d.Err())
		}
	}
}

func TestCorruptReportsFirstFailure(t *testing.T) {
	d := NewDec(nil)
	d.Corrupt("bank %d occupancy impossible", 3)
	if d.Err() == nil || !strings.Contains(d.Err().Error(), "bank 3") {
		t.Fatalf("Corrupt error = %v", d.Err())
	}
}

// buildContainer writes a well-formed two-section container for the
// reader tests and the fuzz seed corpus.
func buildContainer(t testing.TB) []byte {
	t.Helper()
	var e Enc
	e.U64(11)
	e.String("section one")
	var buf bytes.Buffer
	cw := NewWriter(&buf)
	cw.Section(4, e.Bytes())
	e.Reset()
	e.U64s([]uint64{1, 2, 3})
	cw.Section(9, e.Bytes())
	cw.Section(2, nil) // empty payloads are legal
	if err := cw.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestContainerRoundTrip(t *testing.T) {
	data := buildContainer(t)
	c, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if c.Version != Version {
		t.Fatalf("version %d, want %d", c.Version, Version)
	}
	if c.Len() != 3 {
		t.Fatalf("section count %d, want 3", c.Len())
	}
	wantKinds := []uint64{4, 9, 2}
	for i, k := range wantKinds {
		if c.Kind(i) != k {
			t.Fatalf("section %d kind %d, want %d", i, c.Kind(i), k)
		}
	}
	d, err := c.Open(0)
	if err != nil {
		t.Fatal(err)
	}
	if v := d.U64(); v != 11 {
		t.Fatalf("section 0 first value %d, want 11", v)
	}
	if s := d.String(); s != "section one" {
		t.Fatalf("section 0 string %q", s)
	}
	d, err = c.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	vs := make([]uint64, 3)
	d.U64sFunc(len(vs), func(i int, v uint64) { vs[i] = v })
	if !reflect.DeepEqual(vs, []uint64{1, 2, 3}) {
		t.Fatalf("section 1 array %v", vs)
	}
	if c.SectionLen(2) != 0 {
		t.Fatalf("empty section length %d", c.SectionLen(2))
	}
	if _, err := c.Open(3); err == nil {
		t.Fatal("out-of-range Open succeeded")
	}
	// Read must agree with Parse.
	c2, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if c2.Len() != c.Len() {
		t.Fatalf("Read section count %d, Parse %d", c2.Len(), c.Len())
	}
}

// TestContainerRejectsCorruption flips, truncates, and inflates a valid
// container; every mutation must surface as an error, at parse time or
// when the damaged section is opened.
func TestContainerRejectsCorruption(t *testing.T) {
	valid := buildContainer(t)

	if _, err := Parse([]byte("not a checkpoint")); err != ErrNotCheckpoint {
		t.Fatalf("wrong magic: err = %v, want ErrNotCheckpoint", err)
	}
	if _, err := Parse(valid[:3]); err != ErrNotCheckpoint {
		t.Fatalf("short magic: err = %v, want ErrNotCheckpoint", err)
	}
	if _, err := Parse(valid[:4]); err == nil {
		t.Fatal("missing version accepted")
	}
	bad := append([]byte{}, valid...)
	bad[4] = 0x7F // version 127
	if _, err := Parse(bad); err == nil {
		t.Fatal("future version accepted")
	}
	for _, cut := range []int{6, 9, len(valid) - 1} {
		if _, err := Parse(valid[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := Parse(append(append([]byte{}, valid...), 0xFF)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	// A payload bit flip parses (headers are intact) but fails Open.
	bad = append([]byte{}, valid...)
	bad[len(bad)-8] ^= 0x10
	c, err := Parse(bad)
	if err != nil {
		t.Fatalf("payload flip failed Parse: %v", err)
	}
	opened := 0
	for i := 0; i < c.Len(); i++ {
		if _, err := c.Open(i); err != nil {
			opened++
		}
	}
	if opened == 0 {
		t.Fatal("payload bit flip passed every section CRC")
	}
	// A section claiming more bytes than the input holds dies at Parse.
	hostile := append([]byte{}, magic[:]...)
	hostile = binary.AppendUvarint(hostile, Version)
	hostile = binary.AppendUvarint(hostile, 1)     // kind
	hostile = binary.AppendUvarint(hostile, 1<<40) // absurd length
	hostile = append(hostile, 0, 0, 0, 0)          // crc
	if _, err := Parse(hostile); err == nil {
		t.Fatal("2^40-byte section claim accepted")
	}
	if _, err := Parse(make([]byte, MaxCheckpointBytes+1)); err == nil {
		t.Fatal("over-cap input accepted")
	}
}

// FuzzReadCheckpoint holds the container reader and the section decoders
// to the no-panic, no-oversized-allocation contract on arbitrary bytes:
// corrupt headers, truncated sections, and hostile lengths must produce
// errors — never a panic, never an allocation beyond the input size.
func FuzzReadCheckpoint(f *testing.F) {
	valid := buildContainer(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])                           // truncated mid-section
	f.Add(valid[:5])                                      // magic + version only
	f.Add([]byte("NOCK"))                                 // magic only
	f.Add([]byte("nope"))                                 // wrong magic
	f.Add(append(append([]byte{}, valid...), 0xBE, 0xEF)) // trailing garbage
	// Huge claimed section length.
	f.Add([]byte{'N', 'O', 'C', 'K', 1, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything that parses must stay inside the input when opened and
		// decoded: walk every section with every primitive until its
		// sticky error fires or the payload is exhausted.
		for i := 0; i < c.Len(); i++ {
			if c.SectionLen(i) > len(data) {
				t.Fatalf("section %d claims %d bytes from a %d-byte input", i, c.SectionLen(i), len(data))
			}
			d, err := c.Open(i)
			if err != nil {
				continue // CRC mismatch on fuzzer-mangled payload
			}
			for d.Err() == nil && d.Remaining() > 0 {
				d.U64()
				d.Bool()
				_ = d.String()
				d.F64()
				d.U64sFunc(2, func(int, uint64) {})
				d.BoolsFunc(9, func(int, bool) {})
			}
		}
	})
}

// TestContainerGoldenBytes pins the on-disk bytes of a small fixed NOCK
// container: any change to the preamble, section framing, or codec
// encodings changes the hash.
func TestContainerGoldenBytes(t *testing.T) {
	var buf bytes.Buffer
	cw := NewWriter(&buf)
	var e Enc
	e.U64(300)
	e.I64(-7)
	e.Bool(true)
	e.F64(math.Pi)
	e.String("golden")
	e.U64s([]uint64{5, 3, 1 << 33})
	e.Bools([]bool{true, false, true})
	cw.Section(1, e.Bytes())
	cw.Section(2, nil)
	e.Reset()
	e.String(strings.Repeat("x", 200))
	cw.Section(1<<20, e.Bytes())
	if err := cw.Err(); err != nil {
		t.Fatal(err)
	}
	const want = "c9aa87679668653ac6363b6505a2870f8b2c3a1181729a13d7572514efda0b08"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Fatalf("NOCK container bytes changed: sha256 %s, want %s", got, want)
	}
}

// TestReadSection drives the single-section reader other container
// formats index into: a section read back by its recorded offset and
// span round-trips kind and payload, Raw bytes pass through verbatim, and
// a wrong span or a flipped payload byte is an error.
func TestReadSection(t *testing.T) {
	var buf bytes.Buffer
	cw := NewContainerWriter(&buf, [4]byte{'T', 'E', 'S', 'T'}, 3)
	var e Enc
	e.U64(42)
	e.Raw([]byte("raw"))
	start := cw.Offset()
	cw.Section(7, e.Bytes())
	end := cw.Offset()
	cw.Raw([]byte("tail"))
	if err := cw.Err(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if string(data[:4]) != "TEST" || data[4] != 3 || string(data[end:]) != "tail" {
		t.Fatalf("preamble or raw tail misplaced: %q", data)
	}

	r := bytes.NewReader(data)
	kind, payload, err := ReadSection(r, start, make([]byte, end-start))
	if err != nil || kind != 7 {
		t.Fatalf("ReadSection = (%d, %v)", kind, err)
	}
	d := NewDec(payload)
	if v, raw := d.U64(), d.Raw(3); v != 42 || string(raw) != "raw" || d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("payload decoded to %d %q (err %v, %d left)", v, raw, d.Err(), d.Remaining())
	}
	if d.Raw(1); d.Err() == nil {
		t.Fatal("Raw past the payload must fail")
	}

	if _, _, err := ReadSection(r, start, make([]byte, end-start+1)); err == nil {
		t.Fatal("a span longer than the section must fail")
	}
	bad := append([]byte(nil), data...)
	bad[end-1] ^= 0xFF
	if _, _, err := ReadSection(bytes.NewReader(bad), start, make([]byte, end-start)); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("flipped payload byte: err %v, want a CRC mismatch", err)
	}
}
