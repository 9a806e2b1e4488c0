package workload

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"nocout/internal/ckpt"
	"nocout/internal/cpu"
)

// parseTraceBytes indexes an in-memory NOC3 container.
func parseTraceBytes(data []byte) (*TraceFile, error) {
	return newTraceFile(bytes.NewReader(data), int64(len(data)))
}

// writeNOC3Bytes records w into an in-memory NOC3 container.
func writeNOC3Bytes(t *testing.T, w Workload, cores, perCore int, seed uint64, blockLen int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteNOC3(&buf, w, cores, perCore, seed, blockLen); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func parseNOC3(t *testing.T, data []byte) *TraceFile {
	t.Helper()
	tf, err := parseTraceBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	return tf
}

func TestNOC3RoundTrip(t *testing.T) {
	src := ConsolidatedMix() // heterogeneous: exercises per-core params + members
	const cores, perCore, seed = 4, 2000, 17
	tf := parseNOC3(t, writeNOC3Bytes(t, src, cores, perCore, seed, 128))
	if err := tf.Verify(); err != nil {
		t.Fatal(err)
	}
	if tf.Name() != "Consolidated" || tf.hdr.Seed != seed || len(tf.cores) != cores {
		t.Fatalf("trace header: name %q seed %d cores %d", tf.Name(), tf.hdr.Seed, len(tf.cores))
	}

	for core := 0; core < cores; core++ {
		ref := src.StreamFor(core, seed)
		st := tf.StreamFor(core, 99) // replay ignores the seed
		for i := 0; i < perCore; i++ {
			if got, want := st.Next(), ref.Next(); got != want {
				t.Fatalf("core %d record %d: %+v != %+v", core, i, got, want)
			}
		}
		if tf.MemberName(core) != src.MemberName(core) {
			t.Fatalf("core %d member %q != %q", core, tf.MemberName(core), src.MemberName(core))
		}
		if cp, want := tf.CoreParams(core, 5), src.CoreParams(core, 5); cp != want {
			t.Fatalf("core %d params %+v != %+v", core, cp, want)
		}
	}

	lay, ref := tf.Layout(), src.Layout()
	if lay.Instr != ref.Instr || lay.Hot != ref.Hot {
		t.Fatalf("shared regions: %+v/%+v != %+v/%+v", lay.Instr, lay.Hot, ref.Instr, ref.Hot)
	}
	for core := 0; core < cores; core++ {
		if lay.Local(core) != ref.Local(core) {
			t.Fatalf("core %d local region %+v != %+v", core, lay.Local(core), ref.Local(core))
		}
	}
}

func TestNOC3ReplayLoops(t *testing.T) {
	// 50 instructions at block length 16: the loop crosses a partial last
	// block and the wrap back to block 0.
	tf := parseNOC3(t, writeNOC3Bytes(t, Synth(WebSearch), 1, 50, 1, 16))
	st := tf.StreamFor(0, 1)
	var first [50]cpu.Instr
	for i := range first {
		first[i] = st.Next()
	}
	for round := 0; round < 3; round++ {
		for i := range first {
			if got := st.Next(); got != first[i] {
				t.Fatalf("round %d record %d: %+v != %+v", round, i, got, first[i])
			}
		}
	}
}

func TestNOC3MaxCoresClamp(t *testing.T) {
	tf := parseNOC3(t, writeNOC3Bytes(t, Synth(DataServing), 4, 10, 1, 0)) // source scales to 64
	if tf.MaxCores() != 4 {
		t.Fatalf("MaxCores = %d, must clamp to the 4 recorded cores", tf.MaxCores())
	}
	ws := parseNOC3(t, writeNOC3Bytes(t, Synth(WebSearch), 32, 10, 1, 0)) // source scales to 16
	if ws.MaxCores() != 16 {
		t.Fatalf("MaxCores = %d, want 16", ws.MaxCores())
	}
	// Cores beyond the recording reuse streams modulo the recorded count.
	a, b := tf.StreamFor(6, 1), tf.StreamFor(2, 1)
	for i := 0; i < 10; i++ {
		if a.Next() != b.Next() {
			t.Fatal("modulo stream reuse broken")
		}
	}
}

// TestNOC3FingerprintMatchesNOC2 is the cache-survival guarantee: the
// fingerprint of a NOC3 recording is the SHA-256 of the recording's
// canonical NOC2 bytes, so Point.Key and checkpoint prefixes depend on
// the recorded streams, not on the container they were read from.
func TestNOC3FingerprintMatchesNOC2(t *testing.T) {
	src := ConsolidatedMix()
	const cores, perCore, seed = 3, 700, 9

	sum := sha256.Sum256(writeNOC2(t, src, cores, perCore, seed))
	fpNOC2 := []byte(fmt.Sprintf("capture:%x", sum))
	recorded := parseNOC3(t, writeNOC3Bytes(t, src, cores, perCore, seed, 64))
	fpNOC3, err := Fingerprint(recorded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fpNOC2, fpNOC3) {
		t.Fatalf("fingerprint is not the NOC2 encoding's hash:\n NOC2 %s\n NOC3 %s", fpNOC2, fpNOC3)
	}
}

// TestNOC3SeekMatchesSequential is the block-boundary property test:
// restoring a cursor at any (block, offset) — including mid-block and
// phase-predicted blocks — must continue exactly where a sequential
// replay would.
func TestNOC3SeekMatchesSequential(t *testing.T) {
	src := MapReducePhased() // phase structure exercises both predictors
	const perCore = 1100     // 35 blocks of 32: partial tail + several keyframe groups
	tf := parseNOC3(t, writeNOC3Bytes(t, src, 2, perCore, 5, 32))

	for core := 0; core < 2; core++ {
		seq := make([]cpu.Instr, perCore)
		st := tf.StreamFor(core, 1)
		for i := range seq {
			seq[i] = st.Next()
		}
		for _, pos := range []struct{ blk, off int }{
			{0, 0}, {0, 31}, {1, 0}, {7, 5}, {8, 0}, {9, 17}, {15, 31}, {16, 0}, {33, 12}, {34, 0}, {34, 11},
		} {
			r := tf.newReplay(core)
			if err := r.seek(pos.blk, pos.off); err != nil {
				t.Fatalf("core %d seek(%d, %d): %v", core, pos.blk, pos.off, err)
			}
			at := pos.blk*32 + pos.off
			for k := 0; k < 100; k++ {
				want := seq[(at+k)%perCore]
				if got := r.Next(); got != want {
					t.Fatalf("core %d seek(%d, %d) record %d: %+v != %+v", core, pos.blk, pos.off, k, got, want)
				}
			}
		}
	}
}

// periodic is a test workload whose stream repeats with a fixed period,
// the structure the phase predictor exists for.
type periodic struct{ period int }

func (p periodic) Name() string      { return "periodic" }
func (p periodic) Aliases() []string { return nil }
func (p periodic) MaxCores() int     { return 64 }
func (p periodic) CoreParams(coreID int, seed uint64) cpu.Params {
	return cpu.Params{Width: 2, ROB: 32, BaseCPI: 0.7, DepChance: 0.1}
}
func (p periodic) Layout() Layout {
	return Layout{Local: func(int) Region { return Region{} }}
}
func (p periodic) StreamFor(coreID int, seed uint64) cpu.Stream {
	return &periodicStream{period: p.period}
}

type periodicStream struct{ period, i int }

func (s *periodicStream) Next() cpu.Instr {
	// A jumpy address pattern within the period (expensive for the
	// previous-instruction predictor) that repeats exactly across periods
	// (free for the phase predictor).
	k := s.i % s.period
	s.i++
	addr := uint64(k*k*2654435761) % (1 << 30)
	return cpu.Instr{Kind: cpu.KindALU, IAddr: addr}
}

// TestNOC3PhasePredictorWins: when the block length equals the stream's
// period, every non-keyframe block is identical to its predecessor and
// the phase predictor must win — and compress far better than NOC2's
// previous-instruction delta alone.
func TestNOC3PhasePredictorWins(t *testing.T) {
	const blockLen = 256
	data := writeNOC3Bytes(t, periodic{period: blockLen}, 1, blockLen*32, 1, blockLen)
	tf := parseNOC3(t, data)
	if err := tf.Verify(); err != nil {
		t.Fatal(err)
	}
	st := tf.stats
	// 32 blocks, keyframes at 0, 8, 16, 24: 28 phase-predicted.
	if st.PredPhase != 28 || st.PredPrev != 4 {
		t.Fatalf("predictor split %d phase / %d prev, want 28 / 4", st.PredPhase, st.PredPrev)
	}

	noc2 := writeNOC2(t, periodic{period: blockLen}, 1, blockLen*32, 1)
	if len(data) >= len(noc2) {
		t.Fatalf("NOC3 (%d bytes) did not beat NOC2 (%d bytes) on a periodic stream", len(data), len(noc2))
	}
}

// TestNOC3RecordBoundedMemory is the satellite regression test for the
// recording path: streaming a multi-million-instruction workload to disk
// must allocate O(encoders × block), not O(trace). At most four encoders
// run, so the ceiling holds at any CPU count.
func TestNOC3RecordBoundedMemory(t *testing.T) {
	const cores, perCore = 2, 1 << 21 // 4.2M instructions ≈ 100MB if materialized
	w := Synth(DataServing)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := WriteNOC3(discardWriter{}, w, cores, perCore, 1, 0); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	// Generous ceiling: block buffers + flate state + per-core stream
	// construction, still 6x under materializing even one core's stream.
	const ceiling = 8 << 20
	if alloc > ceiling {
		t.Fatalf("recording %d instructions allocated %d bytes, ceiling %d", cores*perCore, alloc, ceiling)
	}
}

// discardWriter is io.Discard without the io.ReaderFrom fast path, so
// writes land in the recorder's own code paths.
type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestNOC3ReplayBoundedMemory is the acceptance criterion: replaying a
// multi-million-instruction NOC3 recording keeps memory O(cores × block)
// — the full stream here is ~100MB decoded, the ceiling is 8MB.
func TestNOC3ReplayBoundedMemory(t *testing.T) {
	const cores, perCore = 2, 1 << 21
	path := filepath.Join(t.TempDir(), "big.noctrace")
	if err := RecordFile(path, Synth(DataServing), cores, perCore, 1); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tf, err := OpenTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	var sink cpu.Instr
	for core := 0; core < cores; core++ {
		st := tf.StreamFor(core, 1)
		for i := 0; i < perCore; i++ {
			sink = st.Next()
		}
	}
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	const ceiling = 8 << 20
	if alloc > ceiling {
		t.Fatalf("replaying %d instructions allocated %d bytes, ceiling %d", cores*perCore, alloc, ceiling)
	}
	_ = sink
}

// corruptBlockPred flips core 0 block blk's predictor byte to pred and
// re-stamps the section CRC, producing a structurally valid file with a
// hostile predictor id.
func corruptBlockPred(t *testing.T, data []byte, tf *TraceFile, blk int, pred byte) []byte {
	t.Helper()
	ref := tf.cores[0].blocks[blk]
	out := append([]byte(nil), data...)
	sect := out[ref.off : ref.off+int64(ref.size)]
	// Walk the section header: kind uvarint, length uvarint, 4-byte CRC,
	// then payload = core uvarint, idx uvarint, pred byte.
	i := 0
	for sect[i]&0x80 != 0 {
		i++
	}
	i++ // kind
	for sect[i]&0x80 != 0 {
		i++
	}
	i++ // length
	crcAt := i
	i += 4
	payload := sect[i:]
	j := 0
	for payload[j]&0x80 != 0 {
		j++
	}
	j++ // core
	for payload[j]&0x80 != 0 {
		j++
	}
	j++ // idx
	payload[j] = pred
	crc := crc32.ChecksumIEEE(payload)
	sect[crcAt] = byte(crc)
	sect[crcAt+1] = byte(crc >> 8)
	sect[crcAt+2] = byte(crc >> 16)
	sect[crcAt+3] = byte(crc >> 24)
	return out
}

// TestNOC3RejectsCorruption drives the reader through the corruption
// classes the fuzz target hunts: truncation everywhere, trailer and
// index damage, bad CRCs, and hostile predictor ids. Parse+Verify must
// error cleanly, never panic, never over-allocate.
func TestNOC3RejectsCorruption(t *testing.T) {
	data := writeNOC3Bytes(t, MapReducePhased(), 2, 600, 3, 32)
	tf := parseNOC3(t, data)
	if err := tf.Verify(); err != nil {
		t.Fatal(err)
	}

	check := func(name string, b []byte) {
		t.Helper()
		bad, err := parseTraceBytes(b)
		if err == nil {
			err = bad.Verify()
		}
		if err == nil {
			t.Fatalf("%s: corrupt container accepted", name)
		}
	}

	for cut := 0; cut < len(data); cut += 13 {
		check(fmt.Sprintf("truncated at %d", cut), data[:cut])
	}

	bad := append([]byte(nil), data...)
	copy(bad[len(bad)-4:], "NOPE")
	check("trailer magic", bad)

	bad = append([]byte(nil), data...)
	bad[len(bad)-12] ^= 0xff // index offset low byte
	check("index offset", bad)

	// Flip one byte in every 97th position (covers header, blocks, and
	// index payload bytes; CRCs catch what structure checks don't).
	for pos := 4; pos < len(data); pos += 97 {
		bad = append([]byte(nil), data...)
		bad[pos] ^= 0x20
		b, err := parseTraceBytes(bad)
		if err != nil {
			continue
		}
		// A flip the index/header survived (e.g. inside a block payload)
		// must be caught by the checked decode.
		if err := b.Verify(); err == nil && !bytes.Equal(bad, data) {
			t.Fatalf("byte flip at %d accepted by Parse+Verify", pos)
		}
	}

	// Hostile predictor ids: phase prediction on a keyframe, and an
	// undefined id — both with valid CRCs.
	check("phase predictor on keyframe", corruptBlockPred(t, data, tf, 8, predPhase))
	check("undefined predictor", corruptBlockPred(t, data, tf, 3, 7))

	// A NaN base CPI must be refused rather than hand the cpu model a
	// panic. The recorder will not write one, so alter core 1's metadata
	// past recordMeta.
	w := MapReducePhased()
	hdr, metas, err := recordMeta(w, 2, 600, 3)
	if err != nil {
		t.Fatal(err)
	}
	metas[1].Params.BaseCPI = math.NaN()
	var nan bytes.Buffer
	if err := writeNOC3(&nan, hdr, metas, 32, func(core int) func() cpu.Instr { return w.StreamFor(core, 3).Next }); err != nil {
		t.Fatal(err)
	}
	check("NaN base CPI", nan.Bytes())
}

// TestNOC3CursorSaveRestore checks the (block, offset) checkpoint cursor:
// a restored stream continues bit-identically, and corrupt cursors are
// rejected as checkpoint corruption, not panics.
func TestNOC3CursorSaveRestore(t *testing.T) {
	tf := parseNOC3(t, writeNOC3Bytes(t, MapReducePhased(), 1, 500, 7, 32))
	st := tf.StreamFor(0, 1).(*blockReplay)
	for i := 0; i < 137; i++ {
		st.Next()
	}
	var e ckpt.Enc
	st.State(ckpt.Encoding(&e))

	restored := tf.StreamFor(0, 1).(*blockReplay)
	d := ckpt.NewDec(e.Bytes())
	restored.State(ckpt.Decoding(d))
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if got, want := restored.Next(), st.Next(); got != want {
			t.Fatalf("restored record %d: %+v != %+v", i, got, want)
		}
	}

	for _, bad := range []struct {
		name     string
		blk, off int
	}{
		{"block out of range", 99, 0},
		{"negative block", -1, 0},
		{"offset out of range", 0, 32},
		{"offset past short tail", 15, 31}, // block 15 holds 500-15*32=20
	} {
		var be ckpt.Enc
		be.I64(int64(bad.blk))
		be.I64(int64(bad.off))
		bd := ckpt.NewDec(be.Bytes())
		tf.StreamFor(0, 1).(*blockReplay).State(ckpt.Decoding(bd))
		if bd.Err() == nil {
			t.Fatalf("%s: corrupt cursor accepted", bad.name)
		}
	}
}

// TestLoadTraceDispatch: the "trace:" scheme opens a NOC3 file as a
// *TraceFile and rejects anything else, NOC2 captures included, with one
// named error.
func TestLoadTraceDispatch(t *testing.T) {
	dir := t.TempDir()
	noc3 := filepath.Join(dir, "sat3.noctrace")
	if err := RecordFile(noc3, Synth(SATSolver), 2, 100, 3); err != nil {
		t.Fatal(err)
	}
	w, err := Parse("trace:" + noc3)
	if err != nil {
		t.Fatal(err)
	}
	tf, ok := w.(*TraceFile)
	if !ok {
		t.Fatalf("NOC3 file loaded as %T", w)
	}
	defer tf.Close()
	a, b := tf.StreamFor(1, 1), Synth(SATSolver).StreamFor(1, 3)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("trace: scheme replay diverged from the recorded source")
		}
	}

	for name, body := range map[string][]byte{
		"junk":  []byte("neither format"),
		"empty": nil,
		"short": []byte("NO"),
		"noc2":  writeNOC2(t, Synth(SATSolver), 2, 100, 3),
	} {
		path := filepath.Join(dir, name+".noctrace")
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Parse("trace:" + path)
		if !errors.Is(err, ErrNotTrace) {
			t.Fatalf("%s file: error %v, want ErrNotTrace", name, err)
		}
		msg := err.Error()
		if strings.Count(msg, path) != 1 || !strings.Contains(msg, "NOC3") || !strings.Contains(msg, "NOC2") {
			t.Fatalf("%s file: error %q must name the path once and both formats", name, msg)
		}
	}
}

// TestFailedWriteKeepsFile: a recording that fails leaves an existing
// file byte-identical and creates no new file.
func TestFailedWriteKeepsFile(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.noctrace")
	if err := RecordFile(good, Synth(WebSearch), 4, 2000, 1); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(dir, "fresh.noctrace")
	for _, path := range []string{good, fresh} {
		for name, fail := range map[string]func() error{
			"zero instructions": func() error { return RecordFile(path, Synth(WebSearch), 4, 0, 1) },
			"idle stream":       func() error { return RecordFile(path, idleWorkload{}, 1, 10, 1) },
		} {
			if err := fail(); err == nil {
				t.Fatalf("%s into %s: want an error", name, path)
			}
		}
	}
	if got, err := os.ReadFile(good); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("failed writes changed the existing trace (err %v)", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("failed writes left files behind: %v", entries)
	}
}

// TestInspectTrace covers the -trace-info plumbing: header and section
// accounting from a NOC3 file, and ErrNotTrace for a NOC2 capture.
func TestInspectTrace(t *testing.T) {
	dir := t.TempDir()
	noc3 := filepath.Join(dir, "ws3.noctrace")
	if err := RecordFile(noc3, Synth(WebSearch), 2, 300, 3); err != nil {
		t.Fatal(err)
	}
	ti, err := InspectTrace(noc3)
	if err != nil {
		t.Fatal(err)
	}
	if ti.Format != "NOC3" || ti.Cores != 2 || ti.Instrs != 600 || ti.Seed != 3 {
		t.Fatalf("header: %+v", ti)
	}
	if want := fmt.Sprintf("%x", sha256.Sum256(writeNOC2(t, Synth(WebSearch), 2, 300, 3))); ti.Fingerprint != want {
		t.Fatalf("fingerprint %q, want the NOC2 encoding's hash %q", ti.Fingerprint, want)
	}
	if ti.Blocks == 0 || ti.BlockLen != DefaultBlockLen || ti.IndexSectionB == 0 || ti.HeaderSectionB == 0 {
		t.Fatalf("NOC3 section accounting empty: %+v", ti)
	}
	var text bytes.Buffer
	ti.WriteText(&text)
	if !bytes.Contains(text.Bytes(), []byte("NOC3")) {
		t.Fatalf("text report missing format: %s", text.String())
	}

	noc2 := filepath.Join(dir, "ws2.noctrace")
	if err := os.WriteFile(noc2, writeNOC2(t, Synth(WebSearch), 2, 300, 3), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := InspectTrace(noc2); !errors.Is(err, ErrNotTrace) {
		t.Fatalf("inspecting a NOC2 capture: error %v, want ErrNotTrace", err)
	}
}

// TestNOC3RecordRejectsIdle: open-system streams answer KindIdle, which
// has no record encoding; the recorder must refuse it.
func TestNOC3RecordRejectsIdle(t *testing.T) {
	if err := WriteNOC3(discardWriter{}, idleWorkload{}, 1, 10, 1, 0); err == nil {
		t.Fatal("recording a KindIdle stream must error")
	}
}

type idleWorkload struct{}

func (idleWorkload) Name() string      { return "idle" }
func (idleWorkload) Aliases() []string { return nil }
func (idleWorkload) MaxCores() int     { return 1 }
func (idleWorkload) CoreParams(int, uint64) cpu.Params {
	return cpu.Params{Width: 2, ROB: 32, BaseCPI: 0.7, DepChance: 0.1}
}
func (idleWorkload) Layout() Layout {
	return Layout{Local: func(int) Region { return Region{} }}
}
func (idleWorkload) StreamFor(int, uint64) cpu.Stream {
	return idleStream{}
}

type idleStream struct{}

func (idleStream) Next() cpu.Instr { return cpu.Instr{Kind: cpu.KindIdle} }

// TestNOC3GoldenBytes pins the on-disk bytes of a small phased recording:
// container framing, header and index layout, both predictors, and the
// deflate residuals. A change here invalidates every recorded trace.
func TestNOC3GoldenBytes(t *testing.T) {
	data := writeNOC3Bytes(t, MapReducePhased(), 2, 300, 1, 32)
	const want = "466ab3a1fade4fa28d2be7bd75de4d6c31e2d3db240d95a1d8ed3cda2c009dc6"
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
		t.Fatalf("NOC3 bytes changed: sha256 %s, want %s", got, want)
	}
}

// wrappingHot runs 64 bytes past the top of the address space: its end
// overflows 2^64, so it names no range the chip could prewarm.
var wrappingHot = Region{Base: math.MaxUint64 - 63, Size: 128}

// wrappingNOC3 is a two-core MapReducePhased NOC3 container whose header
// carries wrappingHot, which recordMeta refuses to produce.
func wrappingNOC3(tb testing.TB) []byte {
	tb.Helper()
	w := MapReducePhased()
	hdr, metas, err := recordMeta(w, 2, 300, 1)
	if err != nil {
		tb.Fatal(err)
	}
	hdr.Hot = wrappingHot
	var buf bytes.Buffer
	if err := writeNOC3(&buf, hdr, metas, 32, func(core int) func() cpu.Instr { return w.StreamFor(core, 1).Next }); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// wrappingLayout is a workload whose hot region is wrappingHot.
type wrappingLayout struct{ Workload }

func (w wrappingLayout) Layout() Layout {
	lay := w.Workload.Layout()
	lay.Hot = wrappingHot
	return lay
}

// TestTraceRejectsWrappingRegion: a region whose end overflows 2^64 is
// refused by name in the reader's header, and the recorder will not write
// one.
func TestTraceRejectsWrappingRegion(t *testing.T) {
	if _, err := parseTraceBytes(wrappingNOC3(t)); err == nil || !strings.Contains(err.Error(), "hot region") {
		t.Fatalf("NOC3 with a wrapping hot region: error %v, want one naming the hot region", err)
	}
	if err := WriteNOC3(io.Discard, wrappingLayout{MapReducePhased()}, 2, 300, 1, 32); err == nil {
		t.Fatal("recorded a workload whose hot region wraps past the top of the address space")
	}
}
