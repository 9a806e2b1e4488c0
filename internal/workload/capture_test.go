package workload

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nocout/internal/cpu"
)

// writeNOC2 is the test-only NOC2 writer: it records w through
// recordMeta and the canonical NOC2 encoders, producing the bytes
// ReadCapture accepts (and whose SHA-256 is the recording's fingerprint).
func writeNOC2(t testing.TB, w Workload, cores, perCore int, seed uint64) []byte {
	t.Helper()
	hdr, metas, err := recordMeta(w, cores, perCore, seed)
	if err != nil {
		t.Fatal(err)
	}
	return encodeNOC2(t, w, hdr, metas, seed)
}

// encodeNOC2 writes a NOC2 recording of w under the given header and
// per-core metadata, which tests may have altered past recordMeta.
func encodeNOC2(t testing.TB, w Workload, hdr captureHeader, metas []coreMeta, seed uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := &noc2Enc{w: &buf}
	enc.header(hdr, len(metas))
	var rec []byte
	for i, m := range metas {
		enc.coreHeader(m)
		st := w.StreamFor(i, seed)
		prev := int64(0)
		rec = rec[:0]
		for k := 0; k < m.Total; k++ {
			rec = appendNOC2Record(rec, st.Next(), &prev)
		}
		enc.write(rec)
	}
	if enc.err != nil {
		t.Fatal(enc.err)
	}
	return buf.Bytes()
}

// writeNOC2File writes a NOC2 recording of w to a fresh temp file and
// returns its path.
func writeNOC2File(t testing.TB, w Workload, cores, perCore int, seed uint64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "noc2.noctrace")
	if err := os.WriteFile(path, writeNOC2(t, w, cores, perCore, seed), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCaptureRoundTrip(t *testing.T) {
	src := ConsolidatedMix() // heterogeneous: exercises per-core params + members
	cap, err := ReadCapture(bytes.NewReader(writeNOC2(t, src, 4, 2000, 17)))
	if err != nil {
		t.Fatal(err)
	}
	if cap.Source != "Consolidated" || cap.Seed != 17 || len(cap.Cores) != 4 {
		t.Fatalf("capture header %+v", cap)
	}
	lay := src.Layout()
	if cap.Instr != lay.Instr || cap.Hot != lay.Hot {
		t.Fatalf("shared regions: %+v/%+v != %+v/%+v", cap.Instr, cap.Hot, lay.Instr, lay.Hot)
	}
	for core := range cap.Cores {
		cc := &cap.Cores[core]
		ref := src.StreamFor(core, 17)
		for i, got := range cc.Instrs {
			if want := ref.Next(); got != want {
				t.Fatalf("core %d record %d: %+v != %+v", core, i, got, want)
			}
		}
		if cc.Member != src.MemberName(core) {
			t.Fatalf("core %d member %q != %q", core, cc.Member, src.MemberName(core))
		}
		want := src.CoreParams(core, 17)
		want.Seed = 0
		if cc.Params != want {
			t.Fatalf("core %d params %+v != %+v", core, cc.Params, want)
		}
		if cc.Local != lay.Local(core) {
			t.Fatalf("core %d local region %+v != %+v", core, cc.Local, lay.Local(core))
		}
	}
}

func TestCaptureReplayLoops(t *testing.T) {
	w, err := LoadTrace(writeNOC2File(t, Synth(WebSearch), 1, 50, 1))
	if err != nil {
		t.Fatal(err)
	}
	st := w.StreamFor(0, 1)
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

func TestCaptureMaxCoresClamp(t *testing.T) {
	cap, err := LoadTrace(writeNOC2File(t, Synth(DataServing), 4, 10, 1)) // source scales to 64
	if err != nil {
		t.Fatal(err)
	}
	if cap.MaxCores() != 4 {
		t.Fatalf("MaxCores = %d, must clamp to the 4 recorded cores", cap.MaxCores())
	}
	// A 16-core source recorded onto more cores keeps its software limit.
	ws, err := LoadTrace(writeNOC2File(t, Synth(WebSearch), 32, 10, 1))
	if err != nil {
		t.Fatal(err)
	}
	if ws.MaxCores() != 16 {
		t.Fatalf("MaxCores = %d, want 16", ws.MaxCores())
	}
	// Cores beyond the recording reuse streams modulo the recorded count.
	a, b := cap.StreamFor(6, 1), cap.StreamFor(2, 1)
	for i := 0; i < 10; i++ {
		if a.Next() != b.Next() {
			t.Fatal("modulo stream reuse broken")
		}
	}
}

func TestCaptureOfUnlimitedWorkloadRoundTrips(t *testing.T) {
	// An Unlimited-wrapped source reports MaxInt; the recording must
	// clamp the stored limit so the file stays decodable.
	back, err := ReadCapture(bytes.NewReader(writeNOC2(t, Unlimited(Synth(WebSearch)), 4, 20, 1)))
	if err != nil {
		t.Fatalf("capture of an unlimited workload must decode: %v", err)
	}
	if back.ScaleLimit != 4 {
		t.Fatalf("recorded scale limit = %d, want the 4 recorded cores", back.ScaleLimit)
	}
}

// TestCaptureSaveLoad: a NOC2 file on disk converts to the same NOC3
// bytes a direct recording writes, and a missing input is an error.
func TestCaptureSaveLoad(t *testing.T) {
	dir := t.TempDir()
	noc2 := writeNOC2File(t, Synth(SATSolver), 2, 100, 3)
	noc3 := filepath.Join(dir, "sat3.noctrace")
	if err := ConvertFile(noc2, noc3); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(noc3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, writeNOC3Bytes(t, Synth(SATSolver), 2, 100, 3, 0)) {
		t.Fatal("converted file differs from a direct recording")
	}
	if err := ConvertFile(filepath.Join(dir, "missing.noctrace"), noc3); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestRecordValidation(t *testing.T) {
	if err := WriteNOC3(discardWriter{}, Synth(DataServing), 0, 10, 1, 0); err == nil {
		t.Fatal("zero cores must error")
	}
	if err := WriteNOC3(discardWriter{}, Synth(DataServing), 1, 0, 1, 0); err == nil {
		t.Fatal("zero instructions must error")
	}
	if err := WriteNOC3(discardWriter{}, Synth(DataServing), 1, 10, 1, maxBlockLen+1); err == nil {
		t.Fatal("an oversized block length must error")
	}
}

// editParams is its base with every core's pipeline parameters passed
// through edit.
type editParams struct {
	Workload
	edit func(*cpu.Params)
}

func (w editParams) CoreParams(coreID int, seed uint64) cpu.Params {
	p := w.Workload.CoreParams(coreID, seed)
	w.edit(&p)
	return p
}

// TestRecordRejectsUnreplayableParams: a recording whose pipeline
// parameters the reader would refuse fails by core and parameter instead
// of writing a file LoadTrace cannot open, and leaves an existing file at
// the path byte-identical.
func TestRecordRejectsUnreplayableParams(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keep.noctrace")
	if err := RecordFile(path, Synth(DataServing), 4, 100, 1); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dep := DataServing
	dep.DepChance = 1.5
	for name, tc := range map[string]struct {
		w    Workload
		want string
	}{
		"dep chance": {Synth(dep), "core 0 has implausible dep chance 1.5"},
		"width":      {editParams{Synth(DataServing), func(p *cpu.Params) { p.Width = 65 }}, "core 0 has implausible width 65"},
		"base CPI":   {editParams{Synth(DataServing), func(p *cpu.Params) { p.BaseCPI = math.NaN() }}, "core 0 has implausible base CPI NaN"},
	} {
		if err := RecordFile(path, tc.w, 4, 100, 1); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", name, err, tc.want)
		}
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("a refused recording changed the existing trace (err %v)", err)
	}
}

// TestReadCaptureRejectsCorruption drives the decoder through the main
// corruption classes: wrong magic, truncation at every byte boundary,
// and implausible decoded pipeline parameters. None may panic.
func TestReadCaptureRejectsCorruption(t *testing.T) {
	valid := writeNOC2(t, Synth(MapReduceW), 2, 50, 1)
	if _, err := ReadCapture(bytes.NewReader(valid)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCapture(bytes.NewReader([]byte("NOC1....."))); err == nil {
		t.Fatal("NOC1 magic must be rejected by the capture reader")
	}
	for cut := 0; cut < len(valid); cut += 17 {
		if _, err := ReadCapture(bytes.NewReader(valid[:cut])); err == nil {
			t.Fatalf("truncation at %d must error", cut)
		}
	}

	// A NaN BaseCPI must be rejected rather than hand the cpu model a
	// panic. The recorder refuses to write one, so alter the metadata
	// past recordMeta.
	w := Synth(MapReduceW)
	hdr, metas, err := recordMeta(w, 2, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	metas[1].Params.BaseCPI = math.NaN()
	bad := encodeNOC2(t, w, hdr, metas, 1)
	if _, err := ReadCapture(bytes.NewReader(bad)); err == nil {
		t.Fatal("NaN base CPI must be rejected")
	}
}
