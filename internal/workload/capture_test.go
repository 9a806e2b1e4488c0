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
// recordMeta and the canonical NOC2 encoders, producing the bytes whose
// SHA-256 is the recording's fingerprint.
func writeNOC2(t testing.TB, w Workload, cores, perCore int, seed uint64) []byte {
	t.Helper()
	hdr, metas, err := recordMeta(w, cores, perCore, seed)
	if err != nil {
		t.Fatal(err)
	}
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

func TestCaptureOfUnlimitedWorkloadRoundTrips(t *testing.T) {
	// An Unlimited-wrapped source reports MaxInt; the recording must
	// clamp the stored limit so the file stays decodable.
	back := parseNOC3(t, writeNOC3Bytes(t, Unlimited(Synth(WebSearch)), 4, 20, 1, 0))
	if back.hdr.ScaleLimit != 4 {
		t.Fatalf("recorded scale limit = %d, want the 4 recorded cores", back.hdr.ScaleLimit)
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
// of writing a file OpenTraceFile cannot open, and leaves an existing file at
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
