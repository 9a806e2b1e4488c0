package workload

import (
	"bytes"
	"testing"
)

func TestFingerprintFamilies(t *testing.T) {
	fp := func(w Workload) []byte {
		t.Helper()
		b, err := Fingerprint(w)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	// Deterministic and calibration-sensitive for synthetics.
	ws := Synth(WebSearch)
	if !bytes.Equal(fp(ws), fp(Synth(WebSearch))) {
		t.Fatal("synthetic fingerprint not deterministic")
	}
	tweaked := WebSearch
	tweaked.BaseCPI += 0.01
	if bytes.Equal(fp(ws), fp(Synth(tweaked))) {
		t.Fatal("calibration change must change the fingerprint")
	}
	// Aliases are metadata, not behaviour.
	if !bytes.Equal(fp(ws), fp(Synth(WebSearch, "extra-alias"))) {
		t.Fatal("aliases must not change the fingerprint")
	}

	// Decorators change identity: an unlimited run caches separately.
	if bytes.Equal(fp(ws), fp(Unlimited(ws))) {
		t.Fatal("Unlimited must change the fingerprint")
	}

	// Mix assignment is behaviour.
	m := NewMix("m", WebSearch, DataServing)
	if bytes.Equal(fp(m), fp(m.WithAssignment([]int{1, 0}))) {
		t.Fatal("mix assignment must change the fingerprint")
	}

	// Phased schedule length is behaviour.
	p1 := NewPhased("p", Phase{Params: WebSearch, Instrs: 100})
	p2 := NewPhased("p", Phase{Params: WebSearch, Instrs: 200})
	if bytes.Equal(fp(p1), fp(p2)) {
		t.Fatal("phase length must change the fingerprint")
	}

	// Traces fingerprint by content, not name: two recordings of the
	// same source at different lengths differ.
	c1 := parseNOC3(t, writeNOC3Bytes(t, ws, 2, 50, 1, 0))
	c2 := parseNOC3(t, writeNOC3Bytes(t, ws, 2, 60, 1, 0))
	if bytes.Equal(fp(c1), fp(c2)) {
		t.Fatal("trace content must drive the fingerprint")
	}
	if !bytes.Equal(fp(c1), fp(parseNOC3(t, writeNOC3Bytes(t, ws, 2, 50, 1, 0)))) {
		t.Fatal("trace fingerprint not deterministic")
	}

	// Opaque implementations without Fingerprinter are a hard error.
	if _, err := Fingerprint(opaqueWorkload{Workload: ws}); err == nil {
		t.Fatal("unknown implementation without Fingerprinter must error")
	}
	// ...and Fingerprinter opts back in.
	b, err := Fingerprint(fingerprinted{opaqueWorkload{Workload: ws}})
	if err != nil || len(b) == 0 {
		t.Fatalf("Fingerprinter path = (%q, %v)", b, err)
	}
}

type opaqueWorkload struct{ Workload }

type fingerprinted struct{ opaqueWorkload }

func (fingerprinted) WorkloadFingerprint() ([]byte, error) { return []byte("me"), nil }
