package workload

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// This file derives a workload's *behavioral fingerprint*: a stable byte
// string that changes exactly when the instruction streams, pipeline
// parameters, scalability limit, or prewarm layout a workload produces
// could change. The experiment engine folds it into Point.Key, the
// canonical content hash behind the campaign result cache — two points
// may share a cache entry only when their workloads are behaviorally
// identical, so the fingerprint must capture calibration content, not
// just the display name.

// Fingerprinter lets a user Workload implementation supply its own
// behavioral fingerprint for content-addressed result caching. The
// returned bytes must be deterministic and must change whenever the
// workload's observable behaviour (streams, core parameters, layout,
// scalability) changes.
type Fingerprinter interface {
	WorkloadFingerprint() ([]byte, error)
}

// Fingerprint returns w's behavioral fingerprint. The builtin families
// fingerprint structurally — a Synthetic by its calibration block, a Mix
// by its members and assignment, a Phased by its schedule, a trace by
// the hash of its canonical NOC2 encoding — and decorators prefix the
// wrapped fingerprint. Unknown implementations must provide
// Fingerprinter; a bare name is not identity enough for a shared cache,
// so they are an error rather than a silent alias hazard.
func Fingerprint(w Workload) ([]byte, error) {
	switch t := w.(type) {
	case unlimited:
		inner, err := Fingerprint(t.Workload)
		if err != nil {
			return nil, err
		}
		return append([]byte("unlimited:"), inner...), nil
	case Synthetic:
		b, err := json.Marshal(t.P)
		if err != nil {
			return nil, err
		}
		return append([]byte("synth:"), b...), nil
	case *Mix:
		b, err := json.Marshal(struct {
			Name    string   `json:"name"`
			Members []Params `json:"members"`
			Assign  []int    `json:"assign,omitempty"`
		}{t.name, t.members, t.assign})
		if err != nil {
			return nil, err
		}
		return append([]byte("mix:"), b...), nil
	case *Phased:
		b, err := json.Marshal(struct {
			Name   string  `json:"name"`
			Phases []Phase `json:"phases"`
		}{t.name, t.phases})
		if err != nil {
			return nil, err
		}
		return append([]byte("phased:"), b...), nil
	case *TraceFile:
		// A trace stores the SHA-256 of its canonical NOC2 encoding
		// (varint streams in core order), computed while recording — so
		// the hash identifies the recording's full content whichever
		// container holds it: renaming, moving, or converting the file
		// does not change the key, re-recording does.
		fp := t.Fingerprint()
		return []byte("capture:" + hex.EncodeToString(fp[:])), nil
	}
	if f, ok := w.(Fingerprinter); ok {
		b, err := f.WorkloadFingerprint()
		if err != nil {
			return nil, err
		}
		return append([]byte("custom:"), b...), nil
	}
	return nil, fmt.Errorf("workload: %q (%T) has no behavioral fingerprint; implement workload.Fingerprinter to make it cacheable", w.Name(), w)
}
