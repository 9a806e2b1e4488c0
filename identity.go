package nocout

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"nocout/internal/workload"
)

// This file defines the engine's canonical point identity: Point.Key, a
// stable content hash over everything that determines a point's Result —
// the fully resolved Config (design, hierarchy, cores, seed, link and
// memory timing), the workload's *behavioral* fingerprint (calibration
// block, mix assignment, capture content — not just the display name),
// and the measurement Quality. The campaign subsystem addresses its
// result store by this key, so the hash carries a version prefix
// (KeyVersion) and a golden stability test: changing what the key covers
// means bumping the version, never silently remapping old caches.

// KeyVersion prefixes every Point.Key; it names the key schema, and bumps
// whenever the hashed content or canonicalization changes so stale cache
// entries can never alias fresh ones.
const KeyVersion = "pt1"

// Key returns the point's canonical content hash at measurement quality
// q: "pt1-" plus 64 hex digits of SHA-256 over the canonicalized point
// JSON, the workload fingerprint, and the quality. The hash is
// JSON-round-trip stable — a Point decoded from a report or campaign
// manifest keys identically to the original — and is the identity the
// campaign result cache and lease files are addressed by.
//
// Key resolves the point's workload (from the sweep expansion when run
// in-process, else through the registry / trace path recorded in
// WorkloadSpec), so it errors when the workload is unknown to this
// process or its fingerprint is unavailable.
func (p Point) Key(q Quality) (string, error) {
	w, release, err := p.resolveWorkload()
	if err != nil {
		return "", err
	}
	defer release()
	fp, err := workload.Fingerprint(w)
	if err != nil {
		return "", fmt.Errorf("nocout: point %s: %w", p, err)
	}
	pj, err := canonicalJSON(p)
	if err != nil {
		return "", fmt.Errorf("nocout: point %s: %w", p, err)
	}
	qj, err := canonicalJSON(q)
	if err != nil {
		return "", fmt.Errorf("nocout: quality: %w", err)
	}
	return contentKey(KeyVersion, pj, fp, qj), nil
}

// contentKey returns version + "-" + the hex SHA-256 of version and the
// parts, each field prefixed with its length as 8 big-endian bytes, so
// no two lists of parts hash the same bytes.
func contentKey(version string, parts ...[]byte) string {
	h := sha256.New()
	var n [8]byte
	for _, part := range append([][]byte{[]byte(version)}, parts...) {
		binary.BigEndian.PutUint64(n[:], uint64(len(part)))
		h.Write(n[:])
		h.Write(part)
	}
	return version + "-" + hex.EncodeToString(h.Sum(nil))
}

// canonicalJSON marshals v, then re-encodes through a generic value so
// the bytes are canonical: object keys sorted, no indentation, numbers
// kept as their literal digits (json.Number, so uint64 seeds survive).
// Any value that round-trips through encoding/json therefore yields the
// same canonical bytes before and after a round trip.
func canonicalJSON(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var generic any
	if err := dec.Decode(&generic); err != nil {
		return nil, err
	}
	return json.Marshal(generic)
}

// resolveWorkload returns the point's Workload: the value the sweep
// expansion bound when available, otherwise the registry resolution of
// WorkloadSpec (the parse spec, e.g. "trace:<path>") or the workload
// name, with the Unlimited cap-lift re-applied. This is how a campaign
// worker in another process rehydrates a manifest point; unregistered
// WithWorkloadValues workloads cannot be rehydrated and error here.
//
// release closes a trace this call opened from a "trace:<path>" spec:
// Key and PrefixKey, which need the workload only for its fingerprint,
// call it, and the Runner, which binds the workload for the sweep, does
// not. A bound value or a registry entry, which others share, is never
// closed.
func (p Point) resolveWorkload() (w workload.Workload, release func(), err error) {
	if p.wl != nil {
		return p.wl, func() {}, nil
	}
	spec := p.WorkloadSpec
	if spec == "" {
		spec = p.Workload
	}
	w, err = workload.Parse(spec)
	if err != nil {
		return nil, nil, fmt.Errorf("nocout: point %s: %w (campaign workers need the workload registered in-process, or its trace file readable)", p, err)
	}
	release = func() {}
	if tf, ok := w.(*workload.TraceFile); ok && traceSpec(spec) {
		release = func() { tf.Close() }
	}
	if w.Name() != p.Workload {
		release()
		return nil, nil, fmt.Errorf("nocout: point %s: spec %q resolves to workload %q, want %q", p, spec, w.Name(), p.Workload)
	}
	if p.Unlimited {
		w = workload.Unlimited(w)
	}
	return w, release, nil
}

// traceSpec reports whether a workload parse spec is the trace:<path>
// capture scheme (the one spec that is not just a registry name).
func traceSpec(s string) bool {
	return strings.HasPrefix(strings.ToLower(strings.TrimSpace(s)), "trace:")
}
