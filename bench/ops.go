package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"os"

	"nocout"
	"nocout/internal/chip"
)

// An operation is one simulated point or one cross-check. A point fails
// when its result digest differs from the committed golden digest (at the
// golden seed) or from the digest the same point produced earlier in the
// process; a cross-check fails when an identity the simulator promises —
// replay equals live, checkpoint-warm equals plain, two domains equal
// one, traced equals untraced — does not hold.

// goldenSeed is the seed golden.json records digests for; at any other
// seed only the cross-checks and the in-process repeat checks apply.
const goldenSeed = 1

//go:embed golden.json
var goldenJSON []byte

// opLog counts operations and their failures.
type opLog struct {
	golden    map[string]string // nil: no golden check
	record    map[string]string // non-nil: digests observed, for -update-golden
	first     map[string]string // first digest per op in this process
	attempted int
	failures  []string
}

// newOpLog returns a log checking against the committed golden digests
// at the golden seed, or recording digests instead when update is set.
func newOpLog(seed uint64, update bool) (*opLog, error) {
	o := &opLog{first: map[string]string{}}
	switch {
	case update:
		if seed != goldenSeed {
			return nil, fmt.Errorf("golden digests are recorded at seed %d, not %d", goldenSeed, seed)
		}
		o.record = map[string]string{}
	case seed == goldenSeed:
		if err := json.Unmarshal(goldenJSON, &o.golden); err != nil {
			return nil, fmt.Errorf("golden.json: %w", err)
		}
	}
	return o, nil
}

// point records one simulated point's result digest.
func (o *opLog) point(name, digest string) {
	o.attempted++
	if prev, ok := o.first[name]; ok && prev != digest {
		o.fail("%s: digest %s differs from %s earlier in this run", name, digest, prev)
		return
	}
	o.first[name] = digest
	if o.record != nil {
		o.record[name] = digest
	}
	if o.golden == nil {
		return
	}
	switch want, ok := o.golden[name]; {
	case !ok:
		o.fail("%s: no golden digest", name)
	case want != digest:
		o.fail("%s: digest %s, golden %s", name, digest, want)
	}
}

// check records one cross-check.
func (o *opLog) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.fail(format, args...)
	}
}

func (o *opLog) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// writeGolden merges the recorded digests into the golden file at path.
func (o *opLog) writeGolden(path string) error {
	all := map[string]string{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	maps.Copy(all, o.record)
	// Marshalled maps are key-sorted, so the file diffs cleanly.
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// digest is a short content hash of the given parts.
func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// chipDigest covers a chip's state hash and its window metrics.
func chipDigest(c *chip.Chip, m chip.Metrics) (string, error) {
	j, err := json.Marshal(m)
	if err != nil {
		return "", fmt.Errorf("encoding metrics: %w", err)
	}
	return digest(fmt.Appendf(nil, "%016x", c.StateHash()), j), nil
}

// resultDigest covers a Runner point's canonical Result JSON.
func resultDigest(r nocout.Result) (string, error) {
	j, err := json.Marshal(r)
	if err != nil {
		return "", fmt.Errorf("encoding result: %w", err)
	}
	return digest(j), nil
}

// reportOps records every point of a Runner report under prefix and
// returns the digests in sweep order.
func reportOps(o *opLog, prefix string, rep *nocout.Report) ([]string, error) {
	out := make([]string, len(rep.Results))
	for i, pr := range rep.Results {
		if pr.Err != "" {
			o.attempted++
			o.fail("%s %s: %s", prefix, pr.Point, pr.Err)
			continue
		}
		d, err := resultDigest(pr.Result)
		if err != nil {
			return nil, err
		}
		out[i] = d
		o.point(fmt.Sprintf("%s/%s/%s/%d/s%d", prefix, pr.Point.Variant, pr.Point.Workload, pr.Point.Config.Cores, pr.Point.Seed), d)
	}
	return out, nil
}
