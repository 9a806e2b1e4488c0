package nocout

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"nocout/internal/chip"
	"nocout/internal/ckpt"
	"nocout/internal/sim"
	"nocout/internal/workload"
)

// This file is the checkpoint subsystem's correctness oracle: a chip
// restored from a post-warmup snapshot must be indistinguishable from the
// donor through the measurement window (lockstep), for every registered
// design, every hierarchy, and any domain count on either side of the
// snapshot.

// warmSnapshot builds a chip, warms it like the Runner does, snapshots
// it, and returns the donor (still runnable) plus the container bytes.
func warmSnapshot(t *testing.T, cfg Config, w workload.Workload, domains int, warmup sim.Cycle) (*chip.Chip, []byte) {
	t.Helper()
	c := chip.NewSharded(cfg, w, domains)
	c.PrewarmCaches()
	c.Warmup(warmup)
	var buf bytes.Buffer
	if err := c.Snapshot(&buf); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return c, buf.Bytes()
}

// restore restores snap into a chip of the given domain count.
func restore(t *testing.T, cfg Config, w workload.Workload, domains int, snap []byte) *chip.Chip {
	t.Helper()
	r, err := chip.Restore(cfg, w, domains, bytes.NewReader(snap))
	if err != nil {
		t.Fatalf("restore into %d domains: %v", domains, err)
	}
	return r
}

// verifyRestore holds chips restored from the donor's snapshot to the
// donor through window cycles (lockstep).
func verifyRestore(t *testing.T, donor *chip.Chip, snap []byte, cfg Config, w workload.Workload, window sim.Cycle) {
	t.Helper()
	lockstep(t, window, donor, func() *chip.Chip { return restore(t, cfg, w, 1, snap) })
}

// TestCheckpointDesignConformance: every registered design at 16 and 64
// cores — snapshot after warmup, restore, and demand bit-identity through
// the measurement window.
func TestCheckpointDesignConformance(t *testing.T) {
	w, err := workload.Parse("MapReduce-C")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Designs() {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			t.Parallel()
			for _, n := range []int{16, 64} {
				cfg := DefaultConfig(d)
				cfg.Cores = n
				donor, snap := warmSnapshot(t, cfg, w, 1, confQ.Warmup)
				verifyRestore(t, donor, snap, cfg, w, confQ.Window)
			}
		})
	}
}

// TestCheckpointHierarchyConformance: every registered memory hierarchy
// under the same snapshot/restore bit-identity contract.
func TestCheckpointHierarchyConformance(t *testing.T) {
	w, err := workload.Parse("Web Search")
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range Hierarchies() {
		h := h
		t.Run(h.String(), func(t *testing.T) {
			t.Parallel()
			for _, n := range []int{16, 64} {
				cfg := DefaultConfig(Mesh)
				cfg.Cores = n
				cfg.Hierarchy = h
				donor, snap := warmSnapshot(t, cfg, w, 1, confQ.Warmup)
				verifyRestore(t, donor, snap, cfg, w, confQ.Window)
			}
		})
	}
}

// TestCheckpointShardedConformance: checkpoints are domain-count-agnostic.
// A snapshot taken under one sim-parallelism setting restores under every
// other, on both a router-network design and NOC-Out: the donor and its
// restores agree at the snapshot cycle and after the window.
func TestCheckpointShardedConformance(t *testing.T) {
	w, err := workload.Parse("Data Serving")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []Design{Mesh, NOCOut} {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig(d)
			cfg.Cores = 16
			for _, snapDomains := range []int{1, 4} {
				donor, snap := warmSnapshot(t, cfg, w, snapDomains, confQ.Warmup)
				chips := []*chip.Chip{donor}
				for _, domains := range []int{1, 2, 4, 8} {
					chips = append(chips, restore(t, cfg, w, domains, snap))
				}
				at := fmt.Sprintf("snapshot in %d domains, restores in 1, 2, 4 and 8", snapDomains)
				agree(t, at+", at the snapshot", chips...)
				for _, c := range chips {
					c.Run(confQ.Window)
				}
				agree(t, at+", after the window", chips...)
			}
		})
	}
}

// TestCheckpointNOC3TraceConformance: a chip replaying a NOC3 streaming
// trace snapshots and restores mid-trace bit-identically — the (block,
// offset) stream cursors serialize, the restore seeks each core's block
// from its keyframe, and the window after the snapshot is
// cycle-for-cycle identical to the donor.
func TestCheckpointNOC3TraceConformance(t *testing.T) {
	cfg := DefaultConfig(Mesh)
	cfg.Cores = 16
	perCore := int(confQ.Warmup+confQ.Window) * 3
	src, err := workload.Parse("MapReduce-C")
	if err != nil {
		t.Fatal(err)
	}
	noc3 := filepath.Join(t.TempDir(), "mrc.noctrace")
	if err := workload.RecordFile(noc3, src, cfg.Cores, perCore, cfg.Seed); err != nil {
		t.Fatal(err)
	}
	w, err := workload.OpenTraceFile(noc3)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("noc3", func(t *testing.T) {
		donor, snap := warmSnapshot(t, cfg, w, 1, confQ.Warmup)
		verifyRestore(t, donor, snap, cfg, w, confQ.Window)
	})
}

// TestCheckpointOpenSystemConformance: the open-system request lifecycle
// (arrival RNG position, in-flight requests, queue) survives the
// snapshot boundary bit-identically. At low load the snapshot lands at an
// uneven cycle while most cores sleep until their next arrival, armed
// far ahead; the restored cores rebuild those arms from their streams.
// The poisson input is the kernel oracle's, at the conformance lengths:
// there a restored twin settles sleeping cores over stretches that a
// wrong multi-cycle catch-up gets wrong
// (testdata/mutants/replay-credit.patch).
func TestCheckpointOpenSystemConformance(t *testing.T) {
	for _, c := range []struct {
		name, spec     string
		designs        []Design
		warmup, window sim.Cycle
	}{
		{"mmpp", "opensys:arrival=mmpp,base=web-search,rate=4,size=256,queue=64",
			[]Design{Mesh}, confQ.Warmup, confQ.Window},
		{"poisson", "opensys:arrival=poisson,base=data-serving,rate=0.5",
			[]Design{Mesh}, confQ.Warmup, confQ.Window},
		{"low", "opensys:arrival=poisson,base=data-serving,rate=0.5",
			[]Design{Mesh, NOCOut}, 12345, 20000},
	} {
		w, err := workload.Parse(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range c.designs {
			t.Run(c.name+"/"+d.String(), func(t *testing.T) {
				cfg := DefaultConfig(d)
				cfg.Cores = 16
				donor, snap := warmSnapshot(t, cfg, w, 1, c.warmup)
				verifyRestore(t, donor, snap, cfg, w, c.window)
			})
		}
	}
}

// TestCheckpointRejectsMismatchedSystem: a snapshot only restores into the
// exact system it was taken on.
func TestCheckpointRejectsMismatchedSystem(t *testing.T) {
	w, err := workload.Parse("MapReduce-C")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(Mesh)
	cfg.Cores = 16
	_, snap := warmSnapshot(t, cfg, w, 1, 500)

	bad := cfg
	bad.Cores = 32
	if _, err := chip.Restore(bad, w, 1, bytes.NewReader(snap)); err == nil {
		t.Fatal("restore into a 32-core chip from a 16-core snapshot must fail")
	}
	bad = cfg
	bad.Seed++
	if _, err := chip.Restore(bad, w, 1, bytes.NewReader(snap)); err == nil {
		t.Fatal("restore under a different seed must fail")
	}
	bad = DefaultConfig(FBfly)
	bad.Cores = 16
	if _, err := chip.Restore(bad, w, 1, bytes.NewReader(snap)); err == nil {
		t.Fatal("restore into a different design must fail")
	}
}

// TestCheckpointRejectsLastSeenOffSnapshotCycle: a snapshot settles each
// core's and memory channel's lazy accounting at the snapshot cycle, so
// a lastSeen at any other cycle is corruption. Restored, its first
// catch-up would replay commits and stall cycles that never ran, or skip
// ones that did. The test edits core 0's and channel 0's lastSeen by one
// cycle either way, and each restore must fail naming the component.
func TestCheckpointRejectsLastSeenOffSnapshotCycle(t *testing.T) {
	w, err := workload.Parse("Data Serving")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(Mesh)
	cfg.Cores = 16
	donor, snap := warmSnapshot(t, cfg, w, 1, 2000)
	at := donor.NowCycle()
	cont, payloads := sections(t, snap)
	scratch := chip.New(cfg, w)
	// Section kinds 2 and 5 hold the cores and the memory channels; walking
	// the first component of each on a scratch chip finds where its walk
	// ends, and both walks end with lastSeen and one more uvarint.
	for _, c := range []struct {
		kind uint64
		name string
		walk func(*ckpt.State)
	}{
		{2, "core 0", func(s *ckpt.State) { scratch.Cores[0].State(s, at) }},
		{5, "memory channel 0", func(s *ckpt.State) { scratch.MCs[0].State(s, at) }},
	} {
		sec := -1
		for i := 0; i < cont.Len(); i++ {
			if cont.Kind(i) == c.kind {
				sec = i
			}
		}
		payload := payloads[sec]
		d := ckpt.NewDec(payload)
		c.walk(ckpt.Decoding(d))
		if d.Err() != nil {
			t.Fatalf("%s: %v", c.name, d.Err())
		}
		// The walk's last field starts after the last byte before its end
		// with the varint continuation bit clear.
		lastField := len(payload) - d.Remaining() - 1
		for lastField > 0 && payload[lastField-1]&0x80 != 0 {
			lastField--
		}
		want := binary.AppendVarint(nil, int64(at))
		off := lastField - len(want)
		if off < 0 || !bytes.Equal(payload[off:lastField], want) {
			t.Fatalf("%s: no lastSeen %d before the walk's last field", c.name, at)
		}
		for _, skew := range []sim.Cycle{-1, 1} {
			edited := binary.AppendVarint(append([]byte(nil), payload[:off]...), int64(at+skew))
			edited = append(edited, payload[lastField:]...)
			_, err := chip.Restore(cfg, w, 1, bytes.NewReader(reframe(cont, payloads, sec, edited)))
			if err == nil || !strings.Contains(err.Error(), c.name+" ") {
				t.Fatalf("%s at lastSeen %d of snapshot cycle %d: restore returned %v, want an error naming it",
					c.name, at+skew, at, err)
			}
		}
	}
}

// TestCheckpointTruncationRejected: every strict prefix of a valid
// container must fail to restore with an error, never a panic.
func TestCheckpointTruncationRejected(t *testing.T) {
	w, err := workload.Parse("MapReduce-C")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(Mesh)
	cfg.Cores = 16
	_, snap := warmSnapshot(t, cfg, w, 1, 500)

	for _, cut := range []int{0, 1, 4, len(snap) / 2, len(snap) - 1} {
		if _, err := chip.Restore(cfg, w, 1, bytes.NewReader(snap[:cut])); err == nil {
			t.Fatalf("truncation to %d bytes restored successfully", cut)
		}
	}
	// A flipped payload byte must be caught by the section CRC.
	corrupt := append([]byte(nil), snap...)
	corrupt[len(corrupt)/2] ^= 0x40
	if _, err := chip.Restore(cfg, w, 1, bytes.NewReader(corrupt)); err == nil {
		t.Fatal("corrupted snapshot restored successfully")
	}
}

// TestCheckpointCorruptPayload: a section whose payload is damaged but
// whose CRC is valid reaches the component decoders, which must reject
// it with an error or accept it, never panic. Each mutation re-frames
// one section of a warm snapshot with one byte replaced.
func TestCheckpointCorruptPayload(t *testing.T) {
	const perSection = 6
	for _, d := range []Design{Mesh, NOCOut, Ideal} {
		for _, spec := range []string{
			"MapReduce-C",
			"opensys:arrival=mmpp,base=web-search,rate=4,size=256,queue=64",
			"MapReduce-Phased",
		} {
			w, err := workload.Parse(spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(d)
			cfg.Cores = 16
			_, snap := warmSnapshot(t, cfg, w, 1, 2000)
			cont, payloads := sections(t, snap)
			rng := sim.NewRNG(uint64(len(snap)))
			accepted := 0
			for sec, p := range payloads {
				for m := 0; m < perSection && len(p) > 0; m++ {
					off := int(rng.Uint64() % uint64(len(p)))
					q := append([]byte(nil), p...)
					q[off] ^= byte(1 + rng.Uint64()%255)
					if restoreSurvives(t, cfg, w, reframe(cont, payloads, sec, q), sec, off) {
						accepted++
					}
				}
			}
			t.Logf("%v/%s: %d of %d mutations restored", d, spec, accepted, cont.Len()*perSection)
		}
	}
}

// sections parses a snapshot container and returns it with every
// section's payload.
func sections(t *testing.T, snap []byte) (*ckpt.Container, [][]byte) {
	t.Helper()
	cont, err := ckpt.Parse(snap)
	if err != nil {
		t.Fatal(err)
	}
	payloads := make([][]byte, cont.Len())
	for i := range payloads {
		dec, err := cont.Open(i)
		if err != nil {
			t.Fatal(err)
		}
		payloads[i] = dec.Raw(dec.Remaining())
	}
	return cont, payloads
}

// reframe writes cont's sections with payloads, section sec's replaced
// by edited, into a new container under valid CRCs.
func reframe(cont *ckpt.Container, payloads [][]byte, sec int, edited []byte) []byte {
	var buf bytes.Buffer
	cw := ckpt.NewWriter(&buf)
	for i, p := range payloads {
		if i == sec {
			p = edited
		}
		cw.Section(cont.Kind(i), p)
	}
	return buf.Bytes()
}

// restoreSurvives restores a mutated container, failing the test if the
// restore panics, and reports whether it returned a chip.
func restoreSurvives(t *testing.T, cfg Config, w workload.Workload, data []byte, sec, off int) (ok bool) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("section %d byte %d: restore panicked: %v", sec, off, r)
		}
	}()
	_, err := chip.Restore(cfg, w, 1, bytes.NewReader(data))
	return err == nil
}
