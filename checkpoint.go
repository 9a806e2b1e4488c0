package nocout

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"nocout/internal/cas"
	"nocout/internal/chip"
	"nocout/internal/sim"
	"nocout/internal/workload"
)

// This file is the warm-state checkpoint cache: sweep points that share a
// measurement prefix — the same system, seed, workload, and warmup length
// — run warmup once, snapshot the chip (chip.Snapshot), and every other
// point of the group restores instead of re-warming. The store is
// content-addressed by PrefixKey with the same golden-pinned key
// discipline as Point.Key, and reuses the campaign cache mechanics
// (atomic writes, cross-process leases, internal/cas) so concurrent
// workers race to produce each prefix exactly once.
//
// Restores are exact, not approximate: a restored chip is cycle-for-cycle
// bit-identical to the donor (the checkpoint conformance suite enforces
// StateHash equality), so a checkpointed sweep's Report is byte-identical
// to the same sweep without checkpoints. That exactness dictates what the
// key covers: anything exercised during warmup — including an open-system
// workload's offered load, whose arrivals drive the cores while they warm
// — is part of the prefix, while pure measurement knobs (the window
// length, the seed *count*, sim-parallelism) are not. Points differing
// only in those knobs share one warm state.

// CheckpointKeyVersion prefixes every PrefixKey; it names the key schema
// and bumps whenever the hashed content, the canonicalization, or the
// checkpoint container semantics change, so stale warm state can never
// alias fresh state.
const CheckpointKeyVersion = "ck1"

// seedStride is the per-seed offset runSeeds derives seed s's
// configuration from: base + s*seedStride.
const seedStride = 7919

// checkpointKey is the canonical content hash of a measurement prefix:
// the fully resolved Config (with the per-seed derived seed already
// applied), the workload's behavioral fingerprint, and the warmup length.
// Everything that shapes the chip's state at the measurement boundary is
// covered; nothing that only shapes the measurement phase is.
func checkpointKey(cfg Config, w workload.Workload, warmup sim.Cycle) (string, error) {
	fp, err := workload.Fingerprint(w)
	if err != nil {
		return "", fmt.Errorf("nocout: checkpoint key: %w", err)
	}
	cj, err := canonicalJSON(cfg)
	if err != nil {
		return "", fmt.Errorf("nocout: checkpoint key: %w", err)
	}
	wj, err := canonicalJSON(warmup)
	if err != nil {
		return "", fmt.Errorf("nocout: checkpoint key: %w", err)
	}
	return contentKey(CheckpointKeyVersion, cj, fp, wj), nil
}

// PrefixKey returns the canonical identity of the warm state seed index
// seedIdx of this point starts measuring from: "ck1-" plus 64 hex digits,
// covering the resolved Config (with the derived seed), the workload
// fingerprint, and q.Warmup. The measurement window, the seed count, and
// sim-parallelism are deliberately outside the key — points differing
// only there share a checkpoint — while anything the warmup executes
// (offered load included) is inside it. Like Point.Key, it errors when
// the point's workload cannot be resolved in this process.
func (p Point) PrefixKey(q Quality, seedIdx int) (string, error) {
	w, release, err := p.resolveWorkload()
	if err != nil {
		return "", err
	}
	defer release()
	cfg := p.Config
	cfg.Seed += uint64(seedIdx) * seedStride
	return checkpointKey(cfg, w, q.Warmup)
}

// CheckpointStore is the directory-backed warm-state cache: one
// chip.Snapshot container per prefix key, written atomically, plus a
// leases/ subdirectory for cross-process claim files. Safe for concurrent
// use; an in-process per-key lock makes each prefix warm exactly once per
// process, and the lease protocol extends that to cooperating processes.
type CheckpointStore struct {
	dir    string
	leaser cas.Leaser

	// Recompute ignores existing entries — each prefix re-warms and
	// overwrites its checkpoint. Set before use (the -recompute-checkpoints
	// override policy, for entries produced by a code revision under
	// suspicion).
	Recompute bool

	mu    sync.Mutex
	locks map[string]*sync.Mutex

	hits, misses, unkeyed int64 // under mu; see Stats
}

// NewCheckpointStore opens (creating if needed) the checkpoint cache
// rooted at dir.
func NewCheckpointStore(dir string) (*CheckpointStore, error) {
	if err := os.MkdirAll(filepath.Join(dir, "leases"), 0o755); err != nil {
		return nil, fmt.Errorf("nocout: checkpoint store: %w", err)
	}
	return &CheckpointStore{
		dir: dir,
		leaser: cas.Leaser{
			Dir:       filepath.Join(dir, "leases"),
			Owner:     cas.DefaultOwner(),
			KeyPrefix: CheckpointKeyVersion + "-",
		},
		locks: map[string]*sync.Mutex{},
	}, nil
}

// Stats returns the store's traffic so far: prefixes restored from cache,
// prefixes warmed (and stored) by this process, and runs that bypassed
// the cache because their workload has no stable fingerprint.
func (s *CheckpointStore) Stats() (hits, misses, unkeyed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses, s.unkeyed
}

func (s *CheckpointStore) path(key string) string { return filepath.Join(s.dir, key+".nock") }

func (s *CheckpointStore) keyLock(key string) *sync.Mutex {
	s.mu.Lock()
	defer s.mu.Unlock()
	lk := s.locks[key]
	if lk == nil {
		lk = &sync.Mutex{}
		s.locks[key] = lk
	}
	return lk
}

func (s *CheckpointStore) count(c *int64) {
	s.mu.Lock()
	*c++
	s.mu.Unlock()
}

// chipFor returns a chip at the measurement boundary for (cfg, w) under
// domains-way sim-parallelism: restored from the cache when the prefix is
// stored, otherwise warmed the ordinary way (PrewarmCaches + Warmup) and
// snapshotted into the cache for every later point of the group. All
// cache failures degrade to the ordinary path — a checkpointed run never
// fails for cache reasons, it just re-warms.
func (s *CheckpointStore) chipFor(cfg Config, w workload.Workload, domains int, warmup sim.Cycle) *chip.Chip {
	key, err := checkpointKey(cfg, w, warmup)
	if err != nil {
		// No stable fingerprint (an unregistered user workload): warm
		// without caching.
		s.count(&s.unkeyed)
		return warmChip(cfg, w, domains, warmup)
	}
	lk := s.keyLock(key)
	lk.Lock()
	defer lk.Unlock()

	if !s.Recompute {
		if c := s.tryRestore(key, cfg, w, domains); c != nil {
			s.count(&s.hits)
			return c
		}
	}
	s.count(&s.misses)

	// Produce the prefix. The lease makes cross-process production
	// single-writer in the common case; losing the race just means this
	// process warms locally (and skips the store — the winner's entry is
	// identical) while the winner publishes.
	release, ok, lerr := s.leaser.Acquire(key)
	if lerr == nil && !ok && !s.Recompute {
		// Another process is warming this prefix right now: give its
		// entry a moment to land before burning the cycles locally.
		if c := s.awaitEntry(key, cfg, w, domains); c != nil {
			s.mu.Lock()
			s.misses--
			s.hits++
			s.mu.Unlock()
			return c
		}
	}
	c := warmChip(cfg, w, domains, warmup)
	if lerr == nil && ok {
		// Best-effort: an unwritable cache degrades to plain warmup. The
		// snapshot streams into the temp file, which replaces the entry
		// only when the whole container is written.
		_ = cas.WriteFileFunc(s.path(key), func(f *os.File) error { return c.Snapshot(f) })
		release()
	}
	return c
}

// tryRestore restores key into a fresh chip; any failure — missing,
// truncated, corrupt, or mismatched entry — is a miss (the subsequent
// store self-heals the file). The restore reads the file once.
func (s *CheckpointStore) tryRestore(key string, cfg Config, w workload.Workload, domains int) *chip.Chip {
	f, err := os.Open(s.path(key))
	if err != nil {
		return nil
	}
	defer f.Close()
	c, err := chip.Restore(cfg, w, domains, f)
	if err != nil {
		return nil
	}
	return c
}

// awaitEntry polls briefly for a prefix another process holds the lease
// on. Bounded well under the lease TTL: if the producer is slow, warming
// locally is always correct.
func (s *CheckpointStore) awaitEntry(key string, cfg Config, w workload.Workload, domains int) *chip.Chip {
	const (
		wait = 10 * time.Second
		poll = 100 * time.Millisecond
	)
	for deadline := time.Now().Add(wait); time.Now().Before(deadline); time.Sleep(poll) {
		if c := s.tryRestore(key, cfg, w, domains); c != nil {
			return c
		}
	}
	return nil
}

// warmChip is the ordinary warm-state construction every measurement uses
// when no checkpoint is available: build, prewarm, warm up.
func warmChip(cfg Config, w workload.Workload, domains int, warmup sim.Cycle) *chip.Chip {
	c := chip.NewSharded(cfg, w, domains)
	c.PrewarmCaches()
	c.Warmup(warmup)
	return c
}

// CheckpointInfo describes one stored checkpoint, for listings.
type CheckpointInfo struct {
	Key   string    `json:"key"`
	Bytes int64     `json:"bytes"`
	Info  chip.Info `json:"info"`
}

// List returns the store's checkpoints in key order, each with its
// decoded container metadata. Non-checkpoint files are skipped; an entry
// that no longer parses is reported with a zero Info rather than hidden,
// so a corrupt cache is visible to `nocout -list-checkpoints`.
func (s *CheckpointStore) List() ([]CheckpointInfo, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var out []CheckpointInfo
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".nock") {
			continue
		}
		key := strings.TrimSuffix(name, ".nock")
		if !cas.ValidKey(CheckpointKeyVersion+"-", key) {
			continue
		}
		fi, err := ent.Info()
		if err != nil {
			return nil, err
		}
		ci := CheckpointInfo{Key: key, Bytes: fi.Size()}
		if f, err := os.Open(filepath.Join(s.dir, name)); err == nil {
			if info, ierr := chip.Inspect(f); ierr == nil {
				ci.Info = info
			}
			f.Close()
		}
		out = append(out, ci)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}
