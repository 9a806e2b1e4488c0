package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"nocout"
	"nocout/internal/cas"
)

// EntryVersion is the cache-entry schema version ReadEntry accepts.
const EntryVersion = 1

// maxEntryBytes caps one cache entry's decode (a PointResult encodes to
// a few KB; the cap leaves room for large per-workload breakdowns).
const maxEntryBytes = 16 << 20

// Entry is one stored point result: the content key it is addressed by,
// the quality it was measured at (provenance — the key already encodes
// it), and the result itself, Err included for failed points.
type Entry struct {
	Version int                `json:"version"`
	Key     string             `json:"key"`
	Quality nocout.Quality     `json:"quality"`
	Result  nocout.PointResult `json:"result"`
}

// ValidKey reports whether s is a well-formed point key of the current
// schema: the KeyVersion prefix and 64 lowercase hex digits. Store and
// lease filenames derive from keys, so this is also the path-safety
// check.
func ValidKey(s string) bool {
	return cas.ValidKey(nocout.KeyVersion+"-", s)
}

// ReadEntry decodes and validates one cache entry, holding the
// no-unbounded-allocation contract on arbitrary input.
func ReadEntry(r io.Reader) (Entry, error) {
	data, err := io.ReadAll(io.LimitReader(r, maxEntryBytes+1))
	if err != nil {
		return Entry{}, err
	}
	if len(data) > maxEntryBytes {
		return Entry{}, fmt.Errorf("campaign: cache entry exceeds the %dMB cap", maxEntryBytes>>20)
	}
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil {
		return Entry{}, fmt.Errorf("campaign: decoding cache entry: %w", err)
	}
	if e.Version != EntryVersion {
		return Entry{}, fmt.Errorf("campaign: cache entry version %d, want %d", e.Version, EntryVersion)
	}
	if !ValidKey(e.Key) {
		return Entry{}, fmt.Errorf("campaign: cache entry carries an invalid key %.80q", e.Key)
	}
	return e, nil
}

// DirStore is the content-addressed result store a campaign appends
// completed points to: one JSON entry per point key in a flat directory,
// written atomically (temp file + rename). Puts are idempotent — points
// are deterministic, so concurrent writers of one key write identical
// content and any winner is correct.
type DirStore struct{ dir string }

// NewDirStore returns the directory-backed store rooted at dir.
func NewDirStore(dir string) *DirStore { return &DirStore{dir: dir} }

// path maps a key to its entry file; keys are ValidKey-shaped (hex), so
// the name is path-safe by construction.
func (s *DirStore) path(key string) string { return filepath.Join(s.dir, key+".json") }

// Get returns the stored result for key. A miss — including an
// unreadable or corrupt entry, which the next Put heals — is (zero,
// false, nil); errors are real I/O failures.
func (s *DirStore) Get(key string) (nocout.PointResult, bool, error) {
	if !ValidKey(key) {
		return nocout.PointResult{}, false, fmt.Errorf("campaign: invalid point key %.80q", key)
	}
	f, err := os.Open(s.path(key))
	if os.IsNotExist(err) {
		return nocout.PointResult{}, false, nil
	}
	if err != nil {
		return nocout.PointResult{}, false, err
	}
	defer f.Close()
	e, err := ReadEntry(f)
	if err != nil || e.Key != key {
		// Corrupt or misplaced entry: treat as a miss so the point is
		// recomputed and the next Put heals the file.
		return nocout.PointResult{}, false, nil
	}
	return e.Result, true, nil
}

// Put stores the result under key, atomically.
func (s *DirStore) Put(key string, pr nocout.PointResult, q nocout.Quality) error {
	if !ValidKey(key) {
		return fmt.Errorf("campaign: invalid point key %.80q", key)
	}
	data, err := json.MarshalIndent(Entry{Version: EntryVersion, Key: key, Quality: q, Result: pr}, "", "  ")
	if err != nil {
		return err
	}
	return cas.WriteFileAtomic(s.path(key), data)
}
