// Package cas holds the content-addressed-store mechanics shared by the
// campaign result cache and the warm-state checkpoint cache: hex key
// validation, atomic file writes, and the cross-process lease protocol.
// Keys are "<schema-prefix>" + 64 lowercase hex digits (a SHA-256), so a
// valid key is path-safe by construction; each consumer supplies its own
// schema prefix ("pt1-" point results, "ck1-" checkpoint prefixes) and
// the stores can never alias each other's entries.
package cas

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// ValidKey reports whether s is prefix followed by exactly 64 lowercase
// hex digits. Store and lease filenames derive from keys, so this is
// also the path-safety check.
func ValidKey(prefix, s string) bool {
	if len(s) != len(prefix)+64 || s[:len(prefix)] != prefix {
		return false
	}
	for _, c := range s[len(prefix):] {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// WriteFileAtomic writes data to path via a same-directory temp file and
// rename, so readers never observe a partial entry and concurrent
// writers of identical content are safe.
func WriteFileAtomic(path string, data []byte) error {
	return WriteFileFunc(path, func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
}

// WriteFileFunc is WriteFileAtomic for content streamed by fill into the
// temp file: path is replaced only when fill and the close both succeed,
// so a failed write leaves an existing file untouched and creates none.
func WriteFileFunc(path string, fill func(*os.File) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	werr := fill(tmp)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Leaser partitions content-addressed work across worker processes with
// per-key claim files in a shared directory. The two primitives are both
// atomic on a local filesystem:
//
//   - acquire: hard link of a complete temp claim — exactly one process
//     creates the claim, and no process ever sees it half-written;
//   - steal:   rename of an expired claim — exactly one process wins the
//     rename, removes the stale file, and retries the exclusive create.
//
// A claim expires TTL after acquisition (there is no heartbeat — set TTL
// comfortably above the longest single unit of work). Leasing is purely
// an anti-duplication optimization: the protected work is deterministic
// and the store is idempotent, so the worst case of any race is two
// workers computing the same entry and storing identical results.
type Leaser struct {
	// Dir is the shared lease directory.
	Dir string
	// Owner identifies this worker in claim files; it must be unique
	// among cooperating workers (DefaultOwner is hostname-pid).
	Owner string
	// TTL is how long a claim lives before any worker may steal it from
	// a (presumed crashed) owner.
	TTL time.Duration
	// KeyPrefix is the key schema Acquire validates against.
	KeyPrefix string
}

// DefaultTTL is the claim lifetime when Leaser.TTL is zero: long enough
// for any single unit of work, short enough that a crashed worker's
// claims are reclaimed within a coffee break.
const DefaultTTL = 10 * time.Minute

// DefaultOwner returns this process's default lease identity.
func DefaultOwner() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "worker"
	}
	return host + "-" + strconv.Itoa(os.Getpid())
}

// claim is the JSON body of a lease file.
type claim struct {
	Owner   string `json:"owner"`
	Expires int64  `json:"expires_unix_nano"`
}

// Acquire claims key for this worker. ok=false means another worker
// holds a live claim (or won a racing steal); release removes the claim
// and must be called once the key's result is stored.
func (l *Leaser) Acquire(key string) (release func(), ok bool, err error) {
	if !ValidKey(l.KeyPrefix, key) {
		return nil, false, fmt.Errorf("cas: invalid key %.80q", key)
	}
	ttl := l.TTL
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	path := filepath.Join(l.Dir, key+".lease")
	body, err := json.Marshal(claim{Owner: l.Owner, Expires: time.Now().Add(ttl).UnixNano()})
	if err != nil {
		return nil, false, err
	}
	// Two attempts: the first may find an expired claim and steal it;
	// the second then races the exclusive create. Losing both means
	// another live worker owns the key this pass.
	for attempt := 0; attempt < 2; attempt++ {
		err := createExclusive(path, body)
		if err == nil {
			return func() { l.release(path) }, true, nil
		}
		if !os.IsExist(err) {
			return nil, false, err
		}
		body, rerr := os.ReadFile(path)
		if rerr != nil {
			if os.IsNotExist(rerr) {
				continue // released between create and read; retry create
			}
			return nil, false, rerr
		}
		var cl claim
		if json.Unmarshal(body, &cl) == nil && time.Now().UnixNano() < cl.Expires {
			return nil, false, nil // live claim held elsewhere
		}
		// Expired (or corrupt) claim: steal it. Rename is the arbiter —
		// one stealer wins, everyone else sees ENOENT and falls back to
		// racing the fresh exclusive create.
		stale := path + ".stale." + l.Owner + "." + strconv.FormatInt(time.Now().UnixNano(), 36)
		if rerr := os.Rename(path, stale); rerr != nil {
			if os.IsNotExist(rerr) {
				continue
			}
			return nil, false, rerr
		}
		os.Remove(stale)
	}
	return nil, false, nil
}

// createExclusive creates path holding body, failing with an fs.ErrExist
// error if path already exists. The body is written to a temp file first
// and hard-linked into place, so the claim appears complete: a racer
// never reads a half-written claim, mistakes it for a corrupt one, and
// steals it from its live owner.
func createExclusive(path string, body []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".claim-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	_, werr := tmp.Write(body)
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	return os.Link(tmp.Name(), path)
}

// release removes our claim, if it is still ours: an expired claim may
// have been stolen and re-issued to another worker, whose file must
// survive. Best-effort — expiry is the backstop for anything missed.
func (l *Leaser) release(path string) {
	body, err := os.ReadFile(path)
	if err != nil {
		return
	}
	var cl claim
	if json.Unmarshal(body, &cl) == nil && cl.Owner == l.Owner {
		os.Remove(path)
	}
}
