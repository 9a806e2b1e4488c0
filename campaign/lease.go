package campaign

import (
	"time"

	"nocout"
	"nocout/internal/cas"
)

// Leaser partitions a campaign's points across worker processes with
// per-key claim files in a shared directory, delegating to the shared
// cas lease protocol (exclusive hard-linked claims, rename-arbitrated steal of
// expired claims). Leasing is purely an anti-duplication optimization:
// points are deterministic and the store is idempotent, so the worst
// case of any race is two workers computing the same point and storing
// identical results.
type Leaser struct {
	// Dir is the shared lease directory (the campaign's leases/).
	Dir string
	// Owner identifies this worker in claim files; it must be unique
	// among cooperating workers (DefaultOwner is hostname-pid).
	Owner string
	// TTL is how long a claim lives before any worker may steal it from
	// a (presumed crashed) owner.
	TTL time.Duration
}

// DefaultTTL is the claim lifetime when Leaser.TTL is zero: long enough
// for any Full-quality point, short enough that a crashed worker's
// points are reclaimed within a coffee break.
const DefaultTTL = cas.DefaultTTL

// DefaultOwner returns this process's default lease identity.
func DefaultOwner() string { return cas.DefaultOwner() }

// Acquire claims key for this worker. ok=false means another worker
// holds a live claim (or won a racing steal); release removes the claim
// and must be called once the point's result is stored.
func (l *Leaser) Acquire(key string) (release func(), ok bool, err error) {
	cl := cas.Leaser{Dir: l.Dir, Owner: l.Owner, TTL: l.TTL, KeyPrefix: nocout.KeyVersion + "-"}
	return cl.Acquire(key)
}
