package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the conservative parallel kernel: a chip partitioned
// into domains, each owning a private Engine, stepping concurrently on one
// goroutine per domain.
//
// # The horizon rule
//
// Domains exchange values only through staged cross-domain channels
// (CrossStage): the producer's writes are held aside and reach the
// consumer no sooner than the plan's lookahead L after they are made.
// Execution proceeds in rounds:
//
//  1. Commit: each domain commits its incoming stages (in a fixed
//     per-domain order) into the consumer-visible state, arming local
//     consumers.
//  2. Each domain publishes its next armed cycle N_d; a barrier waits for
//     all of them. The last arriver computes minN = min over domains and
//     the window end W = min(target, minN+L-1) (W = target when nothing is
//     armed before it).
//  3. Each domain runs its engine to W independently. Any write a domain
//     stages happens during a tick, and ticks only occur at armed cycles
//     u >= N_d >= minN, so a cross-domain value's delivery cycle is
//     u + delay >= minN + L > W: nothing staged during the window can be
//     consumable inside it. A second barrier ends the round.
//
// Both barriers transfer no data beyond the published horizons; the window
// W is a pure function of the N_d values, which are themselves pure
// functions of simulation state. Results are therefore bit-identical for
// any goroutine interleaving and — because staged commits replay writes
// in the order they were made — bit-identical to the single-goroutine
// scheduled kernel.
//
// Idle-heavy phases get windows as wide as the distance to the next armed
// cycle; saturated phases degrade to lookahead-sized windows, where the
// barrier cost is amortized by the per-cycle simulation work.

// CrossStage is the type-erased handle of one direction of a staged
// cross-domain link: CommitStaged, called only from the consuming
// domain's goroutine between windows, delivers what the producing domain
// staged during the last window. The coordinator only ever commits them.
type CrossStage interface {
	CommitStaged()
}

// maxLookahead caps the lookahead so window arithmetic cannot overflow;
// any value this large means "the domains are independent".
const maxLookahead Cycle = 1 << 40

// Sharded steps a set of domain engines under the conservative horizon
// protocol. All engines must start at the same cycle (0 for a freshly
// built chip) and every link direction crossing a domain boundary must be
// staged and listed in the consuming domain's in-edge list.
type Sharded struct {
	doms []*Engine
	in   [][]CrossStage // per consumer domain, fixed commit order
	look Cycle          // min delay over all staged link directions, >= 1
	now  Cycle

	bar       *barrier
	nextA     []Cycle
	windowEnd Cycle
}

// NewSharded returns a coordinator over two or more domain engines (a
// single domain is just its Engine). inEdges[d] lists the stages
// consumed by domain d; lookahead is the minimum delay over all of them
// (clamped to at least 1).
func NewSharded(doms []*Engine, inEdges [][]CrossStage, lookahead Cycle) *Sharded {
	if len(doms) < 2 {
		panic("sim: NewSharded needs at least two domains")
	}
	if len(inEdges) != len(doms) {
		panic("sim: NewSharded in-edge lists must match domains")
	}
	if lookahead < 1 {
		lookahead = 1
	}
	if lookahead > maxLookahead {
		lookahead = maxLookahead
	}
	return &Sharded{
		doms:  doms,
		in:    inEdges,
		look:  lookahead,
		bar:   newBarrier(len(doms)),
		nextA: make([]Cycle, len(doms)),
	}
}

// Domains returns the number of domains.
func (s *Sharded) Domains() int { return len(s.doms) }

// Now returns the current cycle; all domains agree on it between Steps.
func (s *Sharded) Now() Cycle { return s.now }

// Lookahead returns the synchronization lookahead in cycles.
func (s *Sharded) Lookahead() Cycle { return s.look }

// Flush brings every domain's lazily-accounted components up to date. It
// must only be called between Steps (no workers are running then).
func (s *Sharded) Flush() {
	for _, e := range s.doms {
		e.Flush()
	}
}

// Step advances every domain by n cycles under the horizon protocol; n <= 0
// is a no-op, as for Engine.Step. Entries still staged when the target is
// reached stay staged — their delivery cycles are beyond the target — and
// are committed by the first round of the next Step.
func (s *Sharded) Step(n Cycle) {
	if n <= 0 {
		return
	}
	target := s.now + n
	var wg sync.WaitGroup
	for d := range s.doms {
		wg.Add(1)
		go s.runDomain(d, target, &wg)
	}
	wg.Wait()
	s.now = target
}

// window computes the round's window end from the published horizons.
// Called by exactly one goroutine per round (the barrier's last arriver).
func (s *Sharded) window(target Cycle, minN Cycle) Cycle {
	if minN >= target {
		return target
	}
	if w := minN + s.look - 1; w < target {
		return w
	}
	return target
}

// runDomain is one domain's worker loop for a single Step call.
func (s *Sharded) runDomain(d int, target Cycle, wg *sync.WaitGroup) {
	defer wg.Done()
	e := s.doms[d]
	for {
		for _, cp := range s.in[d] {
			cp.CommitStaged()
		}
		na, ok := e.NextArmed()
		if !ok {
			na = NeverWake
		}
		s.nextA[d] = na
		s.bar.await(func() {
			minN := s.nextA[0]
			for _, v := range s.nextA[1:] {
				if v < minN {
					minN = v
				}
			}
			s.windowEnd = s.window(target, minN)
		})
		w := s.windowEnd
		e.Step(w - e.Now())
		s.bar.await(nil)
		if w == target {
			return
		}
	}
}

// barrier is a reusable sense-reversing barrier for the domain workers. It
// spins briefly (only when the runtime has more than one scheduling
// processor) before parking on a condition variable, so saturated rounds
// synchronize in nanoseconds while idle machines do not burn a core.
// Publication happens through the atomic generation counter: writes made
// before await are visible to every worker after it.
type barrier struct {
	n       int32
	spins   int
	arrived atomic.Int32
	gen     atomic.Uint32
	mu      sync.Mutex
	cond    *sync.Cond
}

func newBarrier(n int) *barrier {
	b := &barrier{n: int32(n)}
	b.cond = sync.NewCond(&b.mu)
	if runtime.GOMAXPROCS(0) > 1 {
		b.spins = 4096
	}
	return b
}

// await blocks until all n workers have arrived. The last arriver runs
// last (when non-nil) before releasing the others; it is the only place a
// round computes shared decisions, so they are made exactly once.
func (b *barrier) await(last func()) {
	gen := b.gen.Load()
	if b.arrived.Add(1) == b.n {
		if last != nil {
			last()
		}
		b.arrived.Store(0)
		b.mu.Lock()
		b.gen.Add(1)
		b.mu.Unlock()
		b.cond.Broadcast()
		return
	}
	for i := 0; i < b.spins; i++ {
		if b.gen.Load() != gen {
			return
		}
		if i&255 == 255 {
			runtime.Gosched()
		}
	}
	b.mu.Lock()
	for b.gen.Load() == gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}
