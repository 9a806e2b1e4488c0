package sim

import "nocout/internal/ckpt"

// This file is the kernel's side of the warm-state checkpoint subsystem:
// pipes, queues, RNGs, and the engines themselves capture and restore
// their private state. Two properties make restore exact:
//
//   - Pipe/Queue state is serialized as the consumer-visible sequence
//     (entries in delivery order), so a restored chip may run under any
//     domain count.
//   - RestoreAt re-arms every registered component for the cycle after
//     the snapshot instead of trying to reconstruct the wake calendar.
//     A spurious tick is identity-preserving by the naive-kernel
//     conformance contract ("ticking every cycle is always safe"), and
//     each component's first NextWake report rebuilds the calendar from
//     its restored inputs.

// Each calls fn for every in-flight entry in delivery order. The pipe is
// not disturbed.
func (p *Pipe[T]) Each(fn func(at Cycle, v T)) {
	for i := p.head; i < len(p.q); i++ {
		fn(p.q[i].at, p.q[i].v)
	}
}

// State walks the pipe's in-flight entries in delivery order; walk walks
// one value. Delivery cycles are delta-encoded from the predecessor (FIFO
// pipes deliver in near-sorted cycle order). Loading replaces the
// contents and raises no wakes — Engine.RestoreAt re-arms consumers
// wholesale — and leaves the wiring (delay, waker) untouched.
func (p *Pipe[T]) State(s *ckpt.State, walk func(v *T, s *ckpt.State)) {
	n := s.Count(p.Len())
	if s.Loading() {
		p.q, p.head = p.q[:0], 0
	}
	prev := Cycle(0)
	for i := 0; i < n && s.Err() == nil; i++ {
		if s.Loading() {
			p.q = append(p.q, pipeEntry[T]{})
		}
		en := &p.q[p.head+i]
		ckpt.Delta(s, &en.at, &prev)
		walk(&en.v, s)
	}
}

// Each calls fn for every queued value in FIFO order without disturbing
// the queue.
func (q *Queue[T]) Each(fn func(v T)) {
	for i := q.head; i < len(q.q); i++ {
		fn(q.q[i])
	}
}

// State walks the queue's contents in FIFO order; walk walks one value.
// Loading replaces the contents.
func (q *Queue[T]) State(s *ckpt.State, walk func(v *T, s *ckpt.State)) {
	n := s.Count(q.Len())
	if s.Loading() {
		q.q, q.head = q.q[:0], 0
	}
	for i := 0; i < n && s.Err() == nil; i++ {
		if s.Loading() {
			var zero T
			q.q = append(q.q, zero)
		}
		walk(&q.q[q.head+i], s)
	}
}

// State walks the RNG's position in its sequence. The zero guard mirrors
// NewRNG (xorshift's all-zero fixed point), though a live generator can
// never reach state zero.
func (r *RNG) State(s *ckpt.State) {
	s.U64(&r.state)
	if r.state == 0 {
		r.state = 0x9E3779B97F4A7C15
	}
}

// RestoreAt moves the engine's clock to the snapshot cycle and re-arms
// every registered component for the following cycle, mirroring the
// SetScheduled re-arm: each component's own NextWake report after its
// first (possibly spurious, always identity-preserving) tick rebuilds
// the wake calendar from its restored inputs. Components must be fully
// loaded before the call only in the sense that subsequent Steps see
// their restored state; the arming itself reads nothing from them.
func (e *Engine) RestoreAt(at Cycle) {
	e.now = at
	e.rearmAll()
}

// RestoreAt moves the coordinator and every domain engine to the
// snapshot cycle. Must only be called between Steps.
func (s *Sharded) RestoreAt(at Cycle) {
	s.now = at
	for _, e := range s.doms {
		e.RestoreAt(at)
	}
}
