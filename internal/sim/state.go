package sim

import "nocout/internal/ckpt"

// This file is the kernel's side of the warm-state checkpoint subsystem:
// pipes, queues, RNGs, and the engines themselves capture and restore
// their private state. Two properties make restore exact:
//
//   - Pipe/Queue state is serialized as the consumer-visible sequence
//     (live entries in delivery order, then any cross-domain staged
//     entries in push order — exactly what the next CommitStaged would
//     publish), so a restored chip may run under any domain count.
//   - RestoreAt re-arms every registered component for the cycle after
//     the snapshot instead of trying to reconstruct the wake calendar.
//     A spurious tick is identity-preserving by the naive-kernel
//     conformance contract ("ticking every cycle is always safe"), and
//     each component's first NextWake report rebuilds the calendar from
//     its restored inputs.

// Each calls fn for every in-flight entry in consumer-visible order:
// the live queue in delivery order, then staged entries in push order.
// The pipe is not disturbed.
func (p *Pipe[T]) Each(fn func(at Cycle, v T)) {
	for i := p.head; i < len(p.q); i++ {
		fn(p.q[i].at, p.q[i].v)
	}
	for i := range p.staged {
		fn(p.staged[i].at, p.staged[i].v)
	}
}

// InFlight returns the total entry count Each will visit.
func (p *Pipe[T]) InFlight() int { return p.Len() + len(p.staged) }

// SaveState serializes the pipe's in-flight entries; put encodes one
// value. Delivery cycles are delta-encoded from the predecessor (FIFO
// pipes deliver in near-sorted cycle order).
func (p *Pipe[T]) SaveState(e *ckpt.Enc, put func(e *ckpt.Enc, v T)) {
	e.U64(uint64(p.InFlight()))
	prev := Cycle(0)
	p.Each(func(at Cycle, v T) {
		e.I64(int64(at - prev))
		prev = at
		put(e, v)
	})
}

// LoadState replaces the pipe's contents with the serialized entries.
// No wakes are raised — Engine.RestoreAt re-arms consumers wholesale.
// The pipe's wiring (name, delay, waker, staging mode) is untouched.
func (p *Pipe[T]) LoadState(d *ckpt.Dec, get func(d *ckpt.Dec) T) {
	n := d.Count()
	p.q = p.q[:0]
	p.head = 0
	p.staged = p.staged[:0]
	prev := Cycle(0)
	for i := 0; i < n && d.Err() == nil; i++ {
		prev += Cycle(d.I64())
		p.q = append(p.q, pipeEntry[T]{at: prev, v: get(d)})
	}
}

// Each calls fn for every queued value in FIFO order without disturbing
// the queue.
func (q *Queue[T]) Each(fn func(v T)) {
	for i := q.head; i < len(q.q); i++ {
		fn(q.q[i])
	}
}

// SaveState serializes the queue's contents; put encodes one value.
func (q *Queue[T]) SaveState(e *ckpt.Enc, put func(e *ckpt.Enc, v T)) {
	e.U64(uint64(q.Len()))
	q.Each(func(v T) { put(e, v) })
}

// LoadState replaces the queue's contents with the serialized values.
func (q *Queue[T]) LoadState(d *ckpt.Dec, get func(d *ckpt.Dec) T) {
	n := d.Count()
	q.q = q.q[:0]
	q.head = 0
	for i := 0; i < n && d.Err() == nil; i++ {
		q.q = append(q.q, get(d))
	}
}

// State returns the RNG's position in its sequence.
func (r *RNG) State() uint64 { return r.state }

// SetState repositions the generator. The zero guard mirrors NewRNG
// (xorshift's all-zero fixed point), though a live generator can never
// reach state zero.
func (r *RNG) SetState(s uint64) {
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	r.state = s
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
