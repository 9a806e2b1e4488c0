package sim

// Pipe is a latched delay line carrying values of type T between two
// components. A value pushed at cycle t with delay d becomes visible to Pop
// at cycle t+d (d >= 1 preserves the determinism rules in the package doc).
//
// Pipe has unbounded capacity: back-pressure belongs to the protocol built
// on top (credits), not the wire.
//
// A pipe is a wake source: when its consumer's Waker is attached with
// SetWaker, every push re-arms the consumer for the delivery cycle, so a
// sleeping consumer can never miss a value.
//
// Storage is a head-indexed slice: Pop advances a head cursor in O(1) and
// the buffer compacts (or resets) once the dead prefix dominates, replacing
// the former O(n) copy-shift per Pop.
type Pipe[T any] struct {
	delay Cycle
	q     []pipeEntry[T]
	head  int
	waker Waker
}

type pipeEntry[T any] struct {
	at Cycle
	v  T
}

// compactMin is the dead-prefix length below which Pop never compacts;
// beyond it, compaction triggers once the prefix is at least half the
// buffer, keeping amortized cost O(1) per element.
const compactMin = 32

// compactPrefix reclaims the dead prefix [0:head) of a head-indexed FIFO
// buffer: a drained buffer resets in place, a dominating prefix is copied
// down (released slots zeroed for GC), and anything else is left alone.
// It returns the adjusted slice and head.
func compactPrefix[E any](q []E, head int) ([]E, int) {
	if head == len(q) {
		return q[:0], 0
	}
	if head >= compactMin && head*2 >= len(q) {
		var zero E
		n := copy(q, q[head:])
		for i := n; i < len(q); i++ {
			q[i] = zero
		}
		return q[:n], 0
	}
	return q, head
}

// NewPipe returns a pipe with the given fixed delay in cycles. Delay must be
// at least 1; a zero-delay wire would break tick-order independence, and
// the panic that says so names the pipe.
func NewPipe[T any](name string, delay Cycle) *Pipe[T] {
	if delay < 1 {
		panic("sim: pipe delay must be >= 1 cycle: " + name)
	}
	return &Pipe[T]{delay: delay}
}

// SetWaker registers the consumer's wake handle; every subsequent push
// re-arms the consumer for the pushed value's delivery cycle.
func (p *Pipe[T]) SetWaker(w Waker) { p.waker = w }

// Push inserts v at cycle now; it becomes poppable at now+delay.
func (p *Pipe[T]) Push(now Cycle, v T) {
	at := now + p.delay
	p.q = append(p.q, pipeEntry[T]{at: at, v: v})
	if p.waker != nil {
		p.waker.Wake(at)
	}
}

// Pop removes and returns the oldest value whose delivery time has arrived.
// The second result is false when nothing is deliverable at cycle now.
// The delay is fixed, so values are delivered strictly in push order.
func (p *Pipe[T]) Pop(now Cycle) (T, bool) {
	var zero T
	if p.head == len(p.q) || p.q[p.head].at > now {
		return zero, false
	}
	v := p.q[p.head].v
	p.q[p.head] = pipeEntry[T]{} // release the value for GC
	p.head++
	p.q, p.head = compactPrefix(p.q, p.head)
	return v, true
}

// NextAt returns the delivery cycle of the oldest in-flight value (the
// earliest cycle at which Pop can succeed, since delivery is strictly
// FIFO). ok is false when the pipe is empty. Sleepers use it to account
// for in-flight input in their NextWake report.
func (p *Pipe[T]) NextAt() (Cycle, bool) {
	if p.head == len(p.q) {
		return 0, false
	}
	return p.q[p.head].at, true
}

// Len returns the number of values in flight.
func (p *Pipe[T]) Len() int { return len(p.q) - p.head }

// Queue is an unbounded FIFO with same-cycle visibility. It is safe to use
// between components only when the producer always ticks before the
// consumer, or when the consumer drains it at the start of its Tick and the
// producer pushes during its own Tick (classic mailbox pattern).
//
// Like Pipe, a Queue is a wake source once SetWaker attaches its consumer:
// every push re-arms the consumer as soon as the naive kernel would have
// let it see the value (this cycle if its turn has not passed, else next).
type Queue[T any] struct {
	q     []T
	head  int
	waker Waker
}

// SetWaker registers the consumer's wake handle.
func (q *Queue[T]) SetWaker(w Waker) { q.waker = w }

// Push appends v and re-arms the consumer.
func (q *Queue[T]) Push(v T) {
	q.q = append(q.q, v)
	if q.waker != nil {
		q.waker.Wake(0) // "as soon as consistent": clamped by the engine
	}
}

// Pop removes and returns the head.
func (q *Queue[T]) Pop() (T, bool) {
	var zero T
	if q.head == len(q.q) {
		return zero, false
	}
	v := q.q[q.head]
	q.q[q.head] = zero
	q.head++
	q.q, q.head = compactPrefix(q.q, q.head)
	return v, true
}

// Peek returns the head without removing it.
func (q *Queue[T]) Peek() (T, bool) {
	var zero T
	if q.head == len(q.q) {
		return zero, false
	}
	return q.q[q.head], true
}

// Len returns the queue depth.
func (q *Queue[T]) Len() int { return len(q.q) - q.head }
