package sim

// Lesser is the ordering constraint for MinHeap: a value that knows how to
// compare itself against another of the same type.
type Lesser[T any] interface {
	Less(T) bool
}

// MinHeap is a binary min-heap shared by the engine's far wake arms and
// any component that schedules its own future work (the Ideal fabric's
// delivery calendar). The zero value is an empty heap.
type MinHeap[T Lesser[T]] struct {
	s []T
}

// Len returns the number of queued values.
func (h *MinHeap[T]) Len() int { return len(h.s) }

// Min returns the smallest value without removing it.
func (h *MinHeap[T]) Min() T { return h.s[0] }

// Clear empties the heap, retaining its storage.
func (h *MinHeap[T]) Clear() { h.s = h.s[:0] }

// Push inserts v.
func (h *MinHeap[T]) Push(v T) {
	s := append(h.s, v)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s[i].Less(s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
	h.s = s
}

// Pop removes and returns the smallest value.
func (h *MinHeap[T]) Pop() T {
	s := h.s
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	var zero T
	s[n] = zero // release for GC
	s = s[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && s[l].Less(s[m]) {
			m = l
		}
		if r < n && s[r].Less(s[m]) {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	h.s = s
	return top
}

// Less orders Cycle values for MinHeap[Cycle].
func (c Cycle) Less(o Cycle) bool { return c < o }
