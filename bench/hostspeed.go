package main

import (
	"time"

	"nocout/bench/ledger"
)

// The sandboxes this benchmark runs on share their CPUs' caches and
// cores with other tenants, whose load drifts over tens of seconds and
// moves the simulator's speed by ±25%. Runs therefore time a fixed
// reference kernel between repetitions and report every end-to-end time
// scaled to the host speed at which that kernel takes refNominal. The
// kernel is event-driven like the simulator — a binary heap of events
// over a table of components, with data-dependent updates and no
// allocation — so the same contention slows both, and the ratio cancels
// most of the drift. It is bench code that no simulator change touches.

// refNominal is the reference kernel's time on the host the first
// ledger was measured on (README.md names it).
const refNominal = 50 * time.Millisecond

// refEvents is the reference kernel's fixed amount of work.
const refEvents = 250_000

type refEvent struct {
	at uint64
	id uint32
}

type refComponent struct {
	state [8]uint64
	next  uint32
}

// refKernel holds the reference kernel's state.
type refKernel struct {
	comps []refComponent
	heap  []refEvent
	sink  uint64
}

func newRefKernel() *refKernel {
	k := &refKernel{comps: make([]refComponent, 16384), heap: make([]refEvent, 0, 4096)}
	x := uint64(88172645463325252)
	for i := range k.comps {
		x = xorshift(x)
		k.comps[i].next = uint32(x % uint64(len(k.comps)))
	}
	return k
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

func (a refEvent) before(b refEvent) bool { return a.at < b.at || (a.at == b.at && a.id < b.id) }

func (k *refKernel) push(e refEvent) {
	h := append(k.heap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	k.heap = h
}

func (k *refKernel) pop() refEvent {
	h := k.heap
	top, last := h[0], h[len(h)-1]
	h = h[:len(h)-1]
	i := 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if len(h) > 0 {
		h[i] = last
	}
	k.heap = h
	return top
}

// time runs the kernel once and returns how long it took.
func (k *refKernel) time() float64 {
	start := time.Now()
	k.heap = k.heap[:0]
	for i := range 4096 {
		k.push(refEvent{at: uint64(i % 7), id: uint32(i)})
	}
	x := uint64(1)
	n := uint64(len(k.comps))
	for range refEvents {
		e := k.pop()
		c := &k.comps[uint64(e.id)%n]
		x = xorshift(x)
		c.state[x&7] += e.at
		if c.state[0]&1 == 1 {
			k.comps[c.next].state[1]++
		}
		k.push(refEvent{at: e.at + 1 + x%5, id: uint32((uint64(e.id)*31 + x) % 65536)})
	}
	k.sink += x
	return float64(time.Since(start))
}

// hostMeter samples the reference kernel over a run.
type hostMeter struct {
	k       *refKernel
	samples []float64
}

func newHostMeter() *hostMeter { return &hostMeter{k: newRefKernel()} }

// sample times the kernel twice.
func (m *hostMeter) sample() {
	m.samples = append(m.samples, m.k.time(), m.k.time())
}

// slowdown is how much slower than nominal the host ran over the
// samples: the median kernel time over refNominal.
func (m *hostMeter) slowdown() float64 {
	return ledger.Median(m.samples) / float64(refNominal)
}
