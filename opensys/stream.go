package opensys

import (
	"math"

	"nocout/internal/cpu"
	"nocout/internal/sim"
	"nocout/internal/stats"
	"nocout/internal/workload"
)

// openStream drives one core: it releases base-workload instructions
// only while a request is being served, answers KindIdle otherwise, and
// timestamps every request through arrival → dispatch → completion.
//
// The lifecycle is exact, not modeled: dispatch happens when fetch pulls
// the request's first instruction, and completion when the core commits
// its last one (the RetireObserver callback), so a request's latency
// includes queueing delay, pipeline fill, and every memory stall its
// instructions suffer in the simulated hierarchy.
type openStream struct {
	o       *Open
	service cpu.Stream // base workload's instruction stream
	arr     *arrivalGen
	nextArr float64 // absolute cycle of the next (not yet offered) arrival

	queue   []int64 // arrival cycles of queued, undispatched requests
	serving bool    // a request currently owns the instruction stream
	remain  int     // instructions left in the serving request

	issued  int64     // service instructions handed to fetch since start
	retired int64     // service instructions committed since start
	pending []openReq // dispatched requests not yet fully committed

	st       workload.OpenStats
	fallback sim.Cycle // synthetic clock for untimed Next() callers
}

// openReq tracks one dispatched request: its arrival cycle and the
// issued-instruction count at which its last instruction will commit.
type openReq struct {
	arrival int64
	end     int64
}

func newOpenStream(o *Open, coreID int, seed uint64) *openStream {
	s := &openStream{
		o:       o,
		service: o.base.StreamFor(coreID, seed),
		arr:     newArrivalGen(o.cfg, coreID, seed, o.perCycleRate(coreID)),
		st:      workload.OpenStats{Hist: &stats.LogHist{}},
	}
	s.nextArr = s.arr.next()
	return s
}

// NextAt implements cpu.TimedStream. Arrivals due by now (nextArr <= now)
// are offered to the bounded queue (queue length is sampled at each
// arrival instant — for Poisson arrivals PASTA makes that the time-average
// queue); then the head request, if any, is served one instruction at a
// time. With nothing served or queued, a call before IdleUntil() changes
// nothing and answers KindIdle.
func (s *openStream) NextAt(now sim.Cycle) cpu.Instr {
	t := float64(now)
	for s.nextArr <= t {
		s.st.Arrivals++
		s.st.QueueSum += int64(len(s.queue))
		if len(s.queue) < s.o.cfg.Queue {
			s.queue = append(s.queue, int64(math.Ceil(s.nextArr)))
		} else {
			s.st.Dropped++
		}
		s.nextArr = s.arr.next()
	}
	if !s.serving {
		if len(s.queue) == 0 {
			return cpu.Instr{Kind: cpu.KindIdle}
		}
		arrival := s.queue[0]
		s.queue = append(s.queue[:0], s.queue[1:]...)
		s.serving = true
		s.remain = s.o.cfg.Size
		s.st.Dispatched++
		s.pending = append(s.pending, openReq{
			arrival: arrival,
			end:     s.issued + int64(s.o.cfg.Size),
		})
	}
	s.issued++
	if s.remain--; s.remain == 0 {
		s.serving = false
	}
	return s.service.Next()
}

// IdleUntil implements cpu.TimedStream: 0 while a request is served or
// queued, else the first cycle NextAt offers the next arrival at,
// ceil(nextArr). An arrival that never comes (+Inf at a zero rate) or
// lies beyond the sim.Cycle range reports sim.NeverWake; converting +Inf
// to an integer is implementation-defined in Go, not a large cycle.
func (s *openStream) IdleUntil() sim.Cycle {
	if s.serving || len(s.queue) > 0 {
		return 0
	}
	if at := math.Ceil(s.nextArr); at < math.MaxInt64 {
		return sim.Cycle(at)
	}
	return sim.NeverWake
}

// Next implements cpu.Stream for untimed callers (conformance checks,
// capture recording): each call advances a synthetic one-instruction-
// per-cycle clock. Cores never use this path — they see TimedStream.
func (s *openStream) Next() cpu.Instr {
	in := s.NextAt(s.fallback)
	s.fallback++
	return in
}

// OnRetire implements cpu.RetireObserver: commit-time completion
// timestamps. The core reports each batch of retired instructions;
// every pending request whose last instruction falls inside the batch
// completes now, recording arrival→completion latency.
func (s *openStream) OnRetire(now sim.Cycle, n int) {
	s.retired += int64(n)
	done := 0
	for _, r := range s.pending {
		if r.end > s.retired {
			break
		}
		s.st.Completed++
		lat := int64(now) - r.arrival
		if lat < 0 {
			lat = 0
		}
		s.st.Hist.Record(lat)
		done++
	}
	if done > 0 {
		s.pending = append(s.pending[:0], s.pending[done:]...)
	}
}

// OpenReset implements workload.OpenTracker: zero the measurement
// counters at the warm-up boundary. In-flight state (queue contents,
// pending requests, arrival clock) is untouched, so a request spanning
// the boundary still reports its true latency — its completion lands in
// the measured histogram with the full queueing delay it actually saw.
func (s *openStream) OpenReset() {
	s.st.Arrivals = 0
	s.st.Dispatched = 0
	s.st.Completed = 0
	s.st.Dropped = 0
	s.st.QueueSum = 0
	s.st.Hist.Reset()
}

// OpenSnapshot implements workload.OpenTracker.
func (s *openStream) OpenSnapshot() workload.OpenStats { return s.st }
