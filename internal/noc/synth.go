package noc

import (
	"nocout/internal/sim"
)

// This file provides the classic open-loop NoC evaluation harness:
// synthetic traffic injected at a controlled rate, measuring accepted
// throughput and average packet latency. It is how the load-latency
// behaviour of the fabrics is characterized independently of the full-chip
// protocol stack (and how the "networks are not congested" claim of §6.1
// is checked).

// Pattern produces one packet's endpoints and size; it is called once per
// injection. Implementations must be deterministic given the RNG.
type Pattern func(r *sim.RNG) (src, dst NodeID, size int)

// UniformPattern returns uniform-random traffic among nodes with the given
// packet size in flits.
func UniformPattern(nodes []NodeID, size int) Pattern {
	if len(nodes) < 2 {
		panic("noc: uniform pattern needs at least two nodes")
	}
	return func(r *sim.RNG) (NodeID, NodeID, int) {
		s := nodes[r.Intn(len(nodes))]
		d := nodes[r.Intn(len(nodes))]
		for d == s {
			d = nodes[r.Intn(len(nodes))]
		}
		return s, d, size
	}
}

// BilateralPattern returns the paper's core-to-cache pattern (§3): sources
// send single-flit requests to uniform-random sinks; sinks send
// respSize-flit responses to uniform-random sources. Requests and
// responses alternate 50/50.
func BilateralPattern(sources, sinks []NodeID, respSize int) Pattern {
	if len(sources) == 0 || len(sinks) == 0 {
		panic("noc: bilateral pattern needs sources and sinks")
	}
	return func(r *sim.RNG) (NodeID, NodeID, int) {
		if r.Bool(0.5) {
			return sources[r.Intn(len(sources))], sinks[r.Intn(len(sinks))], 1
		}
		return sinks[r.Intn(len(sinks))], sources[r.Intn(len(sources))], respSize
	}
}

// HotspotPattern returns hotspot traffic: hotFrac of the packets target
// the single hot node (a popular LLC bank, a memory channel), the rest
// are uniform-random. It is the classic endpoint-congestion stressor:
// accepted throughput caps near the hot node's ejection bandwidth long
// before the bisection saturates.
func HotspotPattern(nodes []NodeID, hot NodeID, hotFrac float64, size int) Pattern {
	if len(nodes) < 2 {
		panic("noc: hotspot pattern needs at least two nodes")
	}
	if hotFrac < 0 || hotFrac > 1 {
		panic("noc: hotspot fraction must be in [0, 1]")
	}
	return func(r *sim.RNG) (NodeID, NodeID, int) {
		dst := hot
		if !r.Bool(hotFrac) {
			dst = nodes[r.Intn(len(nodes))]
			for dst == hot {
				dst = nodes[r.Intn(len(nodes))]
			}
		}
		src := nodes[r.Intn(len(nodes))]
		for src == dst {
			src = nodes[r.Intn(len(nodes))]
		}
		return src, dst, size
	}
}

// TransposePattern returns the matrix-transpose permutation on a
// side×side grid (NodeID = y*side + x): tile (x, y) sends to (y, x).
// It is the classic adversarial permutation for dimension-ordered
// routing — XY-routed transpose traffic piles onto a few column links —
// so it bounds the fabric's worst permutation behaviour in the §6.1
// load-latency characterization. Diagonal tiles (x == y) would
// self-send and are skipped.
func TransposePattern(side, size int) Pattern {
	if side < 2 {
		panic("noc: transpose pattern needs a side of at least 2")
	}
	return func(r *sim.RNG) (NodeID, NodeID, int) {
		for {
			s := r.Intn(side * side)
			x, y := s%side, s/side
			if x == y {
				continue
			}
			return NodeID(s), NodeID(x*side + y), size
		}
	}
}

// BitComplementPattern returns the bit-complement permutation over n
// endpoints: node i sends to n-1-i (every address bit flipped when n is
// a power of two). All traffic crosses the die center, making it the
// standard bisection-bandwidth stressor. For odd n the middle node is
// its own complement and is skipped.
func BitComplementPattern(n, size int) Pattern {
	if n < 2 {
		panic("noc: bit-complement pattern needs at least two nodes")
	}
	return func(r *sim.RNG) (NodeID, NodeID, int) {
		for {
			s := r.Intn(n)
			d := n - 1 - s
			if d == s {
				continue
			}
			return NodeID(s), NodeID(d), size
		}
	}
}

// LoadPoint is one point of a load-latency sweep.
type LoadPoint struct {
	OfferedPktPerCycle  float64
	AcceptedPktPerCycle float64
	AvgLatency          float64 // cycles, all classes
	Saturated           bool    // accepted lagged offered by >10%
}

// MeasureLoad injects pattern traffic at rate packets/cycle (network-wide)
// for warmup+window cycles and reports the steady-state behaviour over the
// window. nodes lists every endpoint the pattern can target (they get sink
// delivery callbacks). Packets travel in the request class for single-flit
// sizes and the response class otherwise, matching the protocol's usage.
func MeasureLoad(net Network, nodes []NodeID, pattern Pattern, rate float64, warmup, window sim.Cycle, seed uint64) LoadPoint {
	e := sim.NewEngine()
	e.Register(net)
	for _, n := range nodes {
		net.SetDeliver(n, func(now sim.Cycle, p *Packet) {})
	}
	rng := sim.NewRNG(seed)
	var id uint64
	carry := 0.0
	injector := sim.TickFunc(func(now sim.Cycle) {
		carry += rate
		for carry >= 1 {
			carry--
			src, dst, size := pattern(rng)
			class := ClassReq
			if size > 1 {
				class = ClassResp
			}
			id++
			net.Send(now, &Packet{ID: id, Class: class, Src: src, Dst: dst, Size: size})
		}
	})
	e.Register(injector)

	e.Step(warmup)
	net.ResetStats()
	e.Step(window)

	st := net.Stats()
	lp := LoadPoint{
		OfferedPktPerCycle:  float64(st.Injected) / float64(window),
		AcceptedPktPerCycle: float64(st.Delivered) / float64(window),
		AvgLatency:          st.AvgLatencyAll(),
	}
	lp.Saturated = lp.AcceptedPktPerCycle < 0.9*lp.OfferedPktPerCycle
	return lp
}

// LoadSweep measures a curve over the given rates, rebuilding the network
// for each point (open-loop points must not share queue state).
func LoadSweep(build func() Network, nodes []NodeID, pattern Pattern, rates []float64, warmup, window sim.Cycle, seed uint64) []LoadPoint {
	out := make([]LoadPoint, len(rates))
	for i, r := range rates {
		out[i] = MeasureLoad(build(), nodes, pattern, r, warmup, window, seed)
	}
	return out
}
