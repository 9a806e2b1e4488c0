package noc_test

import (
	"testing"

	"nocout/internal/noc"
	"nocout/internal/sim"
	"nocout/internal/topo"
)

func meshNodes(n int) []noc.NodeID {
	out := make([]noc.NodeID, n)
	for i := range out {
		out[i] = noc.NodeID(i)
	}
	return out
}

func buildMesh() noc.Network {
	return topo.NewMesh(topo.DefaultMeshParams(topo.TiledFloorplan(16, 8)))
}

func buildFBfly() noc.Network {
	return topo.NewFBfly(topo.DefaultFBflyParams(topo.TiledFloorplan(16, 8)))
}

func TestLoadLatencyLowLoadMatchesZeroLoad(t *testing.T) {
	pat := noc.UniformPattern(meshNodes(16), 1)
	p := noc.MeasureLoad(buildMesh(), meshNodes(16), pat, 0.05, 2000, 4000, 1)
	if p.Saturated {
		t.Fatal("5% load must not saturate a mesh")
	}
	if p.AvgLatency < 5 || p.AvgLatency > 30 {
		t.Fatalf("low-load mesh latency = %.1f, expected near zero-load (~15)", p.AvgLatency)
	}
	if p.AcceptedPktPerCycle < 0.9*p.OfferedPktPerCycle {
		t.Fatal("low load must be fully accepted")
	}
}

func TestLatencyRisesWithLoad(t *testing.T) {
	pat := noc.UniformPattern(meshNodes(16), 5)
	pts := noc.LoadSweep(buildMesh, meshNodes(16), pat, []float64{0.05, 0.8, 4.0}, 2000, 4000, 7)
	if pts[1].AvgLatency <= pts[0].AvgLatency {
		t.Fatalf("latency must grow with load: %.1f then %.1f", pts[0].AvgLatency, pts[1].AvgLatency)
	}
	if !pts[2].Saturated {
		t.Fatalf("4 pkts/cycle of 5-flit packets should saturate a 16-node mesh: %+v", pts[2])
	}
	// Accepted throughput is monotone non-decreasing in offered load
	// until saturation.
	if pts[1].AcceptedPktPerCycle < pts[0].AcceptedPktPerCycle {
		t.Fatal("accepted throughput regressed below a lighter load")
	}
}

func TestFBflyLowerLatencyThanMeshUnderUniform(t *testing.T) {
	pat := noc.UniformPattern(meshNodes(16), 1)
	m := noc.MeasureLoad(buildMesh(), meshNodes(16), pat, 0.2, 2000, 4000, 3)
	f := noc.MeasureLoad(buildFBfly(), meshNodes(16), pat, 0.2, 2000, 4000, 3)
	if f.AvgLatency >= m.AvgLatency {
		t.Fatalf("fbfly (%.1f) should undercut mesh (%.1f) at moderate load", f.AvgLatency, m.AvgLatency)
	}
}

func TestNOCOutBilateralTraffic(t *testing.T) {
	cfg := topo.DefaultNOCOutParams()
	n, _ := topo.NewNOCOut(cfg)
	var cores, banks []noc.NodeID
	for i := 0; i < cfg.NumCoreNodes(); i++ {
		cores = append(cores, noc.NodeID(i))
	}
	for c := 0; c < cfg.Columns; c++ {
		banks = append(banks, cfg.LLCNode(c, 0))
	}
	pat := noc.BilateralPattern(cores, banks, 5)
	all := append(append([]noc.NodeID{}, cores...), banks...)
	p := noc.MeasureLoad(n, all, pat, 0.5, 3000, 6000, 11)
	if p.Saturated {
		t.Fatalf("NOC-Out should carry 0.5 pkt/cycle of bilateral traffic: %+v", p)
	}
	if p.AvgLatency <= 0 {
		t.Fatal("no latency measured")
	}
	// The evaluation's operating point (§6.1: "the networks are not
	// congested"): chip-level traffic is ~1-2 packets/cycle.
	n2, _ := topo.NewNOCOut(cfg)
	p2 := noc.MeasureLoad(n2, all, pat, 1.5, 3000, 6000, 11)
	if p2.Saturated {
		t.Fatalf("NOC-Out saturates below the chip's operating point: %+v", p2)
	}
}

func TestPatternValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	noc.UniformPattern([]noc.NodeID{1}, 1)
}

func TestBilateralPatternShape(t *testing.T) {
	pat := noc.BilateralPattern([]noc.NodeID{0, 1}, []noc.NodeID{10}, 5)
	r := newTestRNG()
	reqs, resps := 0, 0
	for i := 0; i < 1000; i++ {
		src, dst, size := pat(r)
		switch {
		case size == 1 && dst == 10 && (src == 0 || src == 1):
			reqs++
		case size == 5 && src == 10 && (dst == 0 || dst == 1):
			resps++
		default:
			t.Fatalf("packet outside the bilateral pattern: %d->%d size %d", src, dst, size)
		}
	}
	if reqs == 0 || resps == 0 {
		t.Fatal("both directions must occur")
	}
}

// newTestRNG gives patterns a deterministic stream.
func newTestRNG() *sim.RNG { return sim.NewRNG(99) }

func TestHotspotPatternShape(t *testing.T) {
	nodes := meshNodes(16)
	const hot = noc.NodeID(5)
	pat := noc.HotspotPattern(nodes, hot, 0.5, 1)
	r := newTestRNG()
	toHot := 0
	for i := 0; i < 4000; i++ {
		src, dst, size := pat(r)
		if src == dst || size != 1 {
			t.Fatalf("malformed packet %d->%d size %d", src, dst, size)
		}
		if dst == hot {
			toHot++
		}
	}
	// hotFrac of the traffic converges on the hot node (uniform residue
	// never picks it, so the observed share is the knob itself).
	if toHot < 1800 || toHot > 2200 {
		t.Fatalf("hot node received %d/4000 packets, want ~2000", toHot)
	}
}

func TestHotspotCongestsBeforeUniform(t *testing.T) {
	// At an offered load the mesh carries comfortably under uniform
	// traffic, a strong hotspot caps accepted throughput at the hot
	// node's ejection bandwidth.
	nodes := meshNodes(16)
	rate := 1.5 // 90% hotspot: ~1.35 pkt/cycle into one ejection port
	uni := noc.MeasureLoad(buildMesh(), nodes, noc.UniformPattern(nodes, 1), rate, 2000, 4000, 5)
	hot := noc.MeasureLoad(buildMesh(), nodes, noc.HotspotPattern(nodes, 0, 0.9, 1), rate, 2000, 4000, 5)
	if uni.Saturated {
		t.Fatalf("uniform traffic should carry %.2f pkt/cycle: %+v", rate, uni)
	}
	if !hot.Saturated {
		t.Fatalf("90%% hotspot at %.2f pkt/cycle must saturate the hot ejection port: %+v", rate, hot)
	}
}

func TestTransposePatternShape(t *testing.T) {
	pat := noc.TransposePattern(4, 1)
	r := newTestRNG()
	seen := map[noc.NodeID]bool{}
	for i := 0; i < 2000; i++ {
		src, dst, _ := pat(r)
		x, y := int(src)%4, int(src)/4
		if x == y {
			t.Fatalf("diagonal tile %d must not inject", src)
		}
		if want := noc.NodeID(x*4 + y); dst != want {
			t.Fatalf("transpose of %d = %d, want %d", src, dst, want)
		}
		seen[src] = true
	}
	if len(seen) != 12 {
		t.Fatalf("%d distinct sources, want the 12 off-diagonal tiles", len(seen))
	}
}

func TestTransposeIsAdversarialForXYMesh(t *testing.T) {
	// The same offered load costs more latency under the transpose
	// permutation than under uniform traffic: XY routing funnels it
	// onto a few column links.
	nodes := meshNodes(16)
	rate := 0.8
	uni := noc.MeasureLoad(buildMesh(), nodes, noc.UniformPattern(nodes, 5), rate, 2000, 4000, 3)
	tr := noc.MeasureLoad(buildMesh(), nodes, noc.TransposePattern(4, 5), rate, 2000, 4000, 3)
	if tr.AvgLatency <= uni.AvgLatency {
		t.Fatalf("transpose (%.1f cy) should be costlier than uniform (%.1f cy)", tr.AvgLatency, uni.AvgLatency)
	}
}

func TestBitComplementPatternShape(t *testing.T) {
	pat := noc.BitComplementPattern(16, 1)
	r := newTestRNG()
	for i := 0; i < 2000; i++ {
		src, dst, _ := pat(r)
		if dst != noc.NodeID(15-int(src)) {
			t.Fatalf("complement of %d = %d", src, dst)
		}
	}
	// Odd endpoint counts skip the self-paired middle node.
	odd := noc.BitComplementPattern(5, 1)
	for i := 0; i < 500; i++ {
		src, dst, _ := odd(r)
		if src == dst {
			t.Fatalf("fixed point %d injected", src)
		}
	}
}

func TestBitComplementCrossesTheBisection(t *testing.T) {
	// Every bit-complement packet crosses the center, so the pattern
	// saturates the mesh at a rate uniform traffic survives.
	nodes := meshNodes(16)
	rate := 2.0
	uni := noc.MeasureLoad(buildMesh(), nodes, noc.UniformPattern(nodes, 5), rate, 2000, 4000, 9)
	bc := noc.MeasureLoad(buildMesh(), nodes, noc.BitComplementPattern(16, 5), rate, 2000, 4000, 9)
	if bc.AcceptedPktPerCycle >= uni.AcceptedPktPerCycle {
		t.Fatalf("bit-complement accepted %.2f pkt/cycle, should trail uniform's %.2f",
			bc.AcceptedPktPerCycle, uni.AcceptedPktPerCycle)
	}
	if !bc.Saturated {
		t.Fatalf("2 pkt/cycle of 5-flit bisection traffic should saturate: %+v", bc)
	}
}

func TestAdversarialPatternValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"hotspot one node":     func() { noc.HotspotPattern([]noc.NodeID{1}, 1, 0.5, 1) },
		"hotspot bad fraction": func() { noc.HotspotPattern(meshNodes(4), 0, 1.5, 1) },
		"transpose side 1":     func() { noc.TransposePattern(1, 1) },
		"bit-complement n 1":   func() { noc.BitComplementPattern(1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s must panic", name)
				}
			}()
			fn()
		}()
	}
}
