package topo

import (
	"testing"

	"nocout/internal/noc"
	"nocout/internal/sim"
)

func TestTorusWrapHalvesDiameter(t *testing.T) {
	plan := TiledFloorplan(64, 8)
	tor := NewTorus(DefaultTorusParams(plan))
	// Corner to corner is one wrap hop per dimension: 2 intermediate
	// routers plus the destination's.
	p := sendAndWait(t, tor, 0, 63, 1)
	if p.Hops() != 3 {
		t.Fatalf("0->63 router traversals = %d, want 3 (wrap links)", p.Hops())
	}
	// Mid-ring destinations still take the mesh path.
	q := sendAndWait(t, tor, 0, int03, 1)
	if q.Hops() != 7 {
		t.Fatalf("0->(3,3) router traversals = %d, want 7", q.Hops())
	}
}

// int03 is tile (3, 3) on the 8x8 plan.
const int03 = noc.NodeID(3*8 + 3)

func TestTorusDeliversAllPairs(t *testing.T) {
	plan := TiledFloorplan(16, 8)
	tor := NewTorus(DefaultTorusParams(plan))
	e := sim.NewEngine()
	e.Register(tor)
	delivered := 0
	for i := 0; i < 16; i++ {
		tor.SetDeliver(noc.NodeID(i), func(now sim.Cycle, p *noc.Packet) { delivered++ })
	}
	sent := 0
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			if s == d {
				continue
			}
			tor.Send(e.Now(), &noc.Packet{ID: uint64(sent), Class: noc.ClassResp,
				Src: noc.NodeID(s), Dst: noc.NodeID(d), Size: 5})
			sent++
		}
	}
	if !e.RunUntil(func() bool { return delivered == sent }, 100000) {
		t.Fatalf("delivered %d/%d", delivered, sent)
	}
}

// TestTorusSaturationNoDeadlock slams the torus far past saturation with
// maximum-size packets — the load that fills ring buffers and would
// deadlock wrap-around wormhole rings without bubble flow control — and
// requires sustained forward progress.
func TestTorusSaturationNoDeadlock(t *testing.T) {
	plan := TiledFloorplan(64, 8)
	tor := NewTorus(DefaultTorusParams(plan))
	nodes := make([]noc.NodeID, 64)
	for i := range nodes {
		nodes[i] = noc.NodeID(i)
	}
	// 8 packets/cycle of 5-flit traffic network-wide (40 flits/cy against
	// 64 one-flit/cycle injection ports) is deep saturation.
	lp := noc.MeasureLoad(tor, nodes, noc.UniformPattern(nodes, 5), 8.0, 2000, 20000, 7)
	if !lp.Saturated {
		t.Fatalf("offered 8 pkt/cy should saturate: %+v", lp)
	}
	// Deadlock shows up as accepted throughput collapsing toward zero;
	// bubble flow control must keep the rings draining.
	if lp.AcceptedPktPerCycle < 0.5 {
		t.Fatalf("saturated torus wedged: accepted %.3f pkt/cy", lp.AcceptedPktPerCycle)
	}
}

func TestTorusAuxEndpoints(t *testing.T) {
	plan := TiledFloorplan(16, 8)
	p := DefaultTorusParams(plan)
	p.AuxTiles = MCTiles(plan, 2)
	tor := NewTorus(p)
	if got := sendAndWait(t, tor, 3, 16, 1); got.Dst != 16 {
		t.Fatalf("aux delivery went to %d", got.Dst)
	}
	if got := sendAndWait(t, tor, 17, 5, 5); got.Dst != 5 {
		t.Fatalf("aux->tile delivery went to %d", got.Dst)
	}
}

func TestCMeshConcentratesRouting(t *testing.T) {
	plan := TiledFloorplan(64, 8)
	mp := DefaultMeshParams(plan)
	mp.Block = 2
	cm := NewMesh(mp)
	if len(cm.Routers) != 16 {
		t.Fatalf("cmesh routers = %d, want 16 (4:1 concentration)", len(cm.Routers))
	}
	// Tiles sharing a router communicate through it alone.
	p := sendAndWait(t, cm, 0, 1, 1)
	if p.Hops() != 1 {
		t.Fatalf("same-block hops = %d, want 1", p.Hops())
	}
	// Corner to corner crosses the 4x4 router grid: 6 network hops plus
	// the destination router.
	q := sendAndWait(t, cm, 0, 63, 1)
	if q.Hops() != 7 {
		t.Fatalf("corner-to-corner hops = %d, want 7", q.Hops())
	}
}

func TestCMeshDeliversAllPairsWithAux(t *testing.T) {
	plan := TiledFloorplan(16, 8)
	p := DefaultMeshParams(plan)
	p.Block = 2
	p.AuxTiles = MCTiles(plan, 4)
	cm := NewMesh(p)
	e := sim.NewEngine()
	e.Register(cm)
	delivered := 0
	for i := 0; i < 16+4; i++ {
		cm.SetDeliver(noc.NodeID(i), func(now sim.Cycle, p *noc.Packet) { delivered++ })
	}
	sent := 0
	for s := 0; s < 20; s++ {
		for d := 0; d < 20; d++ {
			if s == d {
				continue
			}
			cm.Send(e.Now(), &noc.Packet{ID: uint64(sent), Class: noc.ClassReq,
				Src: noc.NodeID(s), Dst: noc.NodeID(d), Size: 1})
			sent++
		}
	}
	if !e.RunUntil(func() bool { return delivered == sent }, 100000) {
		t.Fatalf("delivered %d/%d", delivered, sent)
	}
}
