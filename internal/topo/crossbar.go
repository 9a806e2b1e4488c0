package topo

import (
	"fmt"

	"nocout/internal/noc"
	"nocout/internal/sim"
	"nocout/internal/tech"
)

// CrossbarParams configures the delay-optimized central crossbar of the
// paper's background (§2.2): the Oracle T-series interconnect style that
// scale-out processors used before many-core counts made it untenable.
// Every tile connects to one central switch; latency is the wire to the
// die center plus a short pipeline, but the switch's area grows
// quadratically with port count (why the SOP designs stop at ~16 cores).
type CrossbarParams struct {
	Plan      Floorplan
	PipeDelay sim.Cycle // switch pipeline (default 2)
	BufFlits  int       // per-VC input buffering (default 5)
	EjectBuf  int

	// AuxTiles attaches auxiliary endpoints (memory controllers) as extra
	// crossbar ports; entry k is the tile position whose wire distance aux
	// node NumTiles+k pays to reach the central switch.
	AuxTiles []noc.NodeID
}

// DefaultCrossbarParams returns a T-series-like configuration.
func DefaultCrossbarParams(plan Floorplan) CrossbarParams {
	return CrossbarParams{Plan: plan, PipeDelay: 2, BufFlits: 5, EjectBuf: 8}
}

// NewCrossbar builds a single-switch network over the floorplan. Endpoint
// k (tile or aux) owns switch port k, so routing is a table lookup.
func NewCrossbar(p CrossbarParams) *noc.RouterNetwork {
	plan := p.Plan
	n := plan.NumTiles()
	rn := noc.NewRouterNetwork(fmt.Sprintf("xbar%d", n), n+len(p.AuxTiles))
	r := noc.NewRouter(0, "xbar", p.PipeDelay, nil)
	r.SetRoute(func(pk *noc.Packet) int { return int(pk.Dst) })

	// Wire length from each endpoint's tile to the die center.
	cx := float64(plan.Cols-1) / 2 * plan.TileW
	cy := float64(plan.Rows-1) / 2 * plan.TileH
	spoke := func(tile noc.NodeID) float64 {
		x, y := plan.Coord(tile)
		dx := absF(float64(x)*plan.TileW - cx)
		dy := absF(float64(y)*plan.TileH - cy)
		return dx + dy
	}
	attach := func(node noc.NodeID, tile noc.NodeID) {
		dist := spoke(tile)
		wire := sim.Cycle(tech.WireCycles(dist))
		in := r.AddIn(fmt.Sprintf("t%d", node), p.BufFlits)
		out := r.AddOut(fmt.Sprintf("t%d", node))
		ni := noc.NewNI(node)
		noc.ConnectNI(ni, r, in, out, wire, wire, p.EjectBuf)
		// The eject link carries both spoke directions' length so the area
		// and energy models see the full in-plus-out wire per traversal.
		r.SetOutLength(out, 2*dist)
		rn.NIs[node] = ni
	}
	for i := 0; i < n; i++ {
		attach(noc.NodeID(i), noc.NodeID(i))
	}
	for k, tile := range p.AuxTiles {
		attach(noc.NodeID(n+k), tile)
	}
	rn.Routers = []*noc.Router{r}
	return rn
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
