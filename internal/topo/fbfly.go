package topo

import (
	"fmt"

	"nocout/internal/noc"
	"nocout/internal/sim"
)

// FBflyParams configures the 2-D flattened butterfly of §5.1: every router
// is directly linked to all routers in its row and column (Figure 3),
// giving at most two network hops. Routers have a 3-stage non-speculative
// pipeline; a flit covers up to two tiles per cycle on the long links, and
// buffer depth per port is sized to the link's round-trip credit time.
type FBflyParams struct {
	Plan          Floorplan
	PipeDelay     sim.Cycle // default 3
	TilesPerCycle int       // link reach per cycle (default 2)
	BufSlack      int       // flits beyond link delay per VC (default 5)
	EjectBuf      int

	// AuxTiles attaches auxiliary endpoints (memory controllers) through
	// dedicated router ports; entry k hosts aux node NumTiles+k.
	AuxTiles []noc.NodeID
}

// DefaultFBflyParams returns the Table 1 flattened-butterfly configuration.
func DefaultFBflyParams(plan Floorplan) FBflyParams {
	return FBflyParams{Plan: plan, PipeDelay: 3, TilesPerCycle: 2, BufSlack: 5, EjectBuf: 8}
}

// FBflyLinkDelay returns the cycles to traverse a link spanning dist tiles.
func FBflyLinkDelay(dist, tilesPerCycle int) sim.Cycle {
	if dist < 1 {
		return 1
	}
	d := (dist + tilesPerCycle - 1) / tilesPerCycle
	return sim.Cycle(d)
}

// NewFBfly builds the 2-D flattened butterfly network.
func NewFBfly(p FBflyParams) *noc.RouterNetwork {
	plan := p.Plan
	n := plan.NumTiles()
	t := newTiled(fmt.Sprintf("fbfly%dx%d", plan.Cols, plan.Rows), n, n, p.AuxTiles)

	// rowIn/rowOut[i][x'] and colIn/colOut[i][y'] are router i's port
	// indices toward column x' / row y'; -1 for self.
	rowIn, rowOut := make([][]int, n), make([][]int, n)
	colIn, colOut := make([][]int, n), make([][]int, n)
	ports := func(r *noc.Router, in, out []int, at int, dim string) {
		for to := range out {
			in[to], out[to] = -1, -1
			if to == at {
				continue
			}
			depth := int(FBflyLinkDelay(abs(to-at), p.TilesPerCycle)) + p.BufSlack
			name := fmt.Sprintf("%s%d", dim, to)
			in[to] = r.AddIn(name, depth)
			out[to] = r.AddOut(name)
		}
	}
	for i := 0; i < n; i++ {
		id := noc.NodeID(i)
		x, y := plan.Coord(id)
		r := noc.NewRouter(id, fmt.Sprintf("fbfly.r%d_%d", x, y), p.PipeDelay, nil)
		t.routers[i] = r
		rowIn[i], rowOut[i] = make([]int, plan.Cols), make([]int, plan.Cols)
		colIn[i], colOut[i] = make([]int, plan.Rows), make([]int, plan.Rows)
		ports(r, rowIn[i], rowOut[i], x, "x")
		ports(r, colIn[i], colOut[i], y, "y")
		t.local(i, i, "local", p.BufSlack)
	}
	t.addAux(p.BufSlack)

	// Routing: X dimension first, then Y — at most 2 hops.
	t.route(func(from, to int) int {
		fx, _ := plan.Coord(noc.NodeID(from))
		tx, ty := plan.Coord(noc.NodeID(to))
		if tx != fx {
			return rowOut[from][tx]
		}
		return colOut[from][ty]
	})

	// Wire each pair once, from the lower coordinate: router i at position
	// a and router j at position b > a along one dimension.
	rs := t.routers
	link := func(i, j, a, b int, in, out [][]int, pitch float64) {
		delay := FBflyLinkDelay(b-a, p.TilesPerCycle)
		lenMM := float64(b-a) * pitch
		noc.Connect(rs[i], out[i][b], rs[j], in[j][a], delay, lenMM)
		noc.Connect(rs[j], out[j][a], rs[i], in[i][b], delay, lenMM)
	}
	for i := 0; i < n; i++ {
		x, y := plan.Coord(noc.NodeID(i))
		for tx := x + 1; tx < plan.Cols; tx++ {
			link(i, int(plan.Node(tx, y)), x, tx, rowIn, rowOut, plan.TileW)
		}
		for ty := y + 1; ty < plan.Rows; ty++ {
			link(i, int(plan.Node(x, ty)), y, ty, colIn, colOut, plan.TileH)
		}
	}
	return t.attach(p.EjectBuf)
}
