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
	b := newButterfly(plan)
	depth := func(dist int) int { return int(FBflyLinkDelay(dist, p.TilesPerCycle)) + p.BufSlack }
	for i := 0; i < n; i++ {
		id := noc.NodeID(i)
		x, y := plan.Coord(id)
		r := noc.NewRouter(id, fmt.Sprintf("fbfly.r%d_%d", x, y), p.PipeDelay, nil)
		t.routers[i] = r
		b.ports(i, r, depth, depth)
		t.local(i, i, "local", p.BufSlack)
	}
	t.addAux(p.BufSlack)
	t.route(b.toward)
	b.wire(t.routers, p.TilesPerCycle)
	return t.attach(p.EjectBuf)
}

// butterfly holds the port tables of a flattened butterfly over a grid of
// routers numbered row-major: rowIn/rowOut[i][x'] and colIn/colOut[i][y']
// are router i's port indices toward column x' / row y'; -1 for self.
type butterfly struct {
	grid                         Floorplan
	rowIn, rowOut, colIn, colOut [][]int
}

func newButterfly(grid Floorplan) *butterfly {
	n := grid.NumTiles()
	return &butterfly{grid: grid,
		rowIn: make([][]int, n), rowOut: make([][]int, n),
		colIn: make([][]int, n), colOut: make([][]int, n)}
}

// ports gives router i a port pair toward every other router in its row,
// then in its column; rowDepth and colDepth size each input by the span
// of its link in routers.
func (b *butterfly) ports(i int, r *noc.Router, rowDepth, colDepth func(dist int) int) {
	x, y := b.grid.Coord(noc.NodeID(i))
	b.rowIn[i], b.rowOut[i] = dimPorts(r, b.grid.Cols, x, "x", rowDepth)
	b.colIn[i], b.colOut[i] = dimPorts(r, b.grid.Rows, y, "y", colDepth)
}

func dimPorts(r *noc.Router, n, at int, dim string, depth func(dist int) int) (in, out []int) {
	in, out = make([]int, n), make([]int, n)
	for to := range out {
		in[to], out[to] = -1, -1
		if to == at {
			continue
		}
		name := fmt.Sprintf("%s%d", dim, to)
		in[to] = r.AddIn(name, depth(abs(to-at)))
		out[to] = r.AddOut(name)
	}
	return in, out
}

// toward routes X dimension first, then Y: at most two hops.
func (b *butterfly) toward(from, to int) int {
	fx, _ := b.grid.Coord(noc.NodeID(from))
	tx, ty := b.grid.Coord(noc.NodeID(to))
	if tx != fx {
		return b.rowOut[from][tx]
	}
	return b.colOut[from][ty]
}

// wire links each pair of routers rs sharing a row or column once, from
// the lower coordinate: router i at position a and router j at position
// c > a along one dimension, c-a grid pitches apart.
func (b *butterfly) wire(rs []*noc.Router, tilesPerCycle int) {
	link := func(i, j, a, c int, in, out [][]int, pitch float64) {
		delay := FBflyLinkDelay(c-a, tilesPerCycle)
		lenMM := float64(c-a) * pitch
		noc.Connect(rs[i], out[i][c], rs[j], in[j][a], delay, lenMM)
		noc.Connect(rs[j], out[j][a], rs[i], in[i][c], delay, lenMM)
	}
	g := b.grid
	for i := range rs {
		x, y := g.Coord(noc.NodeID(i))
		for tx := x + 1; tx < g.Cols; tx++ {
			link(i, int(g.Node(tx, y)), x, tx, b.rowIn, b.rowOut, g.TileW)
		}
		for ty := y + 1; ty < g.Rows; ty++ {
			link(i, int(g.Node(x, ty)), y, ty, b.colIn, b.colOut, g.TileH)
		}
	}
}
