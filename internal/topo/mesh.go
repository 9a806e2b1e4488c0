package topo

import (
	"fmt"

	"nocout/internal/noc"
	"nocout/internal/sim"
)

// MeshParams configures the XY grid fabrics: the baseline tiled mesh of
// §5.1 (5-port routers, 3 VCs/port, 5 flits/VC, 2-stage speculative
// pipeline, 1-cycle links — 3 cycles per hop at zero load) and its
// concentrated variant, where a Block×Block square of tiles shares one
// router. A 4:1 CMesh (Block 2) needs only 16 routers for 64 tiles, at
// twice the link pitch and higher radix — the classic CMP compromise
// between the mesh's per-tile routers and the flattened butterfly's wire
// budget.
type MeshParams struct {
	Plan      Floorplan
	Block     int       // tiles per router side: 1 = mesh, 2 = 4:1 CMesh
	BufFlits  int       // flits per VC per input port (default 5)
	PipeDelay sim.Cycle // router pipeline (default 2)
	LinkDelay sim.Cycle // per-hop link traversal (default 1)
	EjectBuf  int       // NI eject buffering per VC (default 8)

	// AuxTiles attaches auxiliary endpoints (memory controllers and other
	// off-die interfaces) through dedicated ports on the router serving
	// the tile. The k-th entry hosts aux node NumTiles+k.
	AuxTiles []noc.NodeID
}

// DefaultMeshParams returns the Table 1 mesh configuration on plan; set
// Block to 2 for the concentrated mesh.
func DefaultMeshParams(plan Floorplan) MeshParams {
	return MeshParams{Plan: plan, Block: 1, BufFlits: 5, PipeDelay: 2, LinkDelay: 1, EjectBuf: 8}
}

// Mesh port layout: outputs/inputs 0..3 are N, E, S, W (present only when
// the neighbour exists), then one local port per served tile.
const (
	dirN = iota
	dirE
	dirS
	dirW
)

// NewMesh builds the grid with XY dimension-order routing over its
// routers. Tiles keep their floorplan NodeIDs; tile (x, y) attaches to
// router (x/Block, y/Block), in row-major order within the block.
func NewMesh(p MeshParams) *noc.RouterNetwork {
	plan, b := p.Plan, p.Block
	if b < 1 || plan.Cols%b != 0 || plan.Rows%b != 0 {
		panic(fmt.Sprintf("topo: %dx%d tiles do not split into %dx%d router blocks", plan.Cols, plan.Rows, b, b))
	}
	kind := "mesh"
	if b > 1 {
		kind = "cmesh"
	}
	// The router grid reuses Floorplan geometry at b times the tile pitch.
	grid := Floorplan{Cols: plan.Cols / b, Rows: plan.Rows / b, TileW: float64(b) * plan.TileW, TileH: float64(b) * plan.TileH}
	nr := grid.NumTiles()
	t := newTiled(fmt.Sprintf("%s%dx%d", kind, grid.Cols, grid.Rows), plan.NumTiles(), nr, p.AuxTiles)
	// in/out[i][dir] are router i's port indices per direction; -1 when
	// the neighbour does not exist.
	in := make([][4]int, nr)
	out := make([][4]int, nr)

	for i := 0; i < nr; i++ {
		x, y := grid.Coord(noc.NodeID(i))
		r := noc.NewRouter(noc.NodeID(i), fmt.Sprintf("%s.r%d_%d", kind, x, y), p.PipeDelay, nil)
		t.routers[i] = r
		for d, ok := range meshNeighbors(grid, x, y) {
			in[i][d], out[i][d] = -1, -1
			if ok {
				in[i][d] = r.AddIn(dirName(d), p.BufFlits)
				out[i][d] = r.AddOut(dirName(d))
			}
		}
		for k := 0; k < b*b; k++ {
			name := "local"
			if b > 1 {
				name = fmt.Sprintf("c%d", k)
			}
			t.local(int(plan.Node(x*b+k%b, y*b+k/b)), i, name, p.BufFlits)
		}
	}
	t.addAux(p.BufFlits)

	// Routing: X first over the router grid, then Y.
	t.route(func(from, to int) int {
		fx, fy := grid.Coord(noc.NodeID(from))
		tx, ty := grid.Coord(noc.NodeID(to))
		switch {
		case tx > fx:
			return out[from][dirE]
		case tx < fx:
			return out[from][dirW]
		case ty > fy:
			return out[from][dirS]
		default:
			return out[from][dirN]
		}
	})

	// Wire neighbouring routers at the grid pitch.
	rs := t.routers
	for i := 0; i < nr; i++ {
		x, y := grid.Coord(noc.NodeID(i))
		if out[i][dirE] >= 0 {
			j := int(grid.Node(x+1, y))
			noc.Connect(rs[i], out[i][dirE], rs[j], in[j][dirW], p.LinkDelay, grid.TileW)
			noc.Connect(rs[j], out[j][dirW], rs[i], in[i][dirE], p.LinkDelay, grid.TileW)
		}
		if out[i][dirS] >= 0 {
			j := int(grid.Node(x, y+1))
			noc.Connect(rs[i], out[i][dirS], rs[j], in[j][dirN], p.LinkDelay, grid.TileH)
			noc.Connect(rs[j], out[j][dirN], rs[i], in[i][dirS], p.LinkDelay, grid.TileH)
		}
	}
	return t.attach(p.EjectBuf)
}

// meshNeighbors reports which of N,E,S,W neighbours exist at (x, y).
func meshNeighbors(plan Floorplan, x, y int) [4]bool {
	return [4]bool{
		dirN: y > 0,
		dirE: x < plan.Cols-1,
		dirS: y < plan.Rows-1,
		dirW: x > 0,
	}
}

func dirName(d int) string { return [...]string{"N", "E", "S", "W"}[d] }
