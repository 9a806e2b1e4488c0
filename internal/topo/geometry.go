// Package topo builds the paper's interconnect organizations: NOC-Out's
// network, the conventional fabrics it is evaluated against, and the
// idealized wire-delay-only fabric used in Figure 1 (NewIdeal). The
// router-based fabrics have five builders:
//
//   - NewNOCOut: NOC-Out's reduction and dispersion trees feeding a
//     flattened-butterfly LLC network (§4);
//   - NewMesh: the tiled mesh of Figure 2 and, with MeshParams.Block 2,
//     the 4:1 concentrated mesh (CMesh);
//   - NewFBfly: the richly connected flattened butterfly of Figure 3;
//   - NewTorus: the folded 2-D torus;
//   - NewCrossbar: the §2.2 central crossbar.
//
// Mesh, torus, flattened butterfly and NOC-Out's LLC network share one
// skeleton (tiled.go) for aux ports, routing and NI attachment, and the
// last two share the butterfly's port tables and links. The package also
// owns the chip floorplan geometry that converts tile positions into wire
// lengths and cycles.
package topo

import (
	"fmt"
	"math"

	"nocout/internal/noc"
	"nocout/internal/sim"
	"nocout/internal/tech"
)

// Floorplan describes a rectangular grid of tiles and their physical size.
type Floorplan struct {
	Cols, Rows   int
	TileW, TileH float64 // mm
}

// GridFor returns a near-square cols×rows arrangement for n tiles.
// n must be a power of two (the paper's configurations are).
func GridFor(n int) (cols, rows int) {
	if n < 1 || n&(n-1) != 0 {
		panic(fmt.Sprintf("topo: tile count %d is not a positive power of two", n))
	}
	cols, rows = 1, 1
	for cols*rows < n {
		if cols <= rows {
			cols *= 2
		} else {
			rows *= 2
		}
	}
	return cols, rows
}

// TiledFloorplan builds the floorplan of a conventional tiled CMP with
// nTiles tiles, each holding a core, an LLC slice of llcMB/nTiles, and a
// router (Figure 2b). Tiles are square-ish: the tile area comes from the
// §5.2 component areas.
func TiledFloorplan(nTiles int, llcMB float64) Floorplan {
	cols, rows := GridFor(nTiles)
	tileArea := tech.CoreMM2 + llcMB/float64(nTiles)*tech.CacheMM2PerMB
	side := math.Sqrt(tileArea)
	return Floorplan{Cols: cols, Rows: rows, TileW: side, TileH: side}
}

// NumTiles returns Cols*Rows.
func (f Floorplan) NumTiles() int { return f.Cols * f.Rows }

// Coord returns the (x, y) grid position of node n (row-major numbering).
func (f Floorplan) Coord(n noc.NodeID) (x, y int) {
	i := int(n)
	if i < 0 || i >= f.NumTiles() {
		panic(fmt.Sprintf("topo: node %d outside %dx%d grid", n, f.Cols, f.Rows))
	}
	return i % f.Cols, i / f.Cols
}

// Node returns the NodeID at grid position (x, y).
func (f Floorplan) Node(x, y int) noc.NodeID { return noc.NodeID(y*f.Cols + x) }

// DistMM returns the Manhattan center-to-center distance between two tiles.
func (f Floorplan) DistMM(a, b noc.NodeID) float64 {
	ax, ay := f.Coord(a)
	bx, by := f.Coord(b)
	return math.Abs(float64(ax-bx))*f.TileW + math.Abs(float64(ay-by))*f.TileH
}

// HopsMesh returns the Manhattan hop distance between two tiles.
func (f Floorplan) HopsMesh(a, b noc.NodeID) int {
	ax, ay := f.Coord(a)
	bx, by := f.Coord(b)
	return abs(ax-bx) + abs(ay-by)
}

// MCTiles picks the memory-channel attach points on a tiled floorplan:
// mid-height tiles on the left and right die edges, one per channel. Every
// tiled organization uses this placement so their off-die distances match.
func MCTiles(f Floorplan, channels int) []noc.NodeID {
	nodes := make([]noc.NodeID, channels)
	ys := []int{f.Rows / 2, f.Rows/2 - 1}
	if ys[1] < 0 {
		ys[1] = 0
	}
	xs := []int{0, f.Cols - 1}
	for ch := range nodes {
		nodes[ch] = f.Node(xs[ch%2], ys[(ch/2)%2])
	}
	return nodes
}

// WireCyclesBetween returns the latched wire delay between two tile
// centers at the technology's 125 ps/mm.
func (f Floorplan) WireCyclesBetween(a, b noc.NodeID) sim.Cycle {
	if a == b {
		return 1
	}
	return sim.Cycle(tech.WireCycles(f.DistMM(a, b)))
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
