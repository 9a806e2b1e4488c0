package topo

import (
	"fmt"

	"nocout/internal/noc"
	"nocout/internal/sim"
)

// TorusParams configures a 2-D folded torus: the mesh's grid with
// wrap-around links in both dimensions, halving the network diameter at
// the cost of longer wires. The physical layout is folded, so every link —
// wrap links included — spans two tiles; routers keep the mesh's 2-stage
// pipeline and add the deeper ring buffers bubble flow control needs.
type TorusParams struct {
	Plan      Floorplan
	BufFlits  int       // flits per VC on ring inputs (default 2*MaxPktFlits+2)
	PipeDelay sim.Cycle // router pipeline (default 2)
	LinkDelay sim.Cycle // per-hop link traversal (default 1)
	EjectBuf  int       // NI eject buffering per VC (default 8)

	// MaxPktFlits is the largest packet the protocol injects, in flits; it
	// sizes the bubble-flow-control thresholds (default 5, a 64-byte line
	// on 128-bit links).
	MaxPktFlits int

	// AuxTiles attaches auxiliary endpoints (memory controllers) through
	// dedicated router ports; entry k hosts aux node NumTiles+k.
	AuxTiles []noc.NodeID
}

// DefaultTorusParams returns the Table 1-style torus configuration on plan.
func DefaultTorusParams(plan Floorplan) TorusParams {
	return TorusParams{Plan: plan, PipeDelay: 2, LinkDelay: 1, EjectBuf: 8, MaxPktFlits: 5}
}

// Torus port directions: dimension (x=0, y=1) crossed with travel sign.
const (
	torusPosX = iota // traveling toward +x
	torusNegX
	torusPosY
	torusNegY
	torusDirs
)

// NewTorus builds a 2-D folded torus with dimension-order routing, taking
// the shorter ring direction per dimension (ties go positive). Deadlock
// freedom inside each unidirectional ring comes from bubble flow control:
// ring traffic moves virtual-cut-through (a head advances only when the
// whole packet fits downstream), and entering a ring — injection or an
// X-to-Y turn — additionally requires a free maximum-packet bubble.
func NewTorus(p TorusParams) *noc.RouterNetwork {
	plan := p.Plan
	n := plan.NumTiles()
	if plan.Cols < 2 || plan.Rows < 2 {
		panic(fmt.Sprintf("topo: torus needs at least 2x2 tiles, got %dx%d", plan.Cols, plan.Rows))
	}
	if p.MaxPktFlits < 1 {
		p.MaxPktFlits = 5
	}
	if p.BufFlits == 0 {
		p.BufFlits = 2*p.MaxPktFlits + 2 // room for the entry bubble
	}
	if p.BufFlits < 2*p.MaxPktFlits {
		panic("topo: torus ring buffers must hold two maximum packets (bubble flow control)")
	}
	t := newTiled(fmt.Sprintf("torus%dx%d", plan.Cols, plan.Rows), n, n, p.AuxTiles)
	inDir := make([][torusDirs]int, n)  // inDir[i][d] = input-port index receiving direction-d traffic
	outDir := make([][torusDirs]int, n) // outDir[i][d] = output-port index sending direction-d traffic

	dirName := [...]string{"px", "nx", "py", "ny"}
	for i := 0; i < n; i++ {
		id := noc.NodeID(i)
		x, y := plan.Coord(id)
		r := noc.NewRouter(id, fmt.Sprintf("torus.r%d_%d", x, y), p.PipeDelay, nil)
		t.routers[i] = r
		for d := 0; d < torusDirs; d++ {
			inDir[i][d] = r.AddIn(dirName[d], p.BufFlits)
			outDir[i][d] = r.AddOut(dirName[d])
		}
		t.local(i, i, "local", p.BufFlits)
	}
	t.addAux(p.BufFlits)

	// Routing: X ring first, then Y ring.
	t.route(func(from, to int) int {
		fx, fy := plan.Coord(noc.NodeID(from))
		tx, ty := plan.Coord(noc.NodeID(to))
		if tx != fx {
			return outDir[from][ringDir(fx, tx, plan.Cols, torusPosX, torusNegX)]
		}
		return outDir[from][ringDir(fy, ty, plan.Rows, torusPosY, torusNegY)]
	})

	// Wire the rings. A folded layout makes every link — including the
	// wraps — span two tile pitches.
	routers := t.routers
	for i := 0; i < n; i++ {
		x, y := plan.Coord(noc.NodeID(i))
		ex := int(plan.Node((x+1)%plan.Cols, y))
		noc.Connect(routers[i], outDir[i][torusPosX], routers[ex], inDir[ex][torusPosX], p.LinkDelay, 2*plan.TileW)
		noc.Connect(routers[ex], outDir[ex][torusNegX], routers[i], inDir[i][torusNegX], p.LinkDelay, 2*plan.TileW)
		sy := int(plan.Node(x, (y+1)%plan.Rows))
		noc.Connect(routers[i], outDir[i][torusPosY], routers[sy], inDir[sy][torusPosY], p.LinkDelay, 2*plan.TileH)
		noc.Connect(routers[sy], outDir[sy][torusNegY], routers[i], inDir[i][torusNegY], p.LinkDelay, 2*plan.TileH)
	}

	// Bubble flow control thresholds (see NewTorus doc).
	for i := 0; i < n; i++ {
		ins, outs := inDir[i], outDir[i]
		routers[i].SetHeadRoom(func(in, out, size int) int {
			ringOut := -1
			for d := 0; d < torusDirs; d++ {
				if outs[d] == out {
					ringOut = d
					break
				}
			}
			if ringOut < 0 {
				return 1 // eject or aux: plain wormhole
			}
			if ins[ringOut] == in {
				return size // continuing in the same ring: virtual cut-through
			}
			return size + p.MaxPktFlits // ring entry: leave a max-packet bubble
		})
	}
	return t.attach(p.EjectBuf)
}

// ringDir picks the travel direction from ring position at to position to
// on a ring of size k, returning pos for the positive direction (shorter
// path or tie) and neg otherwise.
func ringDir(at, to, k, pos, neg int) int {
	fwd := (to - at + k) % k
	if fwd <= k-fwd {
		return pos
	}
	return neg
}
