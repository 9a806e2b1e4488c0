package topo

import (
	"fmt"
	"math"

	"nocout/internal/noc"
	"nocout/internal/sim"
	"nocout/internal/tech"
)

// NOCOutParams describes a NOC-Out chip organization (§4). Cores and LLC
// tiles are segregated: LLC tiles sit in a central row of the die, and
// cores fill the regions above and below it.
type NOCOutParams struct {
	Columns     int `json:"columns,omitempty"`       // LLC tiles / columns of cores (8 in the paper)
	RowsPerSide int `json:"rows_per_side,omitempty"` // core rows above and below the LLC row (4 in the paper)

	// Concentration is the number of cores sharing each tree port (§7.1);
	// 1 in the baseline. Core count = Columns * 2 * RowsPerSide * Concentration.
	Concentration int `json:"concentration,omitempty"`

	// LLCRows stacks the LLC region vertically (§7.1 "flattened butterfly
	// in LLC"); 1 in the baseline. LLC tiles = Columns * LLCRows.
	LLCRows int `json:"llc_rows,omitempty"`

	// ExpressFrom, when > 0, wires tree nodes at depth >= ExpressFrom
	// directly to the LLC router instead of chaining through intermediate
	// nodes (§7.1 express links). 0 disables express links.
	ExpressFrom int `json:"express_from,omitempty"`

	// MCCount attaches that many memory-controller endpoints through
	// dedicated ports on the LLC row's edge routers (§4.4: "off-die
	// interfaces ... accessed through dedicated ports in the edge routers
	// of the LLC network"). MC k gets NodeID NumNodes()+k.
	MCCount int `json:"mc_count,omitempty"`

	// BankPorts gives each LLC tile that many bank endpoints with
	// dedicated router ports (§5.1: "LLC tiles are internally banked to
	// maximize throughput"). 0 means banks share the tile's local port.
	BankPorts int `json:"bank_ports,omitempty"`

	TreeBufFlits  int       `json:"tree_buf_flits,omitempty"`  // per-VC buffering in tree nodes (default 3)
	LLCBufFlits   int       `json:"llc_buf_flits,omitempty"`   // per-VC buffering in LLC routers (default 5)
	LLCPipe       sim.Cycle `json:"llc_pipe,omitempty"`        // LLC router pipeline depth (default 3)
	TreeHop       sim.Cycle `json:"tree_hop,omitempty"`        // tree per-hop latency including link (default 1)
	TilesPerCycle int       `json:"tiles_per_cycle,omitempty"` // LLC fbfly link reach (default 2)
	EjectBuf      int       `json:"eject_buf,omitempty"`       // NI eject buffering (default 8)
}

// DefaultNOCOutParams returns the paper's 64-core configuration (Table 1):
// 8 columns, 4 core rows per side, one LLC row of 8 tiles.
func DefaultNOCOutParams() NOCOutParams {
	return NOCOutParams{
		Columns:       8,
		RowsPerSide:   4,
		Concentration: 1,
		LLCRows:       1,
		TreeBufFlits:  3,
		LLCBufFlits:   5,
		LLCPipe:       3,
		TreeHop:       1,
		TilesPerCycle: 2,
		EjectBuf:      8,
	}
}

// WithDefaults returns the configuration with zero fields replaced by the
// paper-baseline values.
func (c NOCOutParams) WithDefaults() NOCOutParams {
	d := DefaultNOCOutParams()
	if c.Columns == 0 {
		c.Columns = d.Columns
	}
	if c.RowsPerSide == 0 {
		c.RowsPerSide = d.RowsPerSide
	}
	if c.Concentration == 0 {
		c.Concentration = 1
	}
	if c.LLCRows == 0 {
		c.LLCRows = 1
	}
	if c.TreeBufFlits == 0 {
		c.TreeBufFlits = d.TreeBufFlits
	}
	if c.LLCBufFlits == 0 {
		c.LLCBufFlits = d.LLCBufFlits
	}
	if c.LLCPipe == 0 {
		c.LLCPipe = d.LLCPipe
	}
	if c.TreeHop == 0 {
		c.TreeHop = d.TreeHop
	}
	if c.TilesPerCycle == 0 {
		c.TilesPerCycle = d.TilesPerCycle
	}
	if c.EjectBuf == 0 {
		c.EjectBuf = d.EjectBuf
	}
	return c
}

// NumCoreNodes returns the number of core-side network endpoints. With
// concentration, several cores share one endpoint.
func (c NOCOutParams) NumCoreNodes() int { return c.Columns * 2 * c.RowsPerSide }

// NumCores returns the total core count.
func (c NOCOutParams) NumCores() int { return c.NumCoreNodes() * c.Concentration }

// NumLLCTiles returns the number of LLC tiles.
func (c NOCOutParams) NumLLCTiles() int { return c.Columns * c.LLCRows }

// CoreNode returns the NodeID for the core endpoint at (col, side, row).
// side 0 is above the LLC row, side 1 below; row 0 is adjacent to the LLC.
func (c NOCOutParams) CoreNode(col, side, row int) noc.NodeID {
	if col < 0 || col >= c.Columns || side < 0 || side > 1 || row < 0 || row >= c.RowsPerSide {
		panic(fmt.Sprintf("topo: invalid NOC-Out core position (%d,%d,%d)", col, side, row))
	}
	return noc.NodeID((col*2+side)*c.RowsPerSide + row)
}

// CoreLoc is the inverse of CoreNode.
func (c NOCOutParams) CoreLoc(n noc.NodeID) (col, side, row int) {
	i := int(n)
	if i < 0 || i >= c.NumCoreNodes() {
		panic(fmt.Sprintf("topo: node %d is not a NOC-Out core endpoint", n))
	}
	row = i % c.RowsPerSide
	cs := i / c.RowsPerSide
	return cs / 2, cs % 2, row
}

// LLCNode returns the NodeID of the LLC tile at (col, llcRow).
func (c NOCOutParams) LLCNode(col, llcRow int) noc.NodeID {
	if col < 0 || col >= c.Columns || llcRow < 0 || llcRow >= c.LLCRows {
		panic(fmt.Sprintf("topo: invalid NOC-Out LLC position (%d,%d)", col, llcRow))
	}
	return noc.NodeID(c.NumCoreNodes() + llcRow*c.Columns + col)
}

// LLCLoc is the inverse of LLCNode.
func (c NOCOutParams) LLCLoc(n noc.NodeID) (col, llcRow int) {
	i := int(n) - c.NumCoreNodes()
	if i < 0 || i >= c.NumLLCTiles() {
		panic(fmt.Sprintf("topo: node %d is not a NOC-Out LLC tile", n))
	}
	return i % c.Columns, i / c.Columns
}

// IsLLCNode reports whether n addresses an LLC tile.
func (c NOCOutParams) IsLLCNode(n noc.NodeID) bool {
	return int(n) >= c.NumCoreNodes() && int(n) < c.NumCoreNodes()+c.NumLLCTiles()
}

// NumNodes returns the count of core endpoints + LLC tiles (memory
// controllers are numbered after these).
func (c NOCOutParams) NumNodes() int { return c.NumCoreNodes() + c.NumLLCTiles() }

// MCNode returns the NodeID of memory controller k.
func (c NOCOutParams) MCNode(k int) noc.NodeID {
	if k < 0 || k >= c.MCCount {
		panic(fmt.Sprintf("topo: invalid NOC-Out MC index %d", k))
	}
	return noc.NodeID(c.NumNodes() + k)
}

// MCAttach returns the LLC tile hosting memory controller k: alternating
// die edges, cycling through LLC rows.
func (c NOCOutParams) MCAttach(k int) (col, llcRow int) {
	col = 0
	if k%2 == 1 {
		col = c.Columns - 1
	}
	return col, (k / 2) % c.LLCRows
}

// TotalNodes includes the memory-controller and bank endpoints.
func (c NOCOutParams) TotalNodes() int {
	return c.NumNodes() + c.MCCount + c.NumLLCTiles()*c.BankPorts
}

// BankNode returns the NodeID of bank port k on LLC tile (col, llcRow).
func (c NOCOutParams) BankNode(col, llcRow, k int) noc.NodeID {
	if k < 0 || k >= c.BankPorts {
		panic(fmt.Sprintf("topo: invalid NOC-Out bank port %d (BankPorts=%d)", k, c.BankPorts))
	}
	tile := llcRow*c.Columns + col
	return noc.NodeID(c.NumNodes() + c.MCCount + tile*c.BankPorts + k)
}

// llcGrid is the floorplan of the LLC region: core-tile-wide columns of
// LLC tiles holding 1 MB each, their width matched to the core tile (§5.1:
// "the aspect ratio of the LLC tiles roughly matches that of the core
// tiles").
func (c NOCOutParams) llcGrid() Floorplan {
	core := math.Sqrt(tech.CoreMM2)
	return Floorplan{Cols: c.Columns, Rows: c.LLCRows, TileW: core, TileH: tech.CacheMM2PerMB / core}
}

// NOCOutRouters lists a NOC-Out network's routers by network, in
// construction order, for §6.2's area split and the power sum.
type NOCOutRouters struct {
	Red, Disp, LLC []*noc.Router
}

// NewNOCOut builds the NOC-Out interconnect, whose connectivity is
// specialized for the bilateral core-to-cache traffic pattern:
//
//   - a reduction tree per half-column carries core requests down to the
//     column's LLC tile through buffered 2-input muxes (§4.1);
//   - a dispersion tree per half-column carries responses and snoops back
//     out through buffered demuxes (§4.2);
//   - the LLC tiles are linked by a flattened butterfly (1-D for a single
//     LLC row, 2-D when scaled) forming a NUCA cache (§4.3);
//   - there are no core-to-core links; every message flows through the LLC
//     region (§4.4).
//
// It also builds the scalability features of §7.1: concentration and
// express links. On the tiled skeleton, the LLC routers are the routers,
// the core endpoints and LLC tiles the tiles, and the memory controllers
// and bank ports the aux endpoints. Core endpoints come first
// (0..NumCoreNodes-1), then LLC tiles, memory controllers and bank ports.
func NewNOCOut(p NOCOutParams) (*noc.RouterNetwork, NOCOutRouters) {
	p = p.WithDefaults()
	nl := p.NumLLCTiles()
	// Aux endpoints: MC k on its edge tile, then every tile's bank ports.
	var aux []noc.NodeID
	for k := 0; k < p.MCCount; k++ {
		aux = append(aux, p.LLCNode(p.MCAttach(k)))
	}
	for i := 0; i < nl; i++ {
		for k := 0; k < p.BankPorts; k++ {
			aux = append(aux, p.LLCNode(i%p.Columns, i/p.Columns))
		}
	}
	t := newTiled("nocout", p.NumNodes(), nl, aux)

	// LLC routers: row ports, column ports, then the tile's local port.
	// Column inputs hold LLCBufFlits+1 flits whatever their link's span,
	// which departs from the row inputs' delay-sized rule only at
	// LLCRows >= 4.
	grid := p.llcGrid()
	b := newButterfly(grid)
	rowDepth := func(dist int) int { return int(FBflyLinkDelay(dist, p.TilesPerCycle)) + p.LLCBufFlits }
	colDepth := func(int) int { return p.LLCBufFlits + 1 }
	for i := 0; i < nl; i++ {
		col, lr := grid.Coord(noc.NodeID(i))
		r := noc.NewRouter(p.LLCNode(col, lr), fmt.Sprintf("llc.r%d_%d", col, lr), p.LLCPipe, nil)
		t.routers[i] = r
		b.ports(i, r, rowDepth, colDepth)
		t.local(p.NumCoreNodes()+i, i, "local", p.LLCBufFlits)
	}
	t.addAux(p.LLCBufFlits)

	// Trees. A core at (col, side, row) hangs off the LLC router at column
	// col in the LLC row nearest its side; that router reaches it through
	// the tree output its row uses, and its NI sits on the tree nodes.
	redPrio := []noc.Cand{
		{Port: 0, VC: noc.ClassResp}, {Port: 1, VC: noc.ClassResp},
		{Port: 0, VC: noc.ClassReq}, {Port: 1, VC: noc.ClassReq},
		{Port: 0, VC: noc.ClassSnoop}, {Port: 1, VC: noc.ClassSnoop},
	}
	dispPrio := []noc.Cand{
		{Port: 0, VC: noc.ClassResp},
		{Port: 0, VC: noc.ClassSnoop},
		{Port: 0, VC: noc.ClassReq},
	}
	toLLC := func(*noc.Packet) int { return 0 } // a reduction node's single output
	express := func(d int) bool { return p.ExpressFrom > 0 && d >= p.ExpressFrom }
	hop := grid.TileW // one tree hop spans one core tile
	var rs NOCOutRouters
	var trees []*noc.Router // per half-column: reduction, then dispersion
	for col := 0; col < p.Columns; col++ {
		for side := 0; side < 2; side++ {
			ri := col
			if side == 1 {
				ri += (p.LLCRows - 1) * p.Columns
			}
			llc := t.routers[ri]

			// Reduction chain: depth RowsPerSide-1 (farthest) .. 0.
			red := make([]*noc.Router, p.RowsPerSide)
			for d := range red {
				r := noc.NewRouter(-1, fmt.Sprintf("red.c%d_s%d_d%d", col, side, d), 0, toLLC)
				r.AddIn("net", p.TreeBufFlits)
				r.AddIn("local", p.TreeBufFlits)
				r.AddOut("down")
				r.SetPriority(redPrio)
				r.SetVCCount(2) // requests + responses only (§4.1)
				red[d] = r
			}
			for d, r := range red {
				switch {
				case express(d): // a direct long link to a dedicated LLC input
					in := llc.AddIn(fmt.Sprintf("xred%d_%d", side, d), p.TreeBufFlits)
					noc.Connect(r, 0, llc, in, FBflyLinkDelay(d+1, p.TilesPerCycle), float64(d+1)*hop)
				case d == 0:
					in := llc.AddIn(fmt.Sprintf("red%d", side), p.TreeBufFlits)
					noc.Connect(r, 0, llc, in, p.TreeHop, hop)
				default:
					noc.Connect(r, 0, red[d-1], 0, p.TreeHop, hop)
				}
			}

			// Dispersion chain: depth 0 (adjacent) .. RowsPerSide-1.
			disp := make([]*noc.Router, p.RowsPerSide)
			for d := range disp {
				r := noc.NewRouter(-1, fmt.Sprintf("disp.c%d_s%d_d%d", col, side, d), 0, nil)
				r.AddIn("net", p.TreeBufFlits)
				local, up := r.AddOut("local"), -1
				if d < p.RowsPerSide-1 && !express(d+1) {
					up = r.AddOut("up")
				}
				r.SetRoute(func(pk *noc.Packet) int {
					if _, _, row := p.CoreLoc(pk.Dst); row != d {
						if up < 0 {
							panic(fmt.Sprintf("topo: dispersion node %s cannot reach row %d", r.Name, row))
						}
						return up
					}
					return local
				})
				r.SetPriority(dispPrio)
				r.SetVCCount(2) // responses + snoops only (§4.2)
				disp[d] = r
			}
			// Rows reached through the chain share the LLC router's chain
			// output; express rows get their own.
			chain := -1
			for d, r := range disp {
				out := chain
				switch {
				case express(d):
					out = llc.AddOut(fmt.Sprintf("xdisp%d_%d", side, d))
					noc.Connect(llc, out, r, 0, FBflyLinkDelay(d+1, p.TilesPerCycle), float64(d+1)*hop)
				case d == 0:
					out = llc.AddOut(fmt.Sprintf("disp%d", side))
					chain = out
					noc.Connect(llc, out, r, 0, p.TreeHop, hop)
				default:
					noc.Connect(disp[d-1], 1, r, 0, p.TreeHop, hop)
				}
				id := p.CoreNode(col, side, d)
				t.host[id], t.in[id], t.out[id] = ri, -1, out
				ni := noc.NewNI(id)
				noc.ConnectNIInject(ni, red[d], 1, 1)
				noc.ConnectNIEject(ni, r, 0, 1, p.EjectBuf)
				t.rn.NIs[id] = ni
			}
			rs.Red = append(rs.Red, red...)
			rs.Disp = append(rs.Disp, disp...)
			trees = append(append(trees, red...), disp...)
		}
	}

	t.route(b.toward)
	b.wire(t.routers, p.TilesPerCycle)
	rn := t.attach(p.EjectBuf)
	rs.LLC = t.routers
	rn.Routers = append(trees, t.routers...)
	return rn, rs
}
