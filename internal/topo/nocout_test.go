package topo

import (
	"testing"
	"testing/quick"

	"nocout/internal/noc"
	"nocout/internal/sim"
)

func TestNOCOutParamsDefaults(t *testing.T) {
	c := DefaultNOCOutParams()
	if c.NumCores() != 64 {
		t.Fatalf("default cores = %d, want 64", c.NumCores())
	}
	if c.NumLLCTiles() != 8 {
		t.Fatalf("LLC tiles = %d, want 8", c.NumLLCTiles())
	}
	if c.NumNodes() != 72 {
		t.Fatalf("nodes = %d, want 72", c.NumNodes())
	}
}

func TestNOCOutNodeNumberingRoundTrip(t *testing.T) {
	c := DefaultNOCOutParams()
	seen := map[noc.NodeID]bool{}
	for col := 0; col < c.Columns; col++ {
		for side := 0; side < 2; side++ {
			for row := 0; row < c.RowsPerSide; row++ {
				n := c.CoreNode(col, side, row)
				if seen[n] {
					t.Fatalf("duplicate core node %d", n)
				}
				seen[n] = true
				c2, s2, r2 := c.CoreLoc(n)
				if c2 != col || s2 != side || r2 != row {
					t.Fatalf("CoreLoc(CoreNode(%d,%d,%d)) = (%d,%d,%d)", col, side, row, c2, s2, r2)
				}
				if c.IsLLCNode(n) {
					t.Fatalf("core node %d classified as LLC", n)
				}
			}
		}
	}
	for col := 0; col < c.Columns; col++ {
		n := c.LLCNode(col, 0)
		if seen[n] {
			t.Fatalf("LLC node %d collides with a core node", n)
		}
		if !c.IsLLCNode(n) {
			t.Fatalf("LLC node %d not classified as LLC", n)
		}
		c2, r2 := c.LLCLoc(n)
		if c2 != col || r2 != 0 {
			t.Fatalf("LLCLoc round trip failed for col %d", col)
		}
	}
}

func TestNOCOutNodeNumberingProperty(t *testing.T) {
	cfg := NOCOutParams{Columns: 4, RowsPerSide: 2, LLCRows: 2}.WithDefaults()
	err := quick.Check(func(a, b, c uint8) bool {
		col := int(a) % cfg.Columns
		side := int(b) % 2
		row := int(c) % cfg.RowsPerSide
		c2, s2, r2 := cfg.CoreLoc(cfg.CoreNode(col, side, row))
		return c2 == col && s2 == side && r2 == row
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// nocoutTrip builds p's network, sends one packet and returns it after
// delivery.
func nocoutTrip(t *testing.T, p NOCOutParams, src, dst noc.NodeID, class noc.Class, size int) *noc.Packet {
	t.Helper()
	rn, _ := NewNOCOut(p)
	e := sim.NewEngine()
	e.Register(rn)
	var got *noc.Packet
	rn.SetDeliver(dst, func(now sim.Cycle, pk *noc.Packet) { got = pk })
	rn.Send(e.Now(), &noc.Packet{ID: 1, Class: class, Src: src, Dst: dst, Size: size})
	if !e.RunUntil(func() bool { return got != nil }, 10000) {
		t.Fatalf("packet %d -> %d never delivered", src, dst)
	}
	return got
}

func TestNOCOutCoreToOwnColumnLLCLatency(t *testing.T) {
	cfg := DefaultNOCOutParams()
	// Adjacent core (row 0): inject 1 + NI wire 1 + red node (hop 1) +
	// LLC router (pipe 3 + eject 1) = 7.
	p := nocoutTrip(t, cfg, cfg.CoreNode(0, 0, 0), cfg.LLCNode(0, 0), noc.ClassReq, 1)
	if p.Latency() != 7 {
		t.Fatalf("adjacent core->LLC latency = %d, want 7", p.Latency())
	}
	if p.Hops() != 2 { // reduction node + LLC router
		t.Fatalf("hops = %d, want 2", p.Hops())
	}
	// Farthest core (row 3): three more tree hops.
	p2 := nocoutTrip(t, cfg, cfg.CoreNode(0, 0, 3), cfg.LLCNode(0, 0), noc.ClassReq, 1)
	if p2.Latency() != 10 {
		t.Fatalf("far core->LLC latency = %d, want 10", p2.Latency())
	}
}

func TestNOCOutCoreToRemoteLLCCrossesButterfly(t *testing.T) {
	cfg := DefaultNOCOutParams()
	p := nocoutTrip(t, cfg, cfg.CoreNode(0, 0, 0), cfg.LLCNode(7, 0), noc.ClassReq, 1)
	// One extra LLC router + a 7-tile link (4 cycles at 2 tiles/cycle).
	if p.Hops() != 3 {
		t.Fatalf("hops = %d, want 3 (red node, column 0 LLC router, column 7 LLC router)", p.Hops())
	}
	local := nocoutTrip(t, cfg, cfg.CoreNode(0, 0, 0), cfg.LLCNode(0, 0), noc.ClassReq, 1)
	if p.Latency() <= local.Latency() {
		t.Fatal("remote bank access must be slower than local")
	}
}

func TestNOCOutLLCToCoreDispersion(t *testing.T) {
	cfg := DefaultNOCOutParams()
	// Response from LLC tile 3 to a bottom-side core in column 5, row 2.
	p := nocoutTrip(t, cfg, cfg.LLCNode(3, 0), cfg.CoreNode(5, 1, 2), noc.ClassResp, 5)
	// Path: LLC router 3 -> LLC router 5 -> 3 dispersion nodes.
	if p.Hops() != 5 {
		t.Fatalf("hops = %d, want 5", p.Hops())
	}
}

func TestNOCOutSnoopDelivery(t *testing.T) {
	cfg := DefaultNOCOutParams()
	p := nocoutTrip(t, cfg, cfg.LLCNode(0, 0), cfg.CoreNode(0, 0, 3), noc.ClassSnoop, 1)
	if p.Latency() <= 0 {
		t.Fatal("snoop not delivered")
	}
}

func TestNOCOutCoreToCoreFlowsThroughLLCRegion(t *testing.T) {
	// §4.4: no direct core-to-core links; L1-to-L1 forwards traverse the
	// LLC region (reduction tree -> LLC router(s) -> dispersion tree).
	cfg := DefaultNOCOutParams()
	src := cfg.CoreNode(2, 0, 1)
	dst := cfg.CoreNode(2, 0, 2) // same column, one row apart
	p := nocoutTrip(t, cfg, src, dst, noc.ClassResp, 5)
	// Even for adjacent cores the path is: 2 reduction hops down, the LLC
	// router, and 3 dispersion hops back up = 6 router traversals.
	if p.Hops() != 6 {
		t.Fatalf("hops = %d, want 6 (must descend to the LLC region)", p.Hops())
	}
}

// deliverAll sends every packet on p's network and fails unless all
// arrive within limit cycles.
func deliverAll(t *testing.T, p NOCOutParams, pkts []*noc.Packet, limit sim.Cycle) {
	t.Helper()
	rn, _ := NewNOCOut(p)
	e := sim.NewEngine()
	e.Register(rn)
	delivered := 0
	for _, pk := range pkts {
		rn.SetDeliver(pk.Dst, func(now sim.Cycle, _ *noc.Packet) { delivered++ })
	}
	for _, pk := range pkts {
		rn.Send(e.Now(), pk)
	}
	if !e.RunUntil(func() bool { return delivered == len(pkts) }, limit) {
		t.Fatalf("delivered %d/%d", delivered, len(pkts))
	}
}

// coreLLCTraffic returns one packet from every core endpoint to every LLC
// tile when toLLC, else one from every LLC tile to every core endpoint.
func coreLLCTraffic(cfg NOCOutParams, toLLC bool) []*noc.Packet {
	var pkts []*noc.Packet
	for tile := 0; tile < cfg.NumLLCTiles(); tile++ {
		llc := cfg.LLCNode(tile%cfg.Columns, tile/cfg.Columns)
		for cn := 0; cn < cfg.NumCoreNodes(); cn++ {
			pk := &noc.Packet{ID: uint64(len(pkts)), Class: noc.ClassResp, Src: llc, Dst: noc.NodeID(cn), Size: 5}
			if toLLC {
				pk.Class, pk.Src, pk.Dst, pk.Size = noc.ClassReq, noc.NodeID(cn), llc, 1
			}
			pkts = append(pkts, pk)
		}
	}
	return pkts
}

func TestNOCOutAllCoresReachAllBanks(t *testing.T) {
	cfg := DefaultNOCOutParams()
	deliverAll(t, cfg, coreLLCTraffic(cfg, true), 200000)
}

func TestNOCOutAllBanksReachAllCores(t *testing.T) {
	cfg := DefaultNOCOutParams()
	deliverAll(t, cfg, coreLLCTraffic(cfg, false), 500000)
}

func TestNOCOutExpressLinksReduceFarCoreLatency(t *testing.T) {
	slow := NOCOutParams{Columns: 4, RowsPerSide: 8}.WithDefaults()
	fast := slow
	fast.ExpressFrom = 4
	src := slow.CoreNode(1, 0, 7) // farthest row
	dst := slow.LLCNode(1, 0)
	ps := nocoutTrip(t, slow, src, dst, noc.ClassReq, 1)
	pf := nocoutTrip(t, fast, src, dst, noc.ClassReq, 1)
	if pf.Latency() >= ps.Latency() {
		t.Fatalf("express link should cut far-core latency: express=%d chain=%d", pf.Latency(), ps.Latency())
	}
	// Near rows are unaffected.
	near := nocoutTrip(t, fast, slow.CoreNode(1, 0, 0), dst, noc.ClassReq, 1)
	if near.Latency() != 7 {
		t.Fatalf("near-core latency changed under express links: %d", near.Latency())
	}
}

func TestNOCOutConcentrationScalesCores(t *testing.T) {
	c := NOCOutParams{Columns: 8, RowsPerSide: 4, Concentration: 2}.WithDefaults()
	if c.NumCores() != 128 {
		t.Fatalf("128-core concentrated config reports %d cores", c.NumCores())
	}
	if c.NumCoreNodes() != 64 {
		t.Fatalf("concentration must not add network endpoints: %d", c.NumCoreNodes())
	}
	// The network still builds and delivers.
	p := nocoutTrip(t, c, c.CoreNode(0, 0, 0), c.LLCNode(0, 0), noc.ClassReq, 1)
	if p.Latency() <= 0 {
		t.Fatal("concentrated network failed to deliver")
	}
}

func TestNOCOutTwoLLCRowsBuildAndRoute(t *testing.T) {
	c := NOCOutParams{Columns: 4, RowsPerSide: 2, LLCRows: 2}.WithDefaults()
	// Top core to bottom-attached LLC row.
	p := nocoutTrip(t, c, c.CoreNode(0, 0, 0), c.LLCNode(0, 1), noc.ClassReq, 1)
	if p.Hops() < 3 {
		t.Fatalf("cross-LLC-row access should traverse both LLC routers; hops=%d", p.Hops())
	}
	// Response from top LLC row to a bottom core crosses rows too.
	p2 := nocoutTrip(t, c, c.LLCNode(2, 0), c.CoreNode(2, 1, 1), noc.ClassResp, 5)
	if p2.Latency() <= 0 {
		t.Fatal("no delivery across LLC rows")
	}
}

func TestNOCOutReductionTreePrioritizesNetworkOverLocal(t *testing.T) {
	// Saturate a column from the far core and the near core; the near
	// core's node must let network traffic (from the far core) through
	// first under the static priority, mitigating the distance penalty.
	cfg := DefaultNOCOutParams()
	n, _ := NewNOCOut(cfg)
	e := sim.NewEngine()
	e.Register(n)
	far := cfg.CoreNode(0, 0, 3)
	near := cfg.CoreNode(0, 0, 0)
	dst := cfg.LLCNode(0, 0)
	var farDone, nearDone int
	n.SetDeliver(dst, func(now sim.Cycle, p *noc.Packet) {
		if p.Src == far {
			farDone++
		} else {
			nearDone++
		}
	})
	const k = 50
	for i := 0; i < k; i++ {
		n.Send(e.Now(), &noc.Packet{ID: uint64(i), Class: noc.ClassReq, Src: far, Dst: dst, Size: 1})
		n.Send(e.Now(), &noc.Packet{ID: uint64(1000 + i), Class: noc.ClassReq, Src: near, Dst: dst, Size: 1})
	}
	e.RunUntil(func() bool { return farDone == k && nearDone == k }, 50000)
	if farDone != k || nearDone != k {
		t.Fatalf("far=%d near=%d, want %d each", farDone, nearDone, k)
	}
}

func TestNOCOutTreeInventoryMatchesPaper(t *testing.T) {
	rn, rs := NewNOCOut(DefaultNOCOutParams())
	// 8 columns x 2 sides x 4 rows: 64 reduction nodes and 64 dispersion
	// nodes; 8 LLC routers.
	if len(rs.Red) != 64 || len(rs.Disp) != 64 {
		t.Fatalf("tree nodes = %d red, %d disp; want 64 each", len(rs.Red), len(rs.Disp))
	}
	if len(rs.LLC) != 8 {
		t.Fatalf("LLC routers = %d, want 8", len(rs.LLC))
	}
	if len(rn.Routers) != 136 {
		t.Fatalf("network registers %d routers, want 136", len(rn.Routers))
	}
	for _, r := range rs.Red {
		if r.NumIn() != 2 || r.NumOut() != 1 {
			t.Fatalf("reduction node %s has %d in / %d out; §4.1 says 2-input mux", r.Name, r.NumIn(), r.NumOut())
		}
		if r.VCCount() != 2 {
			t.Fatalf("reduction node VCs = %d, want 2 (Table 1)", r.VCCount())
		}
	}
	for _, r := range rs.Disp {
		if r.NumIn() != 1 {
			t.Fatalf("dispersion node %s has %d inputs; §4.2 says demux", r.Name, r.NumIn())
		}
		if r.NumOut() > 2 {
			t.Fatalf("dispersion node %s has %d outputs", r.Name, r.NumOut())
		}
		if r.VCCount() != 2 {
			t.Fatalf("dispersion node VCs = %d, want 2", r.VCCount())
		}
	}
	for _, r := range rs.LLC {
		// 7 row ports + local + 2 reduction tree-ins = 10 inputs;
		// 7 row + local + 2 dispersion tree-outs = 10 outputs.
		if r.NumIn() != 10 || r.NumOut() != 10 {
			t.Fatalf("LLC router %s: %d in / %d out, want 10/10", r.Name, r.NumIn(), r.NumOut())
		}
	}
}

func TestNOCOutMCEndpointsDedicatedPorts(t *testing.T) {
	c := DefaultNOCOutParams()
	c.MCCount = 4
	n, rs := NewNOCOut(c)
	// The MC ports add one input and one output to each hosting edge
	// router (2 MCs per edge router here).
	for i, r := range rs.LLC {
		col := i % c.Columns
		wantExtra := 0
		for k := 0; k < 4; k++ {
			mcol, _ := c.MCAttach(k)
			if mcol == col {
				wantExtra++
			}
		}
		if got := r.NumIn() - 10; got != wantExtra {
			t.Fatalf("router col %d: %d MC input ports, want %d", col, got, wantExtra)
		}
	}
	// Traffic to and from MCs flows.
	e := sim.NewEngine()
	e.Register(n)
	var got *noc.Packet
	n.SetDeliver(c.MCNode(3), func(now sim.Cycle, p *noc.Packet) { got = p })
	n.Send(e.Now(), &noc.Packet{ID: 1, Class: noc.ClassReq, Src: c.LLCNode(4, 0), Dst: c.MCNode(3), Size: 1})
	if !e.RunUntil(func() bool { return got != nil }, 1000) {
		t.Fatal("bank -> MC packet never delivered")
	}
	var back *noc.Packet
	n.SetDeliver(c.LLCNode(4, 0), func(now sim.Cycle, p *noc.Packet) { back = p })
	n.Send(e.Now(), &noc.Packet{ID: 2, Class: noc.ClassResp, Src: c.MCNode(3), Dst: c.LLCNode(4, 0), Size: 5})
	if !e.RunUntil(func() bool { return back != nil }, 1000) {
		t.Fatal("MC -> bank packet never delivered")
	}
}

func TestNOCOutMCAccessorsValidate(t *testing.T) {
	cfg := DefaultNOCOutParams()
	cfg.MCCount = 2
	if cfg.MCNode(0) != noc.NodeID(cfg.NumNodes()) {
		t.Fatal("MC nodes must be numbered after cores and LLC tiles")
	}
	col0, _ := cfg.MCAttach(0)
	col1, _ := cfg.MCAttach(1)
	if col0 != 0 || col1 != cfg.Columns-1 {
		t.Fatalf("MCs should alternate die edges: %d, %d", col0, col1)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cfg.MCNode(2)
}

func TestNOCOutExpressDeliversAllPairs(t *testing.T) {
	// Every bank responds to every core, exercising express dispersion.
	cfg := NOCOutParams{Columns: 4, RowsPerSide: 8, ExpressFrom: 4}.WithDefaults()
	deliverAll(t, cfg, coreLLCTraffic(cfg, false), 500000)
}

func TestNOCOutRandomPairsDeliverProperty(t *testing.T) {
	c := NOCOutParams{Columns: 4, RowsPerSide: 2, LLCRows: 2}.WithDefaults()
	n, _ := NewNOCOut(c)
	e := sim.NewEngine()
	e.Register(n)
	inbox := map[noc.NodeID]int{}
	for i := 0; i < c.NumNodes(); i++ {
		id := noc.NodeID(i)
		n.SetDeliver(id, func(now sim.Cycle, p *noc.Packet) { inbox[p.Dst]++ })
	}
	sent := 0
	check := func(srcRaw, dstRaw uint8) bool {
		// Cores talk to LLC tiles and vice versa (the bilateral pattern);
		// core-to-core also legal (forwards).
		src := noc.NodeID(int(srcRaw) % c.NumNodes())
		dst := noc.NodeID(int(dstRaw) % c.NumNodes())
		if src == dst {
			return true
		}
		// LLC->LLC requests only travel between tiles.
		class := noc.ClassReq
		if c.IsLLCNode(src) {
			class = noc.ClassResp
		}
		n.Send(e.Now(), &noc.Packet{ID: uint64(sent), Class: class, Src: src, Dst: dst, Size: 1})
		sent++
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	total := 0
	if !e.RunUntil(func() bool {
		total = 0
		for _, v := range inbox {
			total += v
		}
		return total == sent
	}, 200000) {
		t.Fatalf("delivered %d/%d random packets", total, sent)
	}
}

func TestNOCOutGeometry(t *testing.T) {
	g := DefaultNOCOutParams().llcGrid()
	if g.TileW <= 0 {
		t.Fatal("core tile must have positive size")
	}
	// 1MB of LLC at 3.2mm²/MB over a ~1.7mm-wide tile is ~1.9mm tall.
	if g.TileH < 1.5 || g.TileH > 2.5 {
		t.Fatalf("LLC tile height = %v mm, expected ~1.9", g.TileH)
	}
}
