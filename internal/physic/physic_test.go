package physic

import (
	"testing"

	"nocout/internal/noc"
	"nocout/internal/topo"
)

// area models a default tiled fabric of cores tiles (8 MB LLC) the way the
// tiled organizations do: its routers without memory-channel ports.
func area(net func(topo.Floorplan) *noc.RouterNetwork, cores, linkBits int, kind BufferKind) Breakdown {
	return RoutersArea(net(topo.TiledFloorplan(cores, 8)).Routers, linkBits, kind)
}

func meshNet(plan topo.Floorplan) *noc.RouterNetwork {
	return topo.NewMesh(topo.DefaultMeshParams(plan))
}

func cmeshNet(plan topo.Floorplan) *noc.RouterNetwork {
	p := topo.DefaultMeshParams(plan)
	p.Block = 2
	return topo.NewMesh(p)
}

func fbflyNet(plan topo.Floorplan) *noc.RouterNetwork {
	return topo.NewFBfly(topo.DefaultFBflyParams(plan))
}

func torusNet(plan topo.Floorplan) *noc.RouterNetwork {
	return topo.NewTorus(topo.DefaultTorusParams(plan))
}

func crossbarNet(plan topo.Floorplan) *noc.RouterNetwork {
	return topo.NewCrossbar(topo.DefaultCrossbarParams(plan))
}

func TestFigure8AreaAnchors(t *testing.T) {
	mesh := area(meshNet, 64, 128, FlipFlop)
	fbfly := area(fbflyNet, 64, 128, SRAM)
	nocout := NOCOutTotalArea(topo.DefaultNOCOutParams(), 128)

	within := func(name string, got, lo, hi float64) {
		if got < lo || got > hi {
			t.Errorf("%s area = %.2f mm², want within [%.1f, %.1f]", name, got, lo, hi)
		}
	}
	// §6.2 anchors with calibration tolerance.
	within("mesh", mesh.Total(), 3.0, 4.0)
	within("fbfly", fbfly.Total(), 19, 27)
	within("nocout", nocout.Total(), 2.3, 3.4)

	if !(nocout.Total() < mesh.Total() && mesh.Total() < fbfly.Total()) {
		t.Fatalf("ordering violated: nocout %.2f, mesh %.2f, fbfly %.2f",
			nocout.Total(), mesh.Total(), fbfly.Total())
	}
	if r := fbfly.Total() / nocout.Total(); r < 6 {
		t.Fatalf("fbfly/nocout area ratio = %.1f, want >= 6 (paper: ~9x)", r)
	}
	if r := fbfly.Total() / mesh.Total(); r < 5 {
		t.Fatalf("fbfly/mesh area ratio = %.1f, want >= 5 (paper: ~7x)", r)
	}
}

func TestNOCOutAreaComposition(t *testing.T) {
	red, disp, llc := NOCOutArea(topo.DefaultNOCOutParams(), 128)
	total := red.Add(disp).Add(llc).Total()
	// §6.2: the LLC butterfly is the majority of NOC-Out's area while
	// linking a small fraction of tiles; each tree network is a modest
	// share.
	if llc.Total() < red.Total() || llc.Total() < disp.Total() {
		t.Fatalf("LLC network (%.2f) should dominate trees (%.2f, %.2f)",
			llc.Total(), red.Total(), disp.Total())
	}
	if frac := llc.Total() / total; frac < 0.45 || frac > 0.8 {
		t.Fatalf("LLC share = %.2f, want around 0.64", frac)
	}
	for _, tr := range []struct {
		name string
		b    Breakdown
	}{{"reduction", red}, {"dispersion", disp}} {
		if frac := tr.b.Total() / total; frac < 0.08 || frac > 0.3 {
			t.Errorf("%s share = %.2f, want around 0.18", tr.name, frac)
		}
	}
}

func TestFBflyBreakdownLinkDominated(t *testing.T) {
	f := area(fbflyNet, 64, 128, SRAM)
	// The paper attributes fbfly's footprint to its link budget and
	// many-ported routers.
	if f.Links < f.Buffers {
		t.Fatalf("fbfly links (%.2f) should exceed buffers (%.2f)", f.Links, f.Buffers)
	}
	if f.Links < 0.4*f.Total() {
		t.Fatalf("fbfly links = %.2f of %.2f: links should dominate", f.Links, f.Total())
	}
}

func TestAreaScalesWithWidth(t *testing.T) {
	prev := 0.0
	for _, w := range []int{32, 64, 128, 256} {
		a := area(meshNet, 64, w, FlipFlop).Total()
		if a <= prev {
			t.Fatalf("area must grow with link width: %.2f at %d bits after %.2f", a, w, prev)
		}
		prev = a
	}
}

func TestExtendedDesignAreas(t *testing.T) {
	mesh := area(meshNet, 64, 128, FlipFlop)
	torus := area(torusNet, 64, 128, FlipFlop)
	cmesh := area(cmeshNet, 64, 128, FlipFlop)
	xbar := area(crossbarNet, 64, 128, FlipFlop)
	for _, c := range []struct {
		name string
		b    Breakdown
	}{{"torus", torus}, {"cmesh", cmesh}, {"crossbar", xbar}} {
		if c.b.Total() <= 0 {
			t.Errorf("%s area = %v, want positive", c.name, c.b)
		}
	}
	// The torus buys its halved diameter with folded two-tile links and the
	// deep ring buffers bubble flow control needs: more area than the mesh.
	if torus.Total() <= mesh.Total() {
		t.Errorf("torus (%.2f) should out-cost the mesh (%.2f)", torus.Total(), mesh.Total())
	}
	if torus.Links <= mesh.Links {
		t.Errorf("folded torus links (%.2f) should exceed mesh links (%.2f)", torus.Links, mesh.Links)
	}
	// Concentration trades router count for radix: fewer, larger routers
	// with a smaller total buffer budget than the mesh.
	if cmesh.Buffers >= mesh.Buffers {
		t.Errorf("cmesh buffers (%.2f) should undercut mesh buffers (%.2f)", cmesh.Buffers, mesh.Buffers)
	}
	// §2.2: the central switch is what blows up at 64 tiles.
	if xbar.Crossbar < mesh.Crossbar {
		t.Errorf("64-port central switch (%.2f) should exceed the mesh's switch budget (%.2f)",
			xbar.Crossbar, mesh.Crossbar)
	}
}

func TestCrossbarAreaGrowsSuperlinearly(t *testing.T) {
	a16 := area(crossbarNet, 16, 128, FlipFlop)
	a64 := area(crossbarNet, 64, 128, FlipFlop)
	if ratio := a64.Crossbar / a16.Crossbar; ratio < 10 {
		t.Fatalf("central switch should grow quadratically with tiles: 64c/16c = %.1f", ratio)
	}
}

func TestPowerModel(t *testing.T) {
	area := area(meshNet, 64, 128, FlipFlop)
	idle := NetworkPower(noc.Stats{}, nil, 10000, 128, area)
	if idle.LinkW != 0 || idle.RouterW != 0 {
		t.Fatal("idle network should dissipate only leakage")
	}
	if idle.LeakageW <= 0 {
		t.Fatal("leakage must be positive")
	}
	busy := NetworkPower(noc.Stats{FlitLinkMM: 1e6}, nil, 10000, 128, area)
	if busy.LinkW <= 0 {
		t.Fatal("link activity must dissipate power")
	}
	// Twice the activity in the same window doubles dynamic power.
	busy2 := NetworkPower(noc.Stats{FlitLinkMM: 2e6}, nil, 10000, 128, area)
	if busy2.LinkW < busy.LinkW*1.99 || busy2.LinkW > busy.LinkW*2.01 {
		t.Fatalf("link power not linear in activity: %v vs %v", busy2.LinkW, busy.LinkW)
	}
	if zero := NetworkPower(noc.Stats{}, nil, 0, 128, area); zero.Total() != zero.LeakageW {
		t.Fatal("zero-cycle window must be leakage only")
	}
}

func TestBreakdownArithmetic(t *testing.T) {
	a := Breakdown{Links: 1, Buffers: 2, Crossbar: 3}
	b := a.Add(a)
	if b.Total() != 12 {
		t.Fatalf("Add: %v", b)
	}
	if s := a.Scale(2); s.Total() != 12 || s.Links != 2 {
		t.Fatalf("Scale: %v", s)
	}
	if a.String() == "" {
		t.Fatal("String empty")
	}
}
