package nocout

import (
	"nocout/internal/chip"
	"nocout/internal/noc"
	"nocout/internal/physic"
	"nocout/internal/registry"
	"nocout/internal/topo"
)

// This file extends the design space beyond the paper's four
// organizations, registered through the same public RegisterDesign path a
// user organization takes (EXPERIMENTS.md walks through the torus as the
// worked example):
//
//   - Torus: the mesh's grid with folded wrap-around links — half the
//     diameter for twice the wire, a natural "what if we just shorten the
//     mesh" counterfactual to NOC-Out's specialization argument. Bubble
//     flow control keeps its rings deadlock-free.
//   - CMesh: a 4:1 concentrated mesh — 2x2 tile blocks share one router,
//     so the 64-tile chip routes through a 4x4 mesh; fewer, higher-radix
//     routers, the standard CMP answer to mesh hop count.
//   - Crossbar: the §2.2 background design — the Oracle T-series-style
//     central switch whose quadratic area is why scale-out parts stopped
//     at ~16 cores; resurrected here so the registry can sweep it against
//     the paper's fabrics.

// The extended organizations' Design handles, minted at package init in
// this order (after the builtin four).
var (
	Torus    = registry.Must(RegisterDesign(chip.Tiled("Torus", []string{"2d-torus"}, torusNet, physic.FlipFlop)))
	CMesh    = registry.Must(RegisterDesign(chip.Tiled("CMesh", []string{"concentrated-mesh"}, cmeshNet, physic.FlipFlop)))
	Crossbar = registry.Must(RegisterDesign(chip.Tiled("Crossbar", []string{"xbar", "central-crossbar"}, crossbarNet, physic.FlipFlop)))
)

func torusNet(plan topo.Floorplan, aux []noc.NodeID, linkBits int) *noc.RouterNetwork {
	p := topo.DefaultTorusParams(plan)
	// The bubble thresholds must cover the largest protocol packet: a
	// 64-byte line plus header at this link width.
	p.MaxPktFlits = noc.FlitsFor(64, linkBits)
	p.AuxTiles = aux
	return topo.NewTorus(p)
}

func cmeshNet(plan topo.Floorplan, aux []noc.NodeID, _ int) *noc.RouterNetwork {
	p := topo.DefaultMeshParams(plan)
	p.Block = 2
	p.AuxTiles = aux
	return topo.NewMesh(p)
}

func crossbarNet(plan topo.Floorplan, aux []noc.NodeID, _ int) *noc.RouterNetwork {
	p := topo.DefaultCrossbarParams(plan)
	p.AuxTiles = aux
	return topo.NewCrossbar(p)
}
