package chip

import (
	"fmt"
	"sort"

	"nocout/internal/noc"
	"nocout/internal/physic"
	"nocout/internal/topo"
)

// This file ports the paper's four organizations onto the Organization
// interface. Each is a stateless value registered in organization.go's
// init; extension designs (torus, cmesh, crossbar) live in the public
// package and register through the same API.

// --- Router-based tiled fabrics (Figures 2 and 3, and extensions) ----------

// TiledNet builds a tiled fabric's router network on plan, with the
// memory channels attached at the aux tiles (none for the area model) and
// links linkBits wide.
type TiledNet func(plan topo.Floorplan, aux []noc.NodeID, linkBits int) *noc.RouterNetwork

// tiledOrg is the Organization of every router-based tiled fabric: a
// TiledFloorplan chip whose network comes from net and whose buffers are
// built from kind cells.
type tiledOrg struct {
	name    string
	aliases []string
	net     TiledNet
	kind    physic.BufferKind
}

// Tiled returns the organization of a router-based tiled fabric: one core,
// LLC slice and router port per tile (TiledFabric), with its area taken
// from the routers net builds without memory-channel ports.
func Tiled(name string, aliases []string, net TiledNet, kind physic.BufferKind) Organization {
	return tiledOrg{name: name, aliases: aliases, net: net, kind: kind}
}

func (o tiledOrg) Name() string        { return o.name }
func (o tiledOrg) Aliases() []string   { return o.aliases }
func (tiledOrg) DefaultConfig() Config { return Table1Config() }

func (o tiledOrg) Build(cfg Config) *Fabric {
	plan := topo.TiledFloorplan(cfg.Cores, float64(cfg.LLCMB))
	rn := o.net(plan, topo.MCTiles(plan, cfg.MemChannels), cfg.LinkBits)
	return TiledFabric(cfg, plan, rn, rn.Routers)
}

func (o tiledOrg) AreaModel(cfg Config) (physic.Breakdown, physic.BufferKind) {
	plan := topo.TiledFloorplan(cfg.Cores, float64(cfg.LLCMB))
	return physic.RoutersArea(o.net(plan, nil, cfg.LinkBits).Routers, cfg.LinkBits, o.kind), o.kind
}

// The paper's tiled baselines: the mesh (Figure 2) and the flattened
// butterfly (Figure 3), whose deep per-distance buffers make SRAM cells
// the right circuit (§5.2).
var (
	meshOrg  = Tiled("Mesh", nil, meshNet, physic.FlipFlop)
	fbflyOrg = Tiled("Flattened Butterfly", []string{"fbfly", "flattened-butterfly"}, fbflyNet, physic.SRAM)
)

func meshNet(plan topo.Floorplan, aux []noc.NodeID, _ int) *noc.RouterNetwork {
	p := topo.DefaultMeshParams(plan)
	p.AuxTiles = aux
	return topo.NewMesh(p)
}

func fbflyNet(plan topo.Floorplan, aux []noc.NodeID, _ int) *noc.RouterNetwork {
	p := topo.DefaultFBflyParams(plan)
	p.AuxTiles = aux
	return topo.NewFBfly(p)
}

// --- Ideal (Figure 1's wire-only fabric) ------------------------------------

type idealOrg struct{}

func (idealOrg) Name() string          { return "Ideal" }
func (idealOrg) Aliases() []string     { return nil }
func (idealOrg) DefaultConfig() Config { return Table1Config() }

func (idealOrg) Build(cfg Config) *Fabric {
	plan := topo.TiledFloorplan(cfg.Cores, float64(cfg.LLCMB))
	aux := topo.MCTiles(plan, cfg.MemChannels)
	return TiledFabric(cfg, plan, topo.NewIdeal(plan, aux...), nil)
}

func (idealOrg) AreaModel(cfg Config) (physic.Breakdown, physic.BufferKind) {
	// The idealization exposes only wire delay: no routers, no buffers, no
	// switches, and its wires route over logic — zero modelled NoC area by
	// construction, not by fallback.
	return physic.Breakdown{}, physic.FlipFlop
}

// --- NOC-Out (§4) -----------------------------------------------------------

type nocoutOrg struct{}

func (nocoutOrg) Name() string          { return "NOC-Out" }
func (nocoutOrg) Aliases() []string     { return []string{"nocout"} }
func (nocoutOrg) DefaultConfig() Config { return Table1Config() }

// shape resolves the NOC-Out organization for cfg: the fields
// Config.NOCOut sets are kept and the zero ones take the paper's
// defaults. With neither Columns nor RowsPerSide set, the grid is the
// paper's 8x4 when that yields cfg.Cores, else a near-square grid for the
// core endpoints. The result must match the core count.
func (nocoutOrg) shape(cfg Config) topo.NOCOutParams {
	p := cfg.NOCOut.WithDefaults()
	if cfg.NOCOut.Columns == 0 && cfg.NOCOut.RowsPerSide == 0 && p.NumCores() != cfg.Cores {
		cols, rows := topo.GridFor(cfg.Cores / p.Concentration)
		if rows < 2 {
			panic(fmt.Sprintf("chip: NOC-Out needs at least 4 core endpoints, got %d cores at concentration %d",
				cfg.Cores, p.Concentration))
		}
		p.Columns, p.RowsPerSide = cols, rows/2
	}
	if p.NumCores() != cfg.Cores {
		panic(fmt.Sprintf("chip: NOC-Out organization yields %d cores, config wants %d",
			p.NumCores(), cfg.Cores))
	}
	return p
}

func (o nocoutOrg) Build(cfg Config) *Fabric {
	p := o.shape(cfg)
	p.MCCount = cfg.MemChannels
	p.BankPorts = cfg.BanksPerLLCTile
	net, rs := topo.NewNOCOut(p)

	nBanks := p.NumLLCTiles() * cfg.BanksPerLLCTile
	bankTile := func(bank int) int { return bank / cfg.BanksPerLLCTile }
	bankNode := func(bank int) noc.NodeID {
		t := bankTile(bank)
		return p.BankNode(t%p.Columns, t/p.Columns, bank%cfg.BanksPerLLCTile)
	}
	// Memory channels are dedicated-port endpoints on the LLC edge routers.
	mcs := make([]noc.NodeID, cfg.MemChannels)
	for ch := range mcs {
		mcs[ch] = p.MCNode(ch)
	}
	coreNode := func(coreID int) noc.NodeID {
		return noc.NodeID(coreID / p.Concentration)
	}
	// LLC-adjacent rows first when a workload enables a core subset (§5.3).
	order := make([]int, cfg.Cores)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		_, _, ra := p.CoreLoc(coreNode(order[a]))
		_, _, rb := p.CoreLoc(coreNode(order[b]))
		return ra < rb
	})

	// Power sums router energy network by network: every reduction node,
	// then every dispersion node, then the LLC routers.
	var routers []*noc.Router
	routers = append(routers, rs.Red...)
	routers = append(routers, rs.Disp...)
	routers = append(routers, rs.LLC...)
	return &Fabric{
		Net:       net,
		Routers:   routers,
		NumNodes:  p.TotalNodes(),
		NumBanks:  nBanks,
		CoreNode:  coreNode,
		BankNode:  bankNode,
		MCNodes:   mcs,
		CoreOrder: order,
	}
}

func (o nocoutOrg) AreaModel(cfg Config) (physic.Breakdown, physic.BufferKind) {
	return physic.NOCOutTotalArea(o.shape(cfg), cfg.LinkBits), physic.FlipFlop
}
