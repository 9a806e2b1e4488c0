package chip

import (
	"fmt"
	"sort"

	"nocout/internal/core"
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

// shape resolves the NOC-Out organization for cfg: an explicit Config.NOCOut
// wins (and must match the core count); otherwise the paper baseline for 64
// cores, or a near-square auto-shaped grid for other core counts.
func (nocoutOrg) shape(cfg Config) core.Config {
	ncfg := cfg.NOCOut
	if ncfg.Columns == 0 {
		ncfg = core.DefaultConfig()
		if def := ncfg.WithDefaults(); def.NumCores() != cfg.Cores {
			cols, rows := topo.GridFor(cfg.Cores)
			if rows < 2 {
				panic(fmt.Sprintf("chip: NOC-Out needs at least 4 cores, got %d", cfg.Cores))
			}
			ncfg.Columns = cols
			ncfg.RowsPerSide = rows / 2
		}
	}
	ncfg = ncfg.WithDefaults()
	if ncfg.NumCores() != cfg.Cores {
		panic(fmt.Sprintf("chip: NOC-Out organization yields %d cores, config wants %d",
			ncfg.NumCores(), cfg.Cores))
	}
	return ncfg
}

func (o nocoutOrg) Build(cfg Config) *Fabric {
	ncfg := o.shape(cfg)
	ncfg.MCCount = cfg.MemChannels
	ncfg.BankPorts = cfg.BanksPerLLCTile
	net := core.Build(ncfg)
	ncfg = net.Cfg // with defaults filled

	nBanks := ncfg.NumLLCTiles() * cfg.BanksPerLLCTile
	bankTile := func(bank int) int { return bank / cfg.BanksPerLLCTile }
	bankNode := func(bank int) noc.NodeID {
		t := bankTile(bank)
		return ncfg.BankNode(t%ncfg.Columns, t/ncfg.Columns, bank%cfg.BanksPerLLCTile)
	}
	// Memory channels are dedicated-port endpoints on the LLC edge routers.
	mcs := make([]noc.NodeID, cfg.MemChannels)
	for ch := range mcs {
		mcs[ch] = ncfg.MCNode(ch)
	}
	coreNode := func(coreID int) noc.NodeID {
		return noc.NodeID(coreID / ncfg.Concentration)
	}
	// LLC-adjacent rows first when a workload enables a core subset (§5.3).
	order := make([]int, cfg.Cores)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		_, _, ra := ncfg.CoreLoc(coreNode(order[a]))
		_, _, rb := ncfg.CoreLoc(coreNode(order[b]))
		return ra < rb
	})

	var routers []*noc.Router
	routers = append(routers, net.RedNodes...)
	routers = append(routers, net.DispNodes...)
	routers = append(routers, net.LLCRouters...)
	return &Fabric{
		Net:       net,
		Routers:   routers,
		NumNodes:  ncfg.TotalNodes(),
		NumBanks:  nBanks,
		CoreNode:  coreNode,
		BankNode:  bankNode,
		MCNodes:   mcs,
		CoreOrder: order,
		NocNet:    net,
	}
}

func (o nocoutOrg) AreaModel(cfg Config) (physic.Breakdown, physic.BufferKind) {
	return physic.NOCOutTotalArea(o.shape(cfg), cfg.LinkBits), physic.FlipFlop
}
