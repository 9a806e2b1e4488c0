package chip

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"nocout/internal/noc"
	"nocout/internal/physic"
	"nocout/internal/topo"
)

// Design selects the interconnect organization. It is a lightweight handle
// into the organization registry: the constants below name the paper's
// four, and RegisterOrganization mints handles for new ones.
type Design uint8

// The evaluated system organizations (§5.1), registered at init in this
// order so the handles are stable.
const (
	Mesh Design = iota
	FBfly
	NOCOut
	Ideal
)

// Organization is a self-describing interconnect organization: the unit of
// extension for the design space. An implementation bundles its naming,
// its default chip tuning, its network construction, and its physical
// (area + buffer-technology) model; registering it makes the design
// resolvable everywhere a Design is — CLI flags, sweeps, JSON reports.
// Implementations must be stateless: Build and AreaModel are called
// concurrently from experiment worker pools.
type Organization interface {
	// Name is the figure name ("Mesh", "NOC-Out"); it is how the design
	// prints, marshals, and is primarily parsed.
	Name() string
	// Aliases lists extra (lowercase) CLI spellings; the lowercased Name
	// is always accepted and need not be repeated.
	Aliases() []string
	// DefaultConfig returns the organization's baseline chip parameters
	// (the paper's Table 1 system); the registry fills in Config.Design.
	DefaultConfig() Config
	// Build constructs the interconnect for cfg: the network, its
	// floorplan, the auxiliary memory-channel endpoints, and the endpoint
	// layout the protocol agents attach to.
	Build(cfg Config) *Fabric
	// AreaModel returns the NoC area breakdown for cfg and the buffer
	// circuit the energy model should assume (Figure 8's accounting).
	AreaModel(cfg Config) (physic.Breakdown, physic.BufferKind)
}

// Fabric is a built interconnect plus the endpoint layout a Chip needs to
// attach cores, LLC banks, and memory controllers to it.
type Fabric struct {
	Net     noc.Network
	Routers []*noc.Router // for area/energy accounting; nil for wire-only fabrics

	NumNodes int // delivery endpoints, memory channels included
	NumBanks int // LLC banks (directory slices)

	CoreNode func(coreID int) noc.NodeID
	BankNode func(bank int) noc.NodeID
	MCNodes  []noc.NodeID

	// CoreOrder ranks cores by preference when a workload's scalability
	// limit enables only a subset (§5.3: nearest the LLC first).
	CoreOrder []int

	// Plan is the tiled floorplan when the organization has one (zero
	// value otherwise).
	Plan topo.Floorplan
}

// The registry. Registration is rare and reads are hot (every chip build,
// String, and ParseDesign), so it is guarded by a RWMutex and safe for
// concurrent use from experiment worker pools.
var (
	orgMu      sync.RWMutex
	orgs       []Organization
	orgAliases = map[string]Design{}
)

func init() {
	for _, o := range []Organization{meshOrg, fbflyOrg, nocoutOrg{}, idealOrg{}} {
		if _, err := RegisterOrganization(o); err != nil {
			panic(err)
		}
	}
}

// RegisterOrganization adds an organization to the design registry and
// returns its Design handle. The name and aliases must be non-empty and
// unique (case-insensitively) across the registry.
func RegisterOrganization(o Organization) (Design, error) {
	name := strings.TrimSpace(o.Name())
	if name == "" {
		return 0, fmt.Errorf("chip: RegisterOrganization needs a name")
	}
	keys := []string{strings.ToLower(name)}
	for _, a := range o.Aliases() {
		a = strings.ToLower(strings.TrimSpace(a))
		if a == "" {
			return 0, fmt.Errorf("chip: organization %q has an empty alias", name)
		}
		if a != keys[0] {
			keys = append(keys, a)
		}
	}
	orgMu.Lock()
	defer orgMu.Unlock()
	if len(orgs) >= 256 {
		return 0, fmt.Errorf("chip: design registry full")
	}
	for _, k := range keys {
		// The write lock is held: read the owner's name directly rather
		// than through Design.String, which would re-enter the lock.
		if d, dup := orgAliases[k]; dup {
			return 0, fmt.Errorf("chip: design name %q already registered by %s", k, orgs[d].Name())
		}
	}
	d := Design(len(orgs))
	orgs = append(orgs, o)
	for _, k := range keys {
		orgAliases[k] = d
	}
	return d, nil
}

// OrganizationOf resolves a Design handle to its registered organization;
// unknown designs are a hard error.
func OrganizationOf(d Design) (Organization, error) {
	orgMu.RLock()
	defer orgMu.RUnlock()
	if int(d) >= len(orgs) {
		return nil, fmt.Errorf("chip: design %d is not registered", uint8(d))
	}
	return orgs[d], nil
}

// Organizations returns every registered organization in Design order.
func Organizations() []Organization {
	orgMu.RLock()
	defer orgMu.RUnlock()
	out := make([]Organization, len(orgs))
	copy(out, orgs)
	return out
}

// String returns the design name as used in the paper's figures.
func (d Design) String() string {
	if org, err := OrganizationOf(d); err == nil {
		return org.Name()
	}
	return fmt.Sprintf("Design(%d)", uint8(d))
}

// ParseDesign resolves a design from any registered spelling: the figure
// names ("Mesh", "Flattened Butterfly", case-insensitively) and the CLI
// shorthands (mesh | fbfly | nocout | ideal | torus | cmesh | crossbar |
// ...).
func ParseDesign(s string) (Design, error) {
	key := strings.ToLower(strings.TrimSpace(s))
	orgMu.RLock()
	d, ok := orgAliases[key]
	orgMu.RUnlock()
	if !ok {
		var names []string
		for _, o := range Organizations() {
			names = append(names, strings.ToLower(o.Name()))
		}
		return 0, fmt.Errorf("chip: unknown design %q (want %s)", s, strings.Join(names, " | "))
	}
	return d, nil
}

// MarshalText encodes the design by name, so JSON reports read
// "NOC-Out" instead of an opaque enum value.
func (d Design) MarshalText() ([]byte, error) { return []byte(d.String()), nil }

// UnmarshalText decodes any spelling ParseDesign accepts.
func (d *Design) UnmarshalText(b []byte) error {
	v, err := ParseDesign(string(b))
	if err != nil {
		return err
	}
	*d = v
	return nil
}

// TiledFabric lays out the standard tiled CMP attachment over a built
// network: one core, LLC slice, and NI per tile (NodeID = tile index),
// memory channels as auxiliary endpoints NumTiles+ch, and the §5.3
// central-tiles-first core preference. All the conventional organizations
// (mesh, flattened butterfly, ideal, torus, cmesh, crossbar) share it.
func TiledFabric(cfg Config, plan topo.Floorplan, net noc.Network, routers []*noc.Router) *Fabric {
	n := cfg.Cores
	mcs := make([]noc.NodeID, cfg.MemChannels)
	for ch := range mcs {
		mcs[ch] = noc.NodeID(n + ch)
	}
	return &Fabric{
		Net:      net,
		Routers:  routers,
		NumNodes: n + cfg.MemChannels,
		NumBanks: n,
		CoreNode: func(i int) noc.NodeID { return noc.NodeID(i) },
		BankNode: func(b int) noc.NodeID { return noc.NodeID(b) },
		MCNodes:  mcs,
		// Chebyshev distance selects square central blocks ("the 16 tiles
		// in the center of the die", §5.3).
		CoreOrder: centerOrder(plan, n),
		Plan:      plan,
	}
}

// centerOrder ranks tiles by Chebyshev distance from the die center.
func centerOrder(plan topo.Floorplan, n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	cx := float64(plan.Cols-1) / 2
	cy := float64(plan.Rows-1) / 2
	sort.SliceStable(order, func(a, b int) bool {
		ax, ay := plan.Coord(noc.NodeID(order[a]))
		bx, by := plan.Coord(noc.NodeID(order[b]))
		da := math.Max(math.Abs(float64(ax)-cx), math.Abs(float64(ay)-cy))
		db := math.Max(math.Abs(float64(bx)-cx), math.Abs(float64(by)-cy))
		return da < db
	})
	return order
}
