package chip

import (
	"fmt"

	"nocout/internal/coherence"
	"nocout/internal/mem"
	"nocout/internal/noc"
	"nocout/internal/physic"
	"nocout/internal/registry"
	"nocout/internal/workload"
)

// This file defines the pluggable memory-hierarchy API, the third
// registry-backed extension axis after Organization (the interconnect) and
// Workload (the traffic source). A Hierarchy decides everything about the
// on-chip memory system that is not the interconnect itself: how many LLC
// banks exist and where they attach, which bank is the home (directory)
// for each line, which memory channel each line drains to, and how the
// banks, L1s, and memory channels are configured. The chip assembles
// agents generically against the MemoryLayout a hierarchy builds; the
// baseline SharedNUCA hierarchy reproduces the paper's shared
// address-interleaved NUCA bit-identically, and registered extensions
// (XOR-hashed and region-affine placement, private per-tile slices,
// clustered LLCs) open new scenario space through the same API.

// HierarchyID selects the memory hierarchy. Like Design, it is a
// lightweight handle into a registry: SharedNUCA below names the paper's
// baseline, and RegisterHierarchy mints handles for new ones.
type HierarchyID uint8

// SharedNUCA is the paper's baseline hierarchy: one shared NUCA LLC,
// banks striped line-modulo across the fabric's bank endpoints, memory
// channels interleaved by a folded hash. It is the zero value, so configs
// that never mention a hierarchy keep the Table 1 system.
const SharedNUCA HierarchyID = 0

// Hierarchy is a self-describing memory hierarchy: the unit of extension
// for the memory-system design space. An implementation bundles its
// naming, its preferred chip tuning, its memory-system construction, and
// its physical (area + leakage) contribution; registering it makes the
// hierarchy resolvable everywhere a HierarchyID is — CLI flags, sweeps,
// JSON reports. Implementations must be stateless: Build and Physical are
// called concurrently from experiment worker pools.
type Hierarchy interface {
	// Name is the display name ("SharedNUCA", "PrivateLLC"); it is how
	// the hierarchy prints, marshals, and is primarily parsed.
	Name() string
	// Aliases lists extra (lowercase) CLI spellings; the lowercased Name
	// is always accepted and need not be repeated.
	Aliases() []string
	// DefaultConfig applies the hierarchy's preferred tuning to a base
	// chip configuration (e.g. the cluster size for a clustered LLC);
	// hierarchies with no tuning of their own return base unchanged.
	DefaultConfig(base Config) Config
	// Build decides the memory system for cfg over the organization's
	// built fabric: bank count and placement, per-agent configurations,
	// the home (directory) mapping, and the memory-channel mapping. The
	// workload layout is available for region-affine placements. Build
	// fails when the hierarchy cannot inhabit the fabric (e.g. per-tile
	// slices on a non-tiled organization).
	Build(cfg Config, fab *Fabric, lay workload.Layout) (*MemoryLayout, error)
	// Physical returns the hierarchy's silicon contribution for cfg:
	// LLC storage and directory area plus standby leakage.
	Physical(cfg Config) HierPhysical
}

// MemoryLayout is a built memory system: the agent placement and mapping
// functions a Chip needs to instantiate and wire LLC banks, L1s, and
// memory controllers. All functions must be pure: the home and channel
// mappings in particular are part of the determinism contract and are
// probed exhaustively by the conformance suite.
type MemoryLayout struct {
	// NumBanks is the number of LLC banks (directory slices).
	NumBanks int
	// BankNode maps a bank index to its network attachment point.
	BankNode func(bank int) noc.NodeID
	// BankConf returns bank b's configuration (size, ways, line
	// compaction); banks may be heterogeneous (private slices plus
	// memory-side directory banks).
	BankConf func(bank int) coherence.BankConfig
	// L1Conf configures every core's L1 controller.
	L1Conf coherence.L1Config
	// MemConf configures every memory channel.
	MemConf mem.Config
	// Home maps a line to its home (directory) bank: the node the L1s
	// send demand requests to and the bank index at that node. Every
	// line has exactly one home.
	Home func(line uint64) (noc.NodeID, int)
	// ChannelOf maps a line to the memory channel that services its
	// fills and writebacks.
	ChannelOf func(line uint64) int
}

// HierPhysical is a hierarchy's physical contribution: LLC storage area,
// directory/control area, and their standby leakage (the NoC's own
// area/power stays with the organization's AreaModel).
type HierPhysical struct {
	StorageMM2 float64 `json:"storage_mm2"`
	DirMM2     float64 `json:"dir_mm2"`
	LeakageW   float64 `json:"leakage_w"`
}

// TotalMM2 returns the summed area.
func (p HierPhysical) TotalMM2() float64 { return p.StorageMM2 + p.DirMM2 }

// String formats the contribution.
func (p HierPhysical) String() string {
	return fmt.Sprintf("storage %.2f + directory %.2f = %.2f mm², leakage %.2f W",
		p.StorageMM2, p.DirMM2, p.TotalMM2(), p.LeakageW)
}

// hierarchies is the hierarchy registry: a HierarchyID is an index into
// it.
var hierarchies = registry.New[Hierarchy](256, registry.Texts{
	NoName:       "chip: RegisterHierarchy needs a name",
	EmptyAlias:   "chip: hierarchy %q has an empty alias",
	Full:         "chip: hierarchy registry full",
	Taken:        "chip: hierarchy name %q already registered by %s",
	Unregistered: "chip: hierarchy %d is not registered",
	Unknown:      "chip: unknown hierarchy %[1]q (want %[3]s)",
})

func init() { registry.Must(RegisterHierarchy(sharedNUCA{})) }

// RegisterHierarchy adds a hierarchy to the registry and returns its
// HierarchyID handle. The name and aliases must be non-empty and unique
// (case-insensitively) across the registry.
func RegisterHierarchy(h Hierarchy) (HierarchyID, error) {
	id, err := hierarchies.Add(h)
	return HierarchyID(id), err
}

// HierarchyOf resolves a HierarchyID to its registered hierarchy; unknown
// hierarchies are a hard error.
func HierarchyOf(id HierarchyID) (Hierarchy, error) { return hierarchies.Get(int(id)) }

// Hierarchies returns every registered hierarchy in HierarchyID order.
func Hierarchies() []Hierarchy { return hierarchies.All() }

// NumHierarchies returns how many hierarchies are registered; their
// handles run from 0 to NumHierarchies()-1.
func NumHierarchies() int { return hierarchies.Len() }

// String returns the hierarchy's display name.
func (id HierarchyID) String() string {
	if h, err := HierarchyOf(id); err == nil {
		return h.Name()
	}
	return fmt.Sprintf("Hierarchy(%d)", uint8(id))
}

// ParseHierarchy resolves a hierarchy from any registered spelling, the
// display names and the CLI shorthands, case-insensitively
// (shared-nuca | nuca-xor | private | clustered | ...).
func ParseHierarchy(s string) (HierarchyID, error) {
	_, id, err := hierarchies.Lookup(s)
	return HierarchyID(id), err
}

// MarshalText encodes the hierarchy by name, so JSON reports read
// "PrivateLLC" instead of an opaque enum value.
func (id HierarchyID) MarshalText() ([]byte, error) { return []byte(id.String()), nil }

// UnmarshalText decodes any spelling ParseHierarchy accepts.
func (id *HierarchyID) UnmarshalText(b []byte) error {
	v, err := ParseHierarchy(string(b))
	if err != nil {
		return err
	}
	*id = v
	return nil
}

// FitWays shrinks a requested associativity until capacityBytes of
// storage yields a power-of-two set count (cache.NewArray's invariant),
// halving the ways each step. Tiny LLC slices — a large chip dividing a
// small LLC — land here; a slice too small to hold even one direct-mapped
// set is an error.
func FitWays(capacityBytes, ways int) (int, error) {
	if ways < 1 {
		return 0, fmt.Errorf("chip: associativity %d is not positive", ways)
	}
	for {
		sets := capacityBytes / 64 / ways
		if sets >= 1 && sets&(sets-1) == 0 {
			return ways, nil
		}
		ways /= 2
		if ways == 0 {
			return 0, fmt.Errorf("chip: LLC slice too small (%d bytes)", capacityBytes)
		}
	}
}

// ChannelHash interleaves lines across memory channels with a folded hash
// so that no address region (per-core local areas, instruction region)
// aliases onto a single channel. It is the default ChannelOf of every
// builtin hierarchy.
func ChannelHash(line uint64, channels int) int {
	h := line ^ line>>6 ^ line>>13 ^ line>>19 ^ line>>27
	return int(h % uint64(channels))
}

// RegionOwner derives a line→owning-core classifier from a workload's
// address layout, for region-affine placements: each core's local dataset
// window (its Local region extended to the uniform inter-core stride)
// maps to that core; shared regions and anything outside the windows map
// to none. Layouts whose local bases are not a uniform ascending
// progression yield a classifier that owns nothing, so affine hierarchies
// degrade to their shared fallback instead of misrouting.
func RegionOwner(cores int, lay workload.Layout) func(line uint64) (owner int, ok bool) {
	noOwner := func(uint64) (int, bool) { return -1, false }
	if cores < 1 || lay.Local == nil {
		return noOwner
	}
	base := lay.Local(0).Base / 64
	var step uint64 // window stride in lines; 0 = single unbounded window
	if cores > 1 {
		b1 := lay.Local(1).Base / 64
		if b1 <= base {
			return noOwner
		}
		step = b1 - base
		for i := 2; i < cores; i++ {
			if lay.Local(i).Base/64 != base+uint64(i)*step {
				return noOwner
			}
		}
	}
	return func(line uint64) (int, bool) {
		if line < base {
			return -1, false
		}
		if step == 0 {
			return 0, true
		}
		c := (line - base) / step
		if c >= uint64(cores) {
			return -1, false
		}
		return int(c), true
	}
}

// --- SharedNUCA (the Table 1 baseline) --------------------------------------

// sharedNUCA is the paper's memory system: the fabric's banks form one
// shared NUCA LLC with lines striped bank = line mod NumBanks, and memory
// channels interleaved by ChannelHash. Registered at init as handle 0, it
// must reproduce the pre-refactor chip bit-identically — the conformance
// suite pins its state hash.
type sharedNUCA struct{}

func (sharedNUCA) Name() string                     { return "SharedNUCA" }
func (sharedNUCA) Aliases() []string                { return []string{"shared", "nuca", "shared-nuca"} }
func (sharedNUCA) DefaultConfig(base Config) Config { return base }

func (sharedNUCA) Build(cfg Config, fab *Fabric, _ workload.Layout) (*MemoryLayout, error) {
	nBanks := fab.NumBanks
	bcfg, err := BankConfigFor(cfg, cfg.LLCMB<<20/nBanks)
	if err != nil {
		return nil, err
	}
	bcfg.Interleave = nBanks // modulo homes: compact lines by the stripe
	return &MemoryLayout{
		NumBanks: nBanks,
		BankNode: fab.BankNode,
		BankConf: func(int) coherence.BankConfig { return bcfg },
		L1Conf:   L1ConfigFor(cfg),
		MemConf:  cfg.Mem,
		Home: func(line uint64) (noc.NodeID, int) {
			bank := int(line % uint64(nBanks))
			return fab.BankNode(bank), bank
		},
		ChannelOf: func(line uint64) int { return ChannelHash(line, cfg.MemChannels) },
	}, nil
}

func (sharedNUCA) Physical(cfg Config) HierPhysical {
	return LLCPhysicalFor(cfg, FabricBanks(cfg))
}

// FabricBanks returns the LLC bank count cfg's organization actually
// lays out — what a shared-family hierarchy (which adopts the fabric's
// banks rather than re-placing them) must charge per-bank silicon for.
// NOC-Out's segregated LLC row banks differently from one-slice-per-tile
// designs, so this builds the fabric to ask it (the same cost the
// organizations' own AreaModels pay). An unregistered design falls back
// to the tiled convention of one bank per core.
func FabricBanks(cfg Config) int {
	org, err := OrganizationOf(cfg.Design)
	if err != nil {
		return cfg.Cores
	}
	return org.Build(cfg).NumBanks
}

// BankConfigFor sizes one LLC bank of capacityBytes under cfg's common
// parameters: associativity via FitWays, the configured access latency,
// link width, and core count. No line compaction is set (any home
// mapping may feed the bank as-is); hierarchies with modulo-striped
// homes additionally set Interleave so the compaction matches.
func BankConfigFor(cfg Config, capacityBytes int) (coherence.BankConfig, error) {
	ways, err := FitWays(capacityBytes, cfg.LLCWays)
	if err != nil {
		return coherence.BankConfig{}, err
	}
	return coherence.BankConfig{
		SizeBytes: capacityBytes, Ways: ways, AccessLat: cfg.BankLat,
		LinkBits: cfg.LinkBits, NumCores: cfg.Cores,
	}, nil
}

// L1ConfigFor is the Table 1 L1 configuration at the chip's link width,
// shared by every builtin hierarchy.
func L1ConfigFor(cfg Config) coherence.L1Config {
	l1cfg := coherence.DefaultL1Config()
	l1cfg.LinkBits = cfg.LinkBits
	return l1cfg
}

// LLCPhysicalFor wraps the physic LLC model for a hierarchy splitting
// cfg's LLC across the given bank count.
func LLCPhysicalFor(cfg Config, banks int) HierPhysical {
	s, d, l := physic.LLCPhysical(float64(cfg.LLCMB), banks, cfg.Cores)
	return HierPhysical{StorageMM2: s, DirMM2: d, LeakageW: l}
}
