package nocout

import (
	"fmt"

	"nocout/internal/chip"
	"nocout/internal/noc"
	"nocout/internal/registry"
	"nocout/internal/workload"
)

// This file extends the memory-hierarchy space beyond the paper's shared
// NUCA baseline, registered through the same public RegisterHierarchy
// path a user hierarchy takes (EXPERIMENTS.md walks through xorHier as
// the worked example):
//
//   - SharedNUCA-XOR: the shared LLC with an XOR-folded home hash instead
//     of line-modulo striping, so power-of-two strides (per-core regions,
//     page-aligned structures) stop aliasing onto a few banks.
//   - SharedNUCA-Affine: region-affine placement — each core's dataset
//     window homes on that core's own bank, so the dominant private
//     traffic stays local while shared regions keep the modulo stripe.
//   - PrivateLLC: per-tile private LLC slices for each core's dataset,
//     with the directory state for shared lines migrated to banks
//     co-located with the memory controllers.
//   - Clustered: the tiles form LLC clusters that share capacity among
//     themselves; a core's dataset interleaves across its own cluster's
//     banks, and shared lines spill to the memory-side directory.

// The extended hierarchies' handles, minted at package init in this order
// (after the builtin SharedNUCA, which is handle 0).
var (
	XORPlacement = registry.Must(RegisterHierarchy(xorHier{}))
	RegionAffine = registry.Must(RegisterHierarchy(affineHier{}))
	PrivateLLC   = registry.Must(RegisterHierarchy(privateHier{}))
	Clustered    = registry.Must(RegisterHierarchy(clusteredHier{}))
)

// xorFold spreads a line address for home-bank selection. It folds
// different bit positions than the cache set-index hash and the memory
// ChannelHash so the three mappings stay decorrelated.
func xorFold(line uint64) uint64 {
	return line ^ line>>7 ^ line>>16 ^ line>>24 ^ line>>31
}

// sharedBankConf is the uniform bank configuration of a hierarchy that
// keeps the fabric's bank endpoints but homes lines non-contiguously:
// no compaction is set, so every line is accepted as-is and the hashed
// set index does the spreading the modulo compaction used to.
func sharedBankConf(cfg Config, nBanks int) (BankConfig, error) {
	return chip.BankConfigFor(cfg, cfg.LLCMB<<20/nBanks)
}

// --- SharedNUCA-XOR ---------------------------------------------------------

// xorHier is the shared NUCA with XOR-hashed home placement: same banks,
// same capacity, different bank = f(line). It works on every
// organization, NOC-Out's segregated LLC included.
type xorHier struct{}

func (xorHier) Name() string                     { return "SharedNUCA-XOR" }
func (xorHier) Aliases() []string                { return []string{"xor", "nuca-xor", "xor-placement"} }
func (xorHier) DefaultConfig(base Config) Config { return base }

func (xorHier) Build(cfg Config, fab *Fabric, _ workload.Layout) (*MemoryLayout, error) {
	nBanks := fab.NumBanks
	bcfg, err := sharedBankConf(cfg, nBanks)
	if err != nil {
		return nil, err
	}
	return &MemoryLayout{
		NumBanks: nBanks,
		BankNode: fab.BankNode,
		BankConf: func(int) BankConfig { return bcfg },
		L1Conf:   chip.L1ConfigFor(cfg),
		MemConf:  cfg.Mem,
		Home: func(line uint64) (noc.NodeID, int) {
			bank := int(xorFold(line) % uint64(nBanks))
			return fab.BankNode(bank), bank
		},
		ChannelOf: func(line uint64) int { return chip.ChannelHash(line, cfg.MemChannels) },
	}, nil
}

func (xorHier) Physical(cfg Config) HierPhysical {
	return chip.LLCPhysicalFor(cfg, chip.FabricBanks(cfg))
}

// --- SharedNUCA-Affine ------------------------------------------------------

// affineHier keeps the shared LLC's banks and capacity but homes each
// core's dataset window on that core's own bank (bank index = owner core,
// wrapped onto the fabric's bank count); lines outside any window — the
// shared instruction and hot regions included — keep the baseline modulo
// stripe. On tiled fabrics the owner's bank is the owner's tile, so the
// dominant private-data traffic never leaves it.
type affineHier struct{}

func (affineHier) Name() string { return "SharedNUCA-Affine" }
func (affineHier) Aliases() []string {
	return []string{"affine", "region-affine", "nuca-affine"}
}
func (affineHier) DefaultConfig(base Config) Config { return base }

func (affineHier) Build(cfg Config, fab *Fabric, lay workload.Layout) (*MemoryLayout, error) {
	nBanks := fab.NumBanks
	bcfg, err := sharedBankConf(cfg, nBanks)
	if err != nil {
		return nil, err
	}
	owner := chip.RegionOwner(cfg.Cores, lay)
	return &MemoryLayout{
		NumBanks: nBanks,
		BankNode: fab.BankNode,
		BankConf: func(int) BankConfig { return bcfg },
		L1Conf:   chip.L1ConfigFor(cfg),
		MemConf:  cfg.Mem,
		Home: func(line uint64) (noc.NodeID, int) {
			bank := int(line % uint64(nBanks))
			if c, ok := owner(line); ok {
				bank = c % nBanks
			}
			return fab.BankNode(bank), bank
		},
		ChannelOf: func(line uint64) int { return chip.ChannelHash(line, cfg.MemChannels) },
	}, nil
}

func (affineHier) Physical(cfg Config) HierPhysical {
	return chip.LLCPhysicalFor(cfg, chip.FabricBanks(cfg))
}

// --- PrivateLLC -------------------------------------------------------------

// privateHier gives every core a private per-tile LLC slice for its own
// dataset and migrates the directory for shared lines to banks co-located
// with the memory controllers: half the LLC capacity splits across the
// per-tile slices, half across the memory-side shared banks. Private
// fills and writebacks stay on the requester's tile; shared lines resolve
// at the memory side, one hop from DRAM. Requires a tiled organization
// (one bank endpoint per core and no segregated LLC row).
type privateHier struct{}

func (privateHier) Name() string                     { return "PrivateLLC" }
func (privateHier) Aliases() []string                { return []string{"private", "private-llc"} }
func (privateHier) DefaultConfig(base Config) Config { return base }

func (privateHier) Build(cfg Config, fab *Fabric, lay workload.Layout) (*MemoryLayout, error) {
	return buildClustered(cfg, fab, lay, 1, "PrivateLLC")
}

func (privateHier) Physical(cfg Config) HierPhysical {
	return chip.LLCPhysicalFor(cfg, cfg.Cores+cfg.MemChannels)
}

// --- Clustered --------------------------------------------------------------

// clusteredHier groups tiles into LLC clusters that pool their slices: a
// core's dataset interleaves across the banks of its own cluster (bounded
// distance, shared capacity within the cluster), and shared lines spill
// to the memory-side directory banks exactly as in PrivateLLC — of which
// this is the K-tile generalization. Config.LLCClusterTiles sets the
// cluster size (default 4).
type clusteredHier struct{}

func (clusteredHier) Name() string      { return "Clustered" }
func (clusteredHier) Aliases() []string { return []string{"cluster", "clustered-llc"} }

func (clusteredHier) DefaultConfig(base Config) Config {
	if base.LLCClusterTiles == 0 {
		base.LLCClusterTiles = 4
	}
	return base
}

func (clusteredHier) Build(cfg Config, fab *Fabric, lay workload.Layout) (*MemoryLayout, error) {
	k := cfg.LLCClusterTiles
	if k <= 0 {
		k = 4
	}
	if k > cfg.Cores {
		k = cfg.Cores
	}
	return buildClustered(cfg, fab, lay, k, "Clustered")
}

func (clusteredHier) Physical(cfg Config) HierPhysical {
	return chip.LLCPhysicalFor(cfg, cfg.Cores+cfg.MemChannels)
}

// buildClustered is the shared construction behind PrivateLLC (cluster
// size 1) and Clustered (cluster size k): per-tile slices pooled within
// k-tile clusters for region-owned lines, plus memory-side directory
// banks for everything else.
func buildClustered(cfg Config, fab *Fabric, lay workload.Layout, k int, name string) (*MemoryLayout, error) {
	cores, channels := cfg.Cores, cfg.MemChannels
	// A tiled fabric has one bank per core, at the core's node; bankNode
	// below relies on it.
	tiled := fab.NumBanks == cores
	for b := 0; tiled && b < cores; b++ {
		tiled = fab.BankNode(b) == fab.CoreNode(b)
	}
	if !tiled {
		return nil, fmt.Errorf("nocout: the %s hierarchy requires a tiled organization (one bank endpoint per core); %v is not one",
			name, cfg.Design)
	}
	tileConf, err := chip.BankConfigFor(cfg, cfg.LLCMB<<20/2/cores)
	if err != nil {
		return nil, fmt.Errorf("%s per-tile slice: %w", name, err)
	}
	memConf, err := chip.BankConfigFor(cfg, cfg.LLCMB<<20/2/channels)
	if err != nil {
		return nil, fmt.Errorf("%s memory-side bank: %w", name, err)
	}

	owner := chip.RegionOwner(cores, lay)
	// homeBank is a pure function of the line: region-owned lines
	// interleave across the owner's cluster, everything else lands on a
	// memory-side directory bank (indices cores..cores+channels-1).
	homeBank := func(line uint64) int {
		if c, ok := owner(line); ok {
			start := c / k * k
			size := k
			if start+size > cores {
				size = cores - start
			}
			return start + int(line%uint64(size))
		}
		return cores + chip.ChannelHash(line, channels)
	}
	bankNode := func(b int) noc.NodeID {
		if b < cores {
			return fab.CoreNode(b)
		}
		return fab.MCNodes[b-cores]
	}
	return &MemoryLayout{
		NumBanks: cores + channels,
		BankNode: bankNode,
		BankConf: func(b int) BankConfig {
			if b < cores {
				return tileConf
			}
			return memConf
		},
		L1Conf:  chip.L1ConfigFor(cfg),
		MemConf: cfg.Mem,
		Home: func(line uint64) (noc.NodeID, int) {
			b := homeBank(line)
			return bankNode(b), b
		},
		ChannelOf: func(line uint64) int {
			// Lines homed on a memory-side bank drain to that bank's own
			// channel (same node, zero extra hops); cluster-owned lines
			// keep the hashed interleave.
			if b := homeBank(line); b >= cores {
				return b - cores
			}
			return chip.ChannelHash(line, channels)
		},
	}, nil
}
