package nocout

import (
	"fmt"
	"strings"

	"nocout/internal/chip"
	"nocout/internal/coherence"
	"nocout/internal/mem"
	"nocout/internal/physic"
	"nocout/internal/sim"
	"nocout/internal/workload"
)

// This file is the engine's name registry: every string a CLI flag or
// config file can carry (designs, quality levels, workloads, memory
// hierarchies) resolves here, so commands and examples never switch-case
// names themselves.

// Organization is a self-describing interconnect organization: its figure
// name and CLI aliases, Table 1-style default tuning, network construction
// (topology + floorplan + memory-channel endpoints), and area/power model.
// Implement it and RegisterDesign it to add a fabric to the design space;
// the Torus, CMesh, and Crossbar organizations in designs.go are worked
// examples registered through this exact path.
type Organization = chip.Organization

// Fabric is the built interconnect plus the endpoint layout an
// Organization's Build returns; chip.TiledFabric lays one out for
// conventional one-core-per-tile designs.
type Fabric = chip.Fabric

// BufferKind selects the buffer circuit an organization's AreaModel
// reports for the energy model.
type BufferKind = physic.BufferKind

// Buffer circuit kinds: flip-flops for shallow queues, SRAM for deep ones.
const (
	FlipFlop = physic.FlipFlop
	SRAM     = physic.SRAM
)

// RegisterDesign adds an organization to the design registry and returns
// its Design handle, after which the design works everywhere a builtin
// does: DefaultConfig, WithDesigns sweeps, ParseDesign (CLI flags),
// Area/AreaModel, and JSON report round-trips. Names and aliases must be
// unique; safe for concurrent use.
func RegisterDesign(o Organization) (Design, error) { return chip.RegisterOrganization(o) }

// Designs returns every registered design in registration order: the
// paper's four first, then Torus, CMesh, Crossbar, then user registrations.
func Designs() []Design { return handles[Design](chip.NumOrganizations()) }

// OrganizationOf resolves a design handle to its registered organization;
// unknown designs are a hard error.
func OrganizationOf(d Design) (Organization, error) { return chip.OrganizationOf(d) }

// ParseDesign resolves a design from its figure name or any registered CLI
// shorthand: mesh | fbfly | flattened-butterfly | nocout | noc-out | ideal
// | torus | cmesh | crossbar | xbar | ...
func ParseDesign(s string) (Design, error) { return chip.ParseDesign(s) }

// Hierarchy is a self-describing memory hierarchy: its display name and
// CLI aliases, preferred chip tuning, memory-system construction (bank
// count and placement, home and channel mappings, bank/L1/memory
// configs), and physical contribution. Implement it and RegisterHierarchy
// it to add a memory system to the design space; the XOR-placement,
// region-affine, PrivateLLC, and Clustered hierarchies in hierarchies.go
// are worked examples registered through this exact path.
type Hierarchy = chip.Hierarchy

// HierarchyID selects the memory hierarchy: a registry handle resolvable
// with ParseHierarchy and extensible with RegisterHierarchy. The zero
// value is the paper's SharedNUCA baseline.
type HierarchyID = chip.HierarchyID

// SharedNUCA is the paper's baseline hierarchy: a shared NUCA LLC with
// line-modulo bank striping and hash-interleaved memory channels.
const SharedNUCA = chip.SharedNUCA

// MemoryLayout is the built memory system a Hierarchy's Build returns:
// bank count and placement, per-agent configurations, and the home and
// channel mapping functions the chip wires the protocol agents with.
type MemoryLayout = chip.MemoryLayout

// HierPhysical is a hierarchy's silicon contribution: LLC storage and
// directory area plus standby leakage.
type HierPhysical = chip.HierPhysical

// BankConfig sizes one LLC bank (capacity, associativity, access
// pipeline, line compaction); MemoryLayout.BankConf returns one per bank.
type BankConfig = coherence.BankConfig

// L1Config sizes the per-core L1 controllers.
type L1Config = coherence.L1Config

// DefaultL1Config returns the Table 1 core cache configuration.
func DefaultL1Config() L1Config { return coherence.DefaultL1Config() }

// MemConfig is one memory channel's timing (AccessLat, LinePeriod,
// LinkBits); zero fields take DDR3-1667 defaults. It is chip.Config's
// Mem field and the target of the -mem-lat/-mem-bw CLI flags.
type MemConfig = mem.Config

// Cycle is the simulation time unit (Quality windows, cache and memory
// latencies are measured in it).
type Cycle = sim.Cycle

// DefaultMemConfig returns DDR3-1667 timing at the 2 GHz core clock.
func DefaultMemConfig() MemConfig { return mem.DefaultConfig() }

// RegisterHierarchy adds a memory hierarchy to the registry and returns
// its HierarchyID handle, after which the hierarchy works everywhere a
// builtin does: WithHierarchies sweeps, ParseHierarchy (CLI flags),
// HierarchyPhysical, and JSON report round-trips. Names and aliases must
// be unique; safe for concurrent use.
func RegisterHierarchy(h Hierarchy) (HierarchyID, error) { return chip.RegisterHierarchy(h) }

// Hierarchies returns every registered hierarchy handle in registration
// order: SharedNUCA first, then XOR-placement, region-affine, PrivateLLC,
// Clustered, then user registrations.
func Hierarchies() []HierarchyID { return handles[HierarchyID](chip.NumHierarchies()) }

// handles lists the registry handles 0 to n-1.
func handles[H ~uint8](n int) []H {
	out := make([]H, n)
	for i := range out {
		out[i] = H(i)
	}
	return out
}

// HierarchyOf resolves a hierarchy handle to its registered hierarchy;
// unknown hierarchies are a hard error.
func HierarchyOf(id HierarchyID) (Hierarchy, error) { return chip.HierarchyOf(id) }

// ParseHierarchy resolves a hierarchy from its display name or any
// registered CLI shorthand, case-insensitively: shared-nuca | xor |
// affine | private | clustered | ...
func ParseHierarchy(s string) (HierarchyID, error) { return chip.ParseHierarchy(s) }

// RegionOwner derives a line→owning-core classifier from a workload's
// address layout, the building block of region-affine hierarchies; see
// the affine and clustered hierarchies for worked uses.
func RegionOwner(cores int, lay WorkloadLayout) func(line uint64) (owner int, ok bool) {
	return chip.RegionOwner(cores, lay)
}

// ChannelHash is the builtin hierarchies' memory-channel interleave: a
// folded hash so no address region aliases onto a single channel.
func ChannelHash(line uint64, channels int) int { return chip.ChannelHash(line, channels) }

// FitWays shrinks a requested associativity until capacityBytes yields a
// power-of-two set count — the sizing rule every hierarchy applies to its
// LLC slices.
func FitWays(capacityBytes, ways int) (int, error) { return chip.FitWays(capacityBytes, ways) }

// WorkloadLayout describes a workload's address space (shared instruction
// and hot regions, per-core local regions); hierarchies receive one in
// Build for region-affine placement.
type WorkloadLayout = workload.Layout

// ParseQuality resolves a simulation effort level by name:
// quick | full.
func ParseQuality(s string) (Quality, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "quick":
		return Quick, nil
	case "full":
		return Full, nil
	}
	return Quality{}, fmt.Errorf("nocout: unknown quality %q (want quick | full)", s)
}

// Workload is the behavioral workload-source interface, mirroring
// Organization for the scenario space: a self-describing value that
// names itself (with CLI aliases), bounds its software scalability,
// derives each core's pipeline parameters, produces each core's
// instruction stream, and describes its prewarm address layout.
// Implement it (or build one with SynthWorkload/NewMix/NewPhased, or
// replay a RecordTraceFile recording with LoadTrace) and RegisterWorkload
// it; registered workloads work everywhere a builtin does — WithWorkloads
// sweeps, CLI flags, and JSON reports. Unregistered values sweep through
// WithWorkloadValues.
type Workload = workload.Workload

// WorkloadParams is the synthetic calibration block behind the paper's
// six workloads (see internal/workload.Params for the knobs); wrap one
// with SynthWorkload to obtain a Workload.
type WorkloadParams = workload.Params

// Mix is a multiprogrammed workload: each core runs one member, and
// results carry a per-member IPC breakdown.
type Mix = workload.Mix

// Phased is a deterministic time-varying workload cycling through a
// schedule of Phase stages.
type Phased = workload.Phased

// Phase is one stage of a Phased schedule: a calibration run for a set
// number of dynamic instructions per core.
type Phase = workload.Phase

// RegisterWorkload adds a workload to the registry, after which every
// name-based entry point (ParseWorkload, sweeps, CLI flags) resolves it.
// Names and aliases must be unique case-insensitively.
func RegisterWorkload(w Workload) error { return workload.Register(w) }

// RegisteredWorkloads returns every registered workload in registration
// order: the paper's six, the builtin Mix/Phased examples, then user
// registrations.
func RegisteredWorkloads() []Workload { return workload.All() }

// ParseWorkload resolves a workload from any registered spelling —
// names and aliases, case-insensitively (data-serving | websearch |
// mix | phased | ...) — or loads a recorded trace via "trace:<path>".
func ParseWorkload(s string) (Workload, error) { return workload.Parse(s) }

// SynthWorkload wraps a synthetic calibration as a Workload with
// optional extra CLI aliases.
func SynthWorkload(p WorkloadParams, aliases ...string) Workload {
	return workload.Synth(p, aliases...)
}

// BuiltinWorkloads returns the paper's six synthetic calibrations in
// figure order — the raw material for composing mixes and phased
// schedules.
func BuiltinWorkloads() []WorkloadParams { return workload.Builtin() }

// WorkloadParamsOf returns the synthetic calibration behind a
// registered workload name or alias, for composing mixes and phased
// schedules; non-synthetic workloads (mixes, traces) are an error.
func WorkloadParamsOf(name string) (WorkloadParams, error) {
	w, err := workload.Parse(name)
	if err != nil {
		return WorkloadParams{}, err
	}
	s, ok := w.(workload.Synthetic)
	if !ok {
		return WorkloadParams{}, fmt.Errorf("nocout: workload %q is not a synthetic calibration", name)
	}
	return s.P, nil
}

// NewMix builds a multiprogrammed workload with round-robin core
// assignment over the members; see Mix.WithAssignment for explicit maps.
func NewMix(name string, members ...WorkloadParams) *Mix { return workload.NewMix(name, members...) }

// NewPhased builds a deterministic time-varying workload cycling
// through the schedule.
func NewPhased(name string, phases ...Phase) *Phased { return workload.NewPhased(name, phases...) }

// WorkloadFingerprinter is the optional interface a user Workload
// implements to make itself cacheable: the returned bytes are folded
// into Point.Key and must change whenever the workload's observable
// behaviour (streams, core parameters, layout, scalability) changes.
// The builtin families — synthetics, mixes, phased schedules, traces —
// fingerprint structurally without it.
type WorkloadFingerprinter = workload.Fingerprinter

// FingerprintWorkload returns w's behavioral fingerprint — the workload
// component of Point.Key, the canonical content hash the campaign result
// cache is addressed by. Unknown implementations without
// WorkloadFingerprinter are an error, not a silent name-only alias.
func FingerprintWorkload(w Workload) ([]byte, error) { return workload.Fingerprint(w) }

// TraceFile is an opened trace: a Workload whose replay decodes
// fixed-count NOC3 blocks on demand, so memory stays O(cores × block)
// however long the recording is. Obtain one with LoadTrace (or the
// "trace:<path>" scheme) and Close it when done.
type TraceFile = workload.TraceFile

// TraceInfo summarizes a NOC3 trace file on disk — header metadata,
// per-section byte accounting, block/predictor counts — as the
// `nocout -trace-info` subcommand reports.
type TraceInfo = workload.TraceInfo

// LoadTrace opens a NOC3 trace file, as the "trace:<path>" scheme does;
// the result is always a *TraceFile, which streams blocks lazily. Any
// other file, a NOC2 capture included, fails with an error naming the
// path: NOC3 is the one trace format.
func LoadTrace(path string) (Workload, error) { return workload.LoadTrace(path) }

// RecordTraceFile records cores×perCore instructions from w at the given
// seed straight into a NOC3 container at path — bounded-memory end to
// end: blocks are encoded and flushed as the streams produce them, never
// the whole recording at once, so memory is O(encoders × block). Up to
// four CPUs encode blocks, while w's streams are drawn only on the
// calling goroutine, so they need not be safe for concurrent use. The
// file's bytes do not depend on the CPU count. Replay it anywhere a
// workload name is accepted via "trace:<path>"; for an exact reproduction
// of a run, record at least (warmup+window)×3 instructions per core (the
// fetch width bounds per-cycle consumption) at the run's seed. A failed
// recording leaves an existing file at path untouched.
func RecordTraceFile(path string, w Workload, cores, perCore int, seed uint64) error {
	return workload.RecordFile(path, w, cores, perCore, seed)
}

// InspectTrace reads a NOC3 trace file's metadata without replaying it.
func InspectTrace(path string) (*TraceInfo, error) { return workload.InspectTrace(path) }
