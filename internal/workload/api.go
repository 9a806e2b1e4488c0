package workload

import (
	"math"

	"nocout/internal/cpu"
)

// This file defines the behavioral workload API. A Workload is a
// self-describing workload *source* — the unit of extension for the
// scenario space, exactly as Organization is for the interconnect design
// space: it names itself (registry/CLI resolution), bounds its software
// scalability, derives each core's pipeline parameters, produces each
// core's dynamic instruction stream, and describes its address-space
// layout for cache prewarming. The chip builds against this interface
// only; the synthetic generators, recorded traces, multiprogrammed mixes,
// and phased schedules are all just implementations.

// Workload is a behavioral workload source. Implementations must be
// usable concurrently: StreamFor and CoreParams are called from
// experiment worker pools, and every returned stream must be
// independent. The contract the conformance suite enforces:
//
//   - Name is non-empty and stable; Aliases are extra lowercase CLI
//     spellings (the lowercased Name is always accepted);
//   - MaxCores is the software scalability limit (§5.3) — at least 1;
//   - StreamFor(coreID, seed) is deterministic: the same (coreID, seed)
//     always yields the identical cpu.Instr sequence;
//   - CoreParams(coreID, seed) returns a valid cpu.Params carrying the
//     workload's ILP/MLP calibration with the seed threaded through;
//   - Layout describes the regions the chip functionally prewarms.
type Workload interface {
	// Name is the workload's display name; it is how results report,
	// JSON encodes, and the registry primarily resolves it.
	Name() string
	// Aliases lists extra (lowercase) CLI spellings; the lowercased Name
	// is always accepted and need not be repeated.
	Aliases() []string
	// MaxCores is the workload's software scalability limit (§5.3: Web
	// Frontend and Web Search only scale to 16 cores).
	MaxCores() int
	// CoreParams derives the cpu parameters coreID's pipeline runs with.
	CoreParams(coreID int, seed uint64) cpu.Params
	// StreamFor returns coreID's dynamic instruction stream. Streams are
	// endless; finite sources (traces) loop.
	StreamFor(coreID int, seed uint64) cpu.Stream
	// Layout describes the workload's address space for cache prewarming.
	Layout() Layout
}

// Region is a contiguous physical address range in bytes.
type Region struct {
	Base uint64 `json:"base"`
	Size uint64 `json:"size"`
}

// wraps reports whether r's end overflows 2^64, so that it names no
// address range. Trace readers and the recorder refuse such a region.
func (r Region) wraps() bool { return r.Base+r.Size < r.Base }

// Layout describes a workload's address space the way the paper's
// checkpoint methodology needs it (§5.4): the shared regions become
// LLC-resident before timing starts and each active core's local region
// is owned by its L1-D.
type Layout struct {
	// Instr is the shared instruction footprint (LLC-prewarmed).
	Instr Region
	// Hot is the shared read-write region — the snoop source.
	Hot Region
	// Local returns a core's private L1-resident region.
	Local func(coreID int) Region
}

// MemberMapper is implemented by heterogeneous workloads (Mix, replayed
// captures of one) that can attribute each core to a named member
// workload; chips use it for the per-member IPC breakdown in results.
type MemberMapper interface {
	MemberName(coreID int) string
}

// MemberNameOf reports the member workload driving coreID, unwrapping
// decorators like Unlimited. The second result is false when w does not
// distinguish members (the name falls back to w.Name()).
func MemberNameOf(w Workload, coreID int) (string, bool) {
	for {
		if m, ok := w.(MemberMapper); ok {
			return m.MemberName(coreID), true
		}
		u, ok := w.(interface{ Unwrap() Workload })
		if !ok {
			return w.Name(), false
		}
		w = u.Unwrap()
	}
}

// Synthetic adapts a Params calibration block to the Workload interface;
// the paper's six builtin workloads are registered through it. The zero
// value is not useful — construct with Synth.
type Synthetic struct {
	P       Params
	aliases []string
}

// Synth wraps a synthetic calibration as a Workload, with optional extra
// CLI aliases.
func Synth(p Params, aliases ...string) Synthetic {
	return Synthetic{P: p, aliases: aliases}
}

// Name implements Workload.
func (s Synthetic) Name() string { return s.P.Name }

// Aliases implements Workload.
func (s Synthetic) Aliases() []string { return s.aliases }

// MaxCores implements Workload; an unset calibration limit means 64.
func (s Synthetic) MaxCores() int { return s.P.scaleLimit() }

// scaleLimit is a calibration's software scalability limit with the
// 64-core default applied; the single home of that defaulting.
func (p Params) scaleLimit() int {
	if p.MaxCores > 0 {
		return p.MaxCores
	}
	return 64
}

// minScaleLimit is the least member limit — how heterogeneous
// workloads (Mix, Phased) scale.
func minScaleLimit(members []Params) int {
	limit := members[0].scaleLimit()
	for _, p := range members[1:] {
		limit = min(limit, p.scaleLimit())
	}
	return limit
}

// CoreParams implements Workload. Synthetic cores are homogeneous: every
// core gets the calibration's ILP/MLP knobs.
func (s Synthetic) CoreParams(coreID int, seed uint64) cpu.Params {
	return s.P.CoreParams(seed)
}

// StreamFor implements Workload with the synthetic generator.
func (s Synthetic) StreamFor(coreID int, seed uint64) cpu.Stream {
	return NewGenerator(s.P, coreID, seed)
}

// Layout implements Workload with the calibration's fixed address map.
func (s Synthetic) Layout() Layout { return layoutOf(s.P) }

// layoutOf builds the standard synthetic address-space layout.
func layoutOf(p Params) Layout {
	return Layout{
		Instr: Region{Base: instrBase, Size: p.InstrFootprint},
		Hot:   Region{Base: hotBase, Size: p.HotB},
		Local: func(core int) Region {
			base, size := p.LocalRegion(core)
			return Region{Base: base, Size: size}
		},
	}
}

// Unlimited lifts w's software scalability cap so the chip enables every
// core — the §7.1 assumption of software able to use the whole die. It
// replaces the old mutate-the-struct-field idiom and works for any
// Workload implementation; everything else (name, streams, layout)
// delegates to w.
func Unlimited(w Workload) Workload {
	if _, ok := w.(unlimited); ok {
		return w
	}
	return unlimited{w}
}

type unlimited struct{ Workload }

// MaxCores reports no software limit; the chip clamps to its core count.
func (unlimited) MaxCores() int { return math.MaxInt }

// Unwrap exposes the capped workload (MemberNameOf and tooling use it).
func (u unlimited) Unwrap() Workload { return u.Workload }
