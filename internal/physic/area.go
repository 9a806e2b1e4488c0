// Package physic provides the physical models of the evaluation: NoC area
// (ORION-flavoured buffers and crossbars plus repeatered links, §5.2) and
// NoC energy (link-dominated, §6.4). The same area model drives Figure 8's
// breakdown and Figure 9's equal-area link-width solver, so the
// area-normalized comparison is self-consistent.
package physic

import (
	"fmt"

	"nocout/internal/noc"
	"nocout/internal/tech"
	"nocout/internal/topo"
)

// BufferKind selects the buffer circuit: flip-flops for shallow queues
// (mesh, NOC-Out), SRAM for the flattened butterfly's deep buffers (§5.2).
type BufferKind uint8

// Buffer kinds.
const (
	FlipFlop BufferKind = iota
	SRAM
)

func (k BufferKind) cellMM2PerBit() float64 {
	if k == SRAM {
		return tech.SRAMMM2PerBit
	}
	return tech.FlipFlopMM2PerBit
}

// Breakdown is a NoC area report in mm², split the way Figure 8 splits it.
type Breakdown struct {
	Links    float64 `json:"links_mm2"`    // repeater area of all links
	Buffers  float64 `json:"buffers_mm2"`  // input buffering
	Crossbar float64 `json:"crossbar_mm2"` // switch fabric
}

// Total returns the summed area.
func (b Breakdown) Total() float64 { return b.Links + b.Buffers + b.Crossbar }

// Add returns the element-wise sum.
func (b Breakdown) Add(o Breakdown) Breakdown {
	return Breakdown{
		Links:    b.Links + o.Links,
		Buffers:  b.Buffers + o.Buffers,
		Crossbar: b.Crossbar + o.Crossbar,
	}
}

// Scale returns the breakdown scaled by f (used by width scaling).
func (b Breakdown) Scale(f float64) Breakdown {
	return Breakdown{Links: b.Links * f, Buffers: b.Buffers * f, Crossbar: b.Crossbar * f}
}

// String formats the breakdown.
func (b Breakdown) String() string {
	return fmt.Sprintf("links %.2f + buffers %.2f + crossbar %.2f = %.2f mm²",
		b.Links, b.Buffers, b.Crossbar, b.Total())
}

// RoutersArea computes the area of a set of routers and their outgoing
// links at the given flit width.
func RoutersArea(routers []*noc.Router, linkBits int, kind BufferKind) Breakdown {
	var b Breakdown
	w := float64(linkBits)
	for _, r := range routers {
		b.Buffers += float64(r.BufferFlits()) * w * kind.cellMM2PerBit()
		ports := r.NumIn()
		if r.NumOut() > ports {
			ports = r.NumOut()
		}
		b.Crossbar += tech.CrossbarAreaMM2(ports, linkBits)
		for _, l := range r.OutLinkLengthsMM() {
			b.Links += l * w * tech.RepeaterMM2PerBitMM
		}
	}
	return b
}

// NOCOutArea returns the NOC-Out interconnect area split into its three
// networks (reduction trees, dispersion trees, LLC flattened butterfly),
// matching §6.2's accounting.
func NOCOutArea(p topo.NOCOutParams, linkBits int) (red, disp, llc Breakdown) {
	_, rs := topo.NewNOCOut(p)
	red = RoutersArea(rs.Red, linkBits, FlipFlop)
	disp = RoutersArea(rs.Disp, linkBits, FlipFlop)
	llc = RoutersArea(rs.LLC, linkBits, FlipFlop)
	return red, disp, llc
}

// NOCOutTotalArea returns the summed NOC-Out area.
func NOCOutTotalArea(p topo.NOCOutParams, linkBits int) Breakdown {
	r, d, l := NOCOutArea(p, linkBits)
	return r.Add(d).Add(l)
}

// LLCPhysical models a memory hierarchy's on-die contribution: the LLC
// storage array, the directory state tracking it, and their standby
// leakage. Storage scales with capacity alone; directory area scales with
// the line count times the sharer-vector width (one bit per core plus tag
// and state overhead), so many-core chips pay for coherence in silicon
// even when the capacity is fixed. Each bank adds a small fixed control
// overhead, which is how bank-heavy hierarchies (private per-tile slices)
// show their cost.
func LLCPhysical(llcMB float64, banks, cores int) (storageMM2, dirMM2, leakageW float64) {
	if llcMB <= 0 {
		return 0, 0, 0
	}
	storageMM2 = llcMB * tech.CacheMM2PerMB
	lines := llcMB * (1 << 20) / 64
	dirBitsPerLine := float64(cores) + 16 // sharer vector + owner/state/tag overhead
	dirMM2 = lines * dirBitsPerLine * tech.SRAMMM2PerBit
	dirMM2 += float64(banks) * 0.02 // per-bank sequencer/pipeline control
	leakageW = tech.LeakageWPerMM2 * (storageMM2 + dirMM2)
	return storageMM2, dirMM2, leakageW
}
