package noc

import (
	"fmt"

	"nocout/internal/sim"
)

// This file classifies a RouterNetwork's links against a router-to-domain
// assignment for the conservative parallel kernel (sim.Sharded): any link
// whose producer and consumer land in different domains is switched into
// staged mode, and both of its directions stage at its OutPort. Its flits
// are an in-edge of the consuming domain and its credit returns one of
// the producing domain, and the minimum delay over those directions — a
// credit returns in one cycle — becomes the synchronization lookahead.
//
// Discovery is purely structural — every link is found at its consumer,
// a router input or an NI's eject side, by the OutPort feeding it — so it
// works unchanged for every fabric built from Routers and NIs (mesh,
// torus, cmesh, flattened butterfly, crossbar, NOC-Out's trees + LLC
// network) and for any future one, with no per-topology code.

// ShardPlan is the result of classifying a network against a partition.
type ShardPlan struct {
	Domains    int
	RouterDom  []int // domain per rn.Routers index
	NIDom      []int // domain per rn.NIs index (NodeID); -1 where no NI exists
	Lookahead  sim.Cycle
	InEdges    [][]sim.CrossStage // staged link directions consumed per domain, fixed order
	CrossLinks int                // staged link directions (two per cross-domain link), for diagnostics
}

// NodeDomain returns the domain owning node n's NI. Protocol agents must
// be registered in their node's domain: their inboxes are fed by the NI's
// delivery callback and their sends go through the same NI.
func (p *ShardPlan) NodeDomain(n NodeID) int {
	d := p.NIDom[n]
	if d < 0 {
		panic(fmt.Sprintf("noc: node %d has no NI, so no domain", n))
	}
	return d
}

// BuildShardPlan classifies every link of rn under the given router-domain
// assignment (parallel to rn.Routers, values in [0, domains)), derives NI
// and node domains, switches cross-domain links into staged mode, and
// extracts the lookahead. It also retargets every NI's counters at its
// domain's private stats shard. The network must be fully built and not
// yet registered with any engine.
func (rn *RouterNetwork) BuildShardPlan(routerDom []int, domains int) *ShardPlan {
	if len(routerDom) != len(rn.Routers) {
		panic("noc: BuildShardPlan domain assignment must cover every router")
	}
	p := &ShardPlan{
		Domains:   domains,
		RouterDom: routerDom,
		NIDom:     make([]int, len(rn.NIs)),
		Lookahead: sim.NeverWake,
		InEdges:   make([][]sim.CrossStage, domains),
	}

	// Domain of every router and router output, keyed by identity.
	routerDomOf := map[*Router]int{}
	outDom := map[*OutPort]int{}
	for i, r := range rn.Routers {
		routerDomOf[r] = routerDom[i]
		for _, op := range r.outs {
			outDom[op] = routerDom[i]
		}
	}

	// An NI lives in the domain of the router it injects into (falling
	// back to the router that ejects to it), so its inject link never
	// crosses a boundary; its eject side may (NOC-Out NIs inject into a
	// reduction tree and eject from a dispersion tree).
	for n, ni := range rn.NIs {
		p.NIDom[n] = -1
		if ni == nil {
			continue
		}
		switch {
		case ni.out.down != nil:
			d, ok := routerDomOf[ni.out.down.r]
			if !ok {
				panic(fmt.Sprintf("noc: node %d injects into no known router", n))
			}
			p.NIDom[n] = d
		case ni.from != nil:
			d, ok := outDom[ni.from]
			if !ok {
				panic(fmt.Sprintf("noc: node %d ejects from no known router", n))
			}
			p.NIDom[n] = d
		default:
			p.NIDom[n] = 0 // orphan NI: any domain works, it moves nothing
		}
	}

	// Collect cross edges by scanning consumers in a fixed order (routers
	// then NIs, ports in wiring order), so each domain's commit order is
	// deterministic. A link fed by an NI's inject side has no router
	// output as its producer and never crosses, by construction.
	cross := func(e sim.CrossStage, delay sim.Cycle, d int) {
		p.InEdges[d] = append(p.InEdges[d], e)
		p.CrossLinks++
		if delay < p.Lookahead {
			p.Lookahead = delay
		}
	}
	stage := func(op *OutPort, cons int) {
		if prod, ok := outDom[op]; ok && prod != cons {
			op.Stage()
			cross(op, op.delay, cons)
			cross((*creditStage)(op), 1, prod)
		}
	}
	for i, r := range rn.Routers {
		for _, ip := range r.ins {
			if ip.from != nil {
				stage(ip.from, routerDom[i])
			}
		}
	}
	for n, ni := range rn.NIs {
		if ni != nil && ni.from != nil {
			stage(ni.from, p.NIDom[n])
		}
	}

	// Per-domain NI stats shards: concurrent domains must not share one
	// counter struct. Router counters are already router-local.
	rn.shards = make([]Stats, domains)
	for n, ni := range rn.NIs {
		if ni != nil {
			ni.SetStats(&rn.shards[p.NIDom[n]])
		}
	}
	return p
}

// RegisterSharded registers every router and NI into its domain's engine,
// preserving the global iteration order RegisterInto uses — so two
// components that land in the same domain keep their relative tick order,
// and single-domain plans degenerate to exactly RegisterInto.
func (rn *RouterNetwork) RegisterSharded(doms []*sim.Engine, p *ShardPlan) {
	for i, r := range rn.Routers {
		doms[p.RouterDom[i]].Register(r)
	}
	for n, ni := range rn.NIs {
		if ni != nil {
			doms[p.NIDom[n]].Register(ni)
		}
	}
}
