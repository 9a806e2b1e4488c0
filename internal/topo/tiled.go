package topo

import (
	"fmt"

	"nocout/internal/noc"
)

// tiled is the skeleton the router-based fabrics (mesh, cmesh, torus,
// flattened butterfly, and NOC-Out's LLC network) share: one
// RouterNetwork over the tiles plus the auxiliary endpoints, a dedicated
// port pair per aux endpoint on its host router, table routing that
// ejects at the host router, and one NI per endpoint. A builder fills
// routers in order, giving each router its own direction ports and then
// its tiles' ports through local; it calls addAux, route and attach in
// that order and wires its own links.
type tiled struct {
	rn      *noc.RouterNetwork
	aux     []noc.NodeID
	routers []*noc.Router

	// Per endpoint (tiles, then aux): the router serving it and its port
	// pair there. An in of -1 marks an endpoint whose NI the builder wires
	// itself (NOC-Out's cores inject into their reduction trees); the
	// router still ejects toward it through out.
	host    []int
	in, out []int
}

func newTiled(name string, tiles, routers int, aux []noc.NodeID) *tiled {
	nd := tiles + len(aux)
	return &tiled{
		rn:      noc.NewRouterNetwork(name, nd),
		aux:     aux,
		routers: make([]*noc.Router, routers),
		host:    make([]int, nd),
		in:      make([]int, nd),
		out:     make([]int, nd),
	}
}

// local gives endpoint node a port pair on router ri.
func (t *tiled) local(node, ri int, name string, bufFlits int) {
	r := t.routers[ri]
	t.host[node] = ri
	t.in[node] = r.AddIn(name, bufFlits)
	t.out[node] = r.AddOut(name)
}

// addAux adds the aux endpoints' ports on the routers serving their tiles.
func (t *tiled) addAux(bufFlits int) {
	tiles := len(t.host) - len(t.aux)
	for k, tile := range t.aux {
		t.local(tiles+k, t.host[tile], fmt.Sprintf("aux%d", k), bufFlits)
	}
}

// route installs per-destination table routing on every router. A packet
// ejects at the router serving its destination; elsewhere toward(from, to)
// picks the output of router from that leads to router to.
func (t *tiled) route(toward func(from, to int) int) {
	for ri, r := range t.routers {
		next := make([]int, len(t.host))
		for d, h := range t.host {
			if h == ri {
				next[d] = t.out[d]
			} else {
				next[d] = toward(ri, h)
			}
		}
		r.SetRoute(func(pk *noc.Packet) int { return next[pk.Dst] })
	}
}

// attach connects one NI per endpoint, tiles first, skipping those the
// builder wired itself, and returns the finished network.
func (t *tiled) attach(ejectBuf int) *noc.RouterNetwork {
	for node, ri := range t.host {
		if t.in[node] < 0 {
			continue
		}
		ni := noc.NewNI(noc.NodeID(node))
		noc.ConnectNI(ni, t.routers[ri], t.in[node], t.out[node], 1, 1, ejectBuf)
		t.rn.NIs[node] = ni
	}
	t.rn.Routers = t.routers
	return t.rn
}
