package noc_test

import (
	"bytes"
	"testing"

	"nocout/internal/ckpt"
	"nocout/internal/noc"
	"nocout/internal/sim"
	"nocout/internal/topo"
)

// fabric64 is one 64-tile network: its Network face and the router
// network behind it.
type fabric64 struct {
	name  string
	build func() (noc.Network, *noc.RouterNetwork)
}

func tiledFabric(build func(topo.Floorplan) *noc.RouterNetwork) func() (noc.Network, *noc.RouterNetwork) {
	return func() (noc.Network, *noc.RouterNetwork) {
		rn := build(topo.TiledFloorplan(64, 8))
		return rn, rn
	}
}

var (
	meshFabric = fabric64{"Mesh", tiledFabric(func(p topo.Floorplan) *noc.RouterNetwork {
		return topo.NewMesh(topo.DefaultMeshParams(p))
	})}
	torusFabric = fabric64{"Torus", tiledFabric(func(p topo.Floorplan) *noc.RouterNetwork {
		return topo.NewTorus(topo.DefaultTorusParams(p))
	})}
	fbflyFabric = fabric64{"FBfly", tiledFabric(func(p topo.Floorplan) *noc.RouterNetwork {
		return topo.NewFBfly(topo.DefaultFBflyParams(p))
	})}
	// The crossbar gets four memory-controller ports beside its 64 tile
	// ports, so its occupancy set and calendar slots span several words.
	crossbarFabric = fabric64{"Crossbar", tiledFabric(func(p topo.Floorplan) *noc.RouterNetwork {
		xp := topo.DefaultCrossbarParams(p)
		xp.AuxTiles = topo.MCTiles(p, 4)
		return topo.NewCrossbar(xp)
	})}
	nocoutFabric = fabric64{"NOC-Out", func() (noc.Network, *noc.RouterNetwork) {
		rn, _ := topo.NewNOCOut(topo.DefaultNOCOutParams())
		return rn, rn
	}}
)

// traffic drives uniform random traffic among a network's endpoints on
// its own engine: each cycle every endpoint sends a packet with
// probability rate, half single-flit requests and half 5-flit responses.
// Delivered packets are recycled, so the steady state allocates only what
// the network itself does.
type traffic struct {
	e     *sim.Engine
	nodes []noc.NodeID
	rng   *sim.RNG
	free  []*noc.Packet
	id    uint64
}

// drive registers net with a new engine and starts traffic among nodes;
// nil nodes means every endpoint with an NI.
func drive(net noc.Network, rn *noc.RouterNetwork, nodes []noc.NodeID, rate float64, seed uint64) *traffic {
	if nodes == nil {
		for n, ni := range rn.NIs {
			if ni != nil {
				nodes = append(nodes, noc.NodeID(n))
			}
		}
	}
	tr := &traffic{e: sim.NewEngine(), nodes: nodes, rng: sim.NewRNG(seed)}
	tr.e.Register(net)
	for _, n := range nodes {
		net.SetDeliver(n, func(_ sim.Cycle, p *noc.Packet) { tr.free = append(tr.free, p) })
	}
	tr.e.Register(sim.TickFunc(func(now sim.Cycle) {
		for _, src := range tr.nodes {
			if !tr.rng.Bool(rate) {
				continue
			}
			dst := tr.nodes[tr.rng.Intn(len(tr.nodes))]
			if dst == src {
				continue
			}
			class, size := noc.ClassReq, 1
			if tr.rng.Bool(0.5) {
				class, size = noc.ClassResp, 5
			}
			var p *noc.Packet
			if k := len(tr.free); k > 0 {
				p, tr.free = tr.free[k-1], tr.free[:k-1]
			} else {
				p = new(noc.Packet)
			}
			tr.id++
			*p = noc.Packet{ID: tr.id, Class: class, Src: src, Dst: dst, Size: size}
			net.Send(now, p)
		}
	}))
	return tr
}

// TestCreditConservationOnFabrics checks credit conservation on every link
// after every cycle of saturated traffic on each router-based fabric —
// head-room bubble flow control on the torus, more than 64 ports on the
// crossbar, static-priority trees on NOC-Out — then again on a fresh
// network restored from a mid-run snapshot as it runs on. The restored
// network's Stats must equal the donor's exactly, the float FlitLinkMM
// included, and its re-save the donor's bytes.
func TestCreditConservationOnFabrics(t *testing.T) {
	const snapAt, restoredFor = 400, 200
	for _, f := range []fabric64{meshFabric, torusFabric, fbflyFabric, crossbarFabric, nocoutFabric} {
		t.Run(f.name, func(t *testing.T) {
			run := func(rn *noc.RouterNetwork, tr *traffic, until sim.Cycle) {
				t.Helper()
				for tr.e.Now() < until {
					tr.e.Step(1)
					if err := rn.CheckCredits(); err != nil {
						t.Fatalf("cycle %d: %v", tr.e.Now(), err)
					}
				}
			}
			net, rn := f.build()
			tr := drive(net, rn, nil, 0.5, 1)
			run(rn, tr, snapAt)
			if rn.Stats().Delivered == 0 {
				t.Fatal("no packet delivered")
			}
			var enc ckpt.Enc
			rn.State(ckpt.Encoding(&enc), snapAt, func(*any, *ckpt.State) {})

			net2, rn2 := f.build()
			d := ckpt.NewDec(enc.Bytes())
			rn2.State(ckpt.Decoding(d), snapAt, func(*any, *ckpt.State) {})
			if d.Err() != nil {
				t.Fatal(d.Err())
			}
			if err := rn2.CheckCredits(); err != nil {
				t.Fatalf("restored at %d: %v", snapAt, err)
			}
			if got, want := rn2.Stats(), rn.Stats(); got != want {
				t.Fatalf("restored at %d: Stats %+v, donor's %+v", snapAt, got, want)
			}
			var again ckpt.Enc
			rn2.State(ckpt.Encoding(&again), snapAt, func(*any, *ckpt.State) {})
			if !bytes.Equal(again.Bytes(), enc.Bytes()) {
				t.Fatalf("restored at %d: re-save differs from the donor's snapshot", snapAt)
			}
			tr2 := drive(net2, rn2, nil, 0.5, 2)
			tr2.e.RestoreAt(snapAt)
			run(rn2, tr2, snapAt+restoredFor)
		})
	}
}

// BenchmarkRouterFabric measures the router layer alone: uniform traffic
// among the 64 tiles (NOC-Out: the 64 cores) at a moderate 0.03 packets
// per endpoint per cycle, half 1-flit and half 5-flit, after a 2000-cycle
// warm-up. One op is one simulated cycle; ns/simcycle restates ns/op
// under the name the chip-level benchmarks use.
func BenchmarkRouterFabric(b *testing.B) {
	cores := make([]noc.NodeID, 64)
	for i := range cores {
		cores[i] = noc.NodeID(i)
	}
	for _, f := range []fabric64{meshFabric, fbflyFabric, nocoutFabric} {
		b.Run(f.name, func(b *testing.B) {
			net, rn := f.build()
			tr := drive(net, rn, cores, 0.03, 1)
			tr.e.Step(2000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.e.Step(1)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/simcycle")
		})
	}
}
