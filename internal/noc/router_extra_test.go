package noc

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"reflect"
	"strings"
	"testing"

	"nocout/internal/ckpt"
	"nocout/internal/sim"
)

func TestVCCountDefaultsAndOverride(t *testing.T) {
	r := NewRouter(0, "r", 1, nil)
	r.AddIn("a", 4)
	r.AddIn("b", 4)
	if r.VCCount() != NumClasses {
		t.Fatalf("default VC count = %d", r.VCCount())
	}
	if r.BufferFlits() != 2*4*NumClasses {
		t.Fatalf("buffer flits = %d", r.BufferFlits())
	}
	r.SetVCCount(2)
	if r.BufferFlits() != 2*4*2 {
		t.Fatalf("buffer flits after override = %d", r.BufferFlits())
	}
}

func TestOutLinkLengths(t *testing.T) {
	a := NewRouter(0, "a", 1, func(p *Packet) int { return 0 })
	a.AddIn("in", 2)
	a.AddOut("o1")
	a.AddOut("o2") // left unconnected
	b := NewRouter(1, "b", 1, func(p *Packet) int { return 0 })
	b.AddIn("in", 2)
	b.AddOut("out")
	Connect(a, 0, b, 0, 1, 3.5)
	ls := a.OutLinkLengthsMM()
	if len(ls) != 1 || ls[0] != 3.5 {
		t.Fatalf("link lengths = %v", ls)
	}
}

func TestRoundRobinFairnessBetweenInputs(t *testing.T) {
	// Two saturated inputs into one output: round-robin arbitration must
	// deliver roughly equal shares.
	rn := NewRouterNetwork("fair", 3)
	mux := NewRouter(100, "mux", 1, nil)
	mux.SetRoute(func(p *Packet) int { return 0 })
	mux.AddIn("a", 4)
	mux.AddIn("b", 4)
	mux.AddOut("out")

	srcA := NewRouter(101, "srcA", 1, func(p *Packet) int { return 0 })
	srcA.AddIn("ni", 4)
	srcA.AddOut("out")
	srcB := NewRouter(102, "srcB", 1, func(p *Packet) int { return 0 })
	srcB.AddIn("ni", 4)
	srcB.AddOut("out")
	Connect(srcA, 0, mux, 0, 1, 1)
	Connect(srcB, 0, mux, 1, 1, 1)

	niA := NewNI(0)
	ConnectNIInject(niA, srcA, 0, 1)
	niB := NewNI(1)
	ConnectNIInject(niB, srcB, 0, 1)
	dst := NewNI(2)
	ConnectNIEject(dst, mux, 0, 1, 8)

	counts := map[NodeID]int{}
	total := 0
	dst.SetDeliver(func(now sim.Cycle, p *Packet) { counts[p.Src]++; total++ })

	rn.Routers = []*Router{mux, srcA, srcB}
	rn.NIs[0], rn.NIs[1], rn.NIs[2] = niA, niB, dst
	e := sim.NewEngine()
	e.Register(rn)
	const k = 200
	for i := 0; i < k; i++ {
		niA.Send(e.Now(), &Packet{ID: uint64(i), Class: ClassReq, Src: 0, Dst: 2, Size: 1})
		niB.Send(e.Now(), &Packet{ID: uint64(1000 + i), Class: ClassReq, Src: 1, Dst: 2, Size: 1})
	}
	if !e.RunUntil(func() bool { return total == 2*k }, 10000) {
		t.Fatalf("delivered %d/%d", total, 2*k)
	}
	if counts[0] < k*8/10 || counts[1] < k*8/10 {
		t.Fatalf("unfair arbitration: %v", counts)
	}
	// Both streams must finish in roughly the same span: check the mux
	// alternated rather than draining one side first (delivery interleave
	// witnessed by final counts being complete is sufficient here).
}

func TestFlitsRoutedCounter(t *testing.T) {
	rn := lineNet(t, 2, 1, 8)
	e := sim.NewEngine()
	e.Register(rn)
	done := 0
	rn.SetDeliver(1, func(now sim.Cycle, p *Packet) { done++ })
	rn.Send(e.Now(), &Packet{ID: 1, Class: ClassResp, Src: 0, Dst: 1, Size: 5})
	e.RunUntil(func() bool { return done == 1 }, 200)
	for _, r := range rn.Routers {
		if r.FlitsRouted() != 5 {
			t.Fatalf("router %s routed %d flits, want 5", r.Name, r.FlitsRouted())
		}
	}
	st := rn.Stats()
	if st.FlitHops != 10 { // 5 flits x 2 routers
		t.Fatalf("FlitHops = %d, want 10", st.FlitHops)
	}
	if st.FlitLinkMM <= 0 {
		t.Fatal("link-mm accounting missing")
	}
}

func TestPendingCount(t *testing.T) {
	rn := lineNet(t, 2, 1, 1)
	ni := rn.NIs[0]
	ni.Send(0, &Packet{ID: 1, Class: ClassReq, Src: 0, Dst: 1, Size: 3})
	ni.Send(0, &Packet{ID: 2, Class: ClassResp, Src: 0, Dst: 1, Size: 3})
	if ni.Pending() != 2 {
		t.Fatalf("pending = %d", ni.Pending())
	}
}

func TestClassString(t *testing.T) {
	if ClassReq.String() != "req" || ClassSnoop.String() != "snoop" || ClassResp.String() != "resp" {
		t.Fatal("class names wrong")
	}
	if Class(9).String() == "" {
		t.Fatal("unknown class should still format")
	}
}

// forkNet is NIs 0 and 3 → r0 → r1, where r1 ejects to NI 1 or NI 2 by
// destination. The two injectors contend for r0's one output, and
// two-flit buffers spread multi-flit packets across both routers, so
// VCs hold flits, empty and refill mid-packet. The three router links
// have unequal fractional lengths, so the FlitLinkMM sum rounds.
func forkNet() *RouterNetwork {
	rn := NewRouterNetwork("fork", 4)
	r0 := NewRouter(100, "r0", 1, func(p *Packet) int { return 0 })
	r0.AddIn("in0", 2)
	r0.AddIn("in3", 2)
	r0.AddOut("out")
	r1 := NewRouter(101, "r1", 1, func(p *Packet) int { return int(p.Dst) - 1 })
	r1.AddIn("in", 2)
	r1.AddOut("to1")
	r1.AddOut("to2")
	Connect(r0, 0, r1, 0, 1, 0.3)
	for in, n := range []NodeID{0, 3} {
		ni := NewNI(n)
		ConnectNIInject(ni, r0, in, 1)
		rn.NIs[n] = ni
	}
	for d := 1; d <= 2; d++ {
		ni := NewNI(NodeID(d))
		ConnectNIEject(ni, r1, d-1, 1, 8)
		r1.SetOutLength(d-1, 0.3*float64(2*d+1))
		rn.NIs[d] = ni
	}
	rn.Routers = []*Router{r0, r1}
	return rn
}

// checkDerived checks, at cycle now, the state each router derives from
// its VCs: each VC's arrival cycles rise, the buffered count equals the
// flits arrived by now, the occupancy bits mark exactly the VCs whose
// front flit has arrived, the arrival calendar marks exactly the flits
// still on their links, and every remembered route is the destination's
// route.
func checkDerived(t *testing.T, rn *RouterNetwork, now sim.Cycle) {
	t.Helper()
	for _, r := range rn.Routers {
		n, onLink, marks := 0, 0, 0
		for _, w := range r.cal {
			marks += bits.OnesCount64(w)
		}
		for p, ip := range r.ins {
			for c := range ip.vcs {
				q := &ip.vcs[c]
				a := q.arrived(now)
				n += a
				if occ := hasBit(r.occ, p*NumClasses+c); occ != (a > 0) {
					t.Fatalf("cycle %d: %s input %d VC %d holds %d arrived flits but occupancy bit is %v", now, r.Name, p, c, a, occ)
				}
				for i := 0; i < q.n; i++ {
					f := q.nth(i)
					if i > 0 && f.at < q.nth(i-1).at {
						t.Fatalf("cycle %d: %s input %d VC %d flit %d arrives at cycle %d, before the flit ahead of it (%d)", now, r.Name, p, c, i, f.at, q.nth(i-1).at)
					}
					if i >= a {
						onLink++
						if !hasBit(r.slot(f.at), p*NumClasses+c) {
							t.Fatalf("cycle %d: %s input %d VC %d flit arriving at cycle %d is not in the calendar", now, r.Name, p, c, f.at)
						}
					}
				}
			}
		}
		if r.buffered != n || marks != onLink {
			t.Fatalf("cycle %d: %s buffered = %d with %d arrived, %d calendar marks for %d flits on links", now, r.Name, r.buffered, n, marks, onLink)
		}
		for d, out := range r.memo {
			if want := r.route(&Packet{Dst: NodeID(d)}); out >= 0 && int(out) != want {
				t.Fatalf("cycle %d: %s remembers port %d for destination %d, routed to %d", now, r.Name, out, d, want)
			}
		}
	}
}

// TestRouterBufferedAndRouteCache checks the routers' derived state after
// every cycle of saturated multi-flit traffic. Snapshots taken along the
// run must then replay the original run's deliveries both in a fresh
// network and in the original one rewound from a later cycle, whose
// derived state, last-grant stamps and NI counters a load must reset.
// Each restored network's Stats must equal the donor's at the snapshot
// exactly, the float FlitLinkMM included, and its re-save the donor's
// bytes.
func TestRouterBufferedAndRouteCache(t *testing.T) {
	type delivery struct {
		ID uint64
		At sim.Cycle
	}
	const packets = 60
	// build returns an idle network recording deliveries into got; load
	// queues the traffic on it.
	build := func(got *[]delivery) (*RouterNetwork, *sim.Engine) {
		rn := forkNet()
		for _, d := range []NodeID{1, 2} {
			rn.SetDeliver(d, func(now sim.Cycle, p *Packet) { *got = append(*got, delivery{p.ID, now}) })
		}
		e := sim.NewEngine()
		e.Register(rn)
		return rn, e
	}
	load := func(rn *RouterNetwork) {
		for i := 0; i < packets; i++ {
			src := NodeID(0)
			if i%3 == 0 {
				src = 3
			}
			rn.Send(0, &Packet{ID: uint64(i), Class: Class(i % NumClasses), Src: src, Dst: NodeID(1 + i%2), Size: 1 + i%5})
		}
	}
	run := func(rn *RouterNetwork, e *sim.Engine, until sim.Cycle) {
		for e.Now() < until {
			e.Step(1)
			checkDerived(t, rn, e.Now())
		}
	}
	save := func(rn *RouterNetwork, at sim.Cycle) []byte {
		var enc ckpt.Enc
		rn.State(ckpt.Encoding(&enc), at, nopPayload)
		return enc.Bytes()
	}
	restore := func(rn *RouterNetwork, e *sim.Engine, snap []byte, at sim.Cycle, want Stats) {
		d := ckpt.NewDec(snap)
		rn.State(ckpt.Decoding(d), at, nopPayload)
		if d.Err() != nil {
			t.Fatal(d.Err())
		}
		checkDerived(t, rn, at)
		if got := rn.Stats(); got != want {
			t.Fatalf("restored at %d: Stats %+v, donor's %+v", at, got, want)
		}
		if !bytes.Equal(save(rn, at), snap) {
			t.Fatalf("restored at %d: re-save differs from the donor's snapshot", at)
		}
		e.RestoreAt(at)
	}

	const end = 600
	var ref []delivery
	rn, e := build(&ref)
	load(rn)
	snaps := map[sim.Cycle][]byte{}
	delivered := map[sim.Cycle]int{}
	stats := map[sim.Cycle]Stats{}
	held := 0
	for at := sim.Cycle(10); at < 100; at += 7 {
		run(rn, e, at)
		snaps[at], delivered[at], stats[at] = save(rn, at), len(ref), rn.Stats()
		held += rn.Routers[0].buffered + rn.Routers[1].buffered
	}
	run(rn, e, end)
	if len(ref) != packets || held == 0 {
		t.Fatalf("%d of %d packets delivered, %d flits held at snapshots; want all, and some", len(ref), packets, held)
	}

	for at, snap := range snaps {
		want := ref[delivered[at]:]
		var fresh []delivery
		rn, e := build(&fresh)
		restore(rn, e, snap, at, stats[at])
		run(rn, e, end)

		var rewound []delivery
		rn, e = build(&rewound)
		load(rn)
		run(rn, e, at+9)
		rewound = rewound[:0]
		restore(rn, e, snap, at, stats[at])
		run(rn, e, end)

		for name, got := range map[string][]delivery{"fresh": fresh, "rewound": rewound} {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("snapshot at %d, %s restore delivered %v, original %v", at, name, got, want)
			}
		}
	}
}

// nopPayload walks no payload: these networks carry bare packets.
func nopPayload(*any, *ckpt.State) {}

// TestRouterLinkLoadRejectsImpossibleFlits snapshots a saturated fork
// network with flits on a router input's link, rewrites those flits four
// ways no save can write — one arriving at the snapshot cycle, one beyond
// the link's delay, one not after the flit sent before it, and one more
// than its VC can hold — and requires each load to fail with a
// corrupt-state error naming the input. The flits as they were, rewritten
// the same way, load.
func TestRouterLinkLoadRejectsImpossibleFlits(t *testing.T) {
	rn := forkNet()
	for _, d := range []NodeID{1, 2} {
		rn.SetDeliver(d, func(sim.Cycle, *Packet) {})
	}
	e := sim.NewEngine()
	e.Register(rn)
	for i := 0; i < 60; i++ {
		rn.Send(0, &Packet{ID: uint64(i), Class: Class(i % NumClasses), Src: NodeID(3 * (i % 2)), Dst: NodeID(1 + i%2), Size: 1 + i%5})
	}
	// Step to a cycle where some input has flits on its link and a VC
	// whose arrived flits leave room for fewer flits than the link can
	// carry; the over-capacity case fills that VC.
	var (
		ip     *InPort
		name   string
		onLink []linkFlit
		vc     = -1
	)
	for e.Now() < 200 && vc < 0 {
		e.Step(1)
		for _, r := range rn.Routers {
			for _, in := range r.ins {
				onLink = onLink[:0]
				in.from.eachInFlight(e.Now(), func(f *linkFlit) { onLink = append(onLink, *f) })
				for c := range in.vcs {
					if len(onLink) > 0 && vc < 0 && sim.Cycle(in.cap-in.vcs[c].arrived(e.Now())+1) <= in.from.delay {
						ip, name, vc = in, r.Name+" input "+in.name, c
					}
				}
				if vc >= 0 {
					break
				}
			}
			if vc >= 0 {
				break
			}
		}
	}
	now := e.Now()
	if vc < 0 {
		t.Fatalf("no cycle up to %d has an input with flits on its link and a nearly full VC", now)
	}
	delay := ip.from.delay
	overfull := make([]linkFlit, ip.cap-ip.vcs[vc].arrived(now)+1)
	for i := range overfull {
		overfull[i] = linkFlit{Flit: ip.vcs[vc].front(), at: now + 1 + sim.Cycle(i)}
	}

	// load saves rn with flits on the link instead of the flits there —
	// the VCs keep their arrived flits and the link's OutPort stages the
	// rest, which a save writes after them — and loads it into a fresh
	// network.
	load := func(flits []linkFlit) error {
		var n [NumClasses]int
		for c := range ip.vcs {
			n[c], ip.vcs[c].n = ip.vcs[c].n, ip.vcs[c].arrived(now)
		}
		ip.from.staged = flits
		var enc ckpt.Enc
		rn.State(ckpt.Encoding(&enc), now, nopPayload)
		for c := range ip.vcs {
			ip.vcs[c].n = n[c]
		}
		ip.from.staged = nil
		d := ckpt.NewDec(enc.Bytes())
		forkNet().State(ckpt.Decoding(d), now, nopPayload)
		return d.Err()
	}
	if err := load(onLink); err != nil {
		t.Fatalf("the link's own flits at cycle %d: %v", now, err)
	}
	rewrite := func(edit func(fs []linkFlit) []linkFlit) []linkFlit {
		return edit(append([]linkFlit(nil), onLink...))
	}
	for _, tc := range []struct {
		name  string
		flits []linkFlit
		want  string
	}{
		{"arriving at the snapshot cycle", rewrite(func(fs []linkFlit) []linkFlit { fs[0].at = now; return fs }),
			"not after the snapshot cycle"},
		{"arriving beyond the link's delay", rewrite(func(fs []linkFlit) []linkFlit { fs[len(fs)-1].at = now + delay + 1; return fs }),
			"beyond its"},
		{"out of send order", rewrite(func(fs []linkFlit) []linkFlit { return append(fs, fs[len(fs)-1]) }),
			"not after the flit sent before it"},
		{"past the VC's capacity", overfull, "holds more than"},
	} {
		err := load(tc.flits)
		if err == nil || !strings.HasPrefix(err.Error(), "ckpt: ") ||
			!strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s at cycle %d: load returned %v, want a corrupt-state error naming %s and %q", tc.name, now, err, name, tc.want)
		}
	}
}

// ejectNet is NI 0 → r0 → NI 1, with a 9-cycle eject link into a ring
// of one flit per class, so the eject side holds flits on its link and a
// few more would overfill it.
func ejectNet() *RouterNetwork {
	rn := NewRouterNetwork("eject", 2)
	r0 := NewRouter(100, "r0", 1, func(*Packet) int { return 0 })
	r0.AddIn("in", 2)
	r0.AddOut("out")
	ni0, ni1 := NewNI(0), NewNI(1)
	ConnectNIInject(ni0, r0, 0, 1)
	ConnectNIEject(ni1, r0, 0, 8, 1)
	rn.NIs[0], rn.NIs[1] = ni0, ni1
	rn.Routers = []*Router{r0}
	rn.SetDeliver(1, func(sim.Cycle, *Packet) {})
	return rn
}

// TestEjectAndCreditLoadRejectsImpossibleEntries snapshots a busy eject
// link with flits on it and a credit returned on the snapshot cycle, and
// rewrites what the save writes for the link in ways no save can: a flit
// arriving at the snapshot cycle, one beyond the link's delay, one not
// after the flit sent before it, flits past the ring's capacity, one
// flit more of a class than its buffering balanced by a credit count
// below zero, a credit due more than a cycle after the snapshot, and two
// credits due on the cycle after it. Each load must fail with a
// corrupt-state error naming the NI or the output. The link as it was
// loads, and so does the form a save made before credits were counters
// wrote: a credit usable at the snapshot cycle as a return due by it,
// which a load counts.
func TestEjectAndCreditLoadRejectsImpossibleEntries(t *testing.T) {
	rn := ejectNet()
	e := sim.NewEngine()
	e.Register(rn)
	for i := 0; i < 30; i++ {
		rn.Send(0, &Packet{ID: uint64(i), Class: Class(i % NumClasses), Src: 0, Dst: 1, Size: 1 + i%3})
	}
	ni, op := rn.NIs[1], rn.Routers[0].outs[0]
	for e.Now() < 200 && (ni.ej.n < 2 || ni.ej.n == len(ni.ej.buf) || op.ret.due != e.Now()+1) {
		e.Step(1)
	}
	now := e.Now()
	if ni.ej.n < 2 || ni.ej.n == len(ni.ej.buf) || op.ret.due != now+1 {
		t.Fatalf("no cycle up to %d has two flits on the eject link, room for a third and a credit returned on it", now)
	}
	var onLink []linkFlit
	op.eachInFlight(now, func(f *linkFlit) { onLink = append(onLink, *f) })
	// One more flit of the last flit's class, whose one buffer slot that
	// flit already holds, and a credit count lowered to keep the sum.
	last := onLink[len(onLink)-1]
	if op.credits[last.Pkt.Class] != 0 || last.at+1 > now+op.delay {
		t.Fatalf("cycle %d: class %v holds %d credits, last flit arrives at %d", now, last.Pkt.Class, op.credits[last.Pkt.Class], last.at)
	}
	extra := append(append([]linkFlit(nil), onLink...), linkFlit{Flit: last.Flit, at: last.at + 1})
	overfull := make([]linkFlit, len(ni.ej.buf)+1)
	for i := range overfull {
		overfull[i] = linkFlit{Flit: ni.ej.front(), at: now + 1 + sim.Cycle(i)}
	}
	pending := op.ret

	// save writes rn with flits on the eject link and credit returns to
	// r0's output instead of the ones there — the ring emptied and the
	// link staging both — and credits[c] lowered by one.
	save := func(flits []linkFlit, rets []creditReturn, c Class, drop bool) []byte {
		n := ni.ej.n
		ni.ej.n, op.staged, op.ret, op.stagedRet = 0, flits, creditReturn{}, rets
		if drop {
			op.credits[c]--
		}
		var enc ckpt.Enc
		rn.State(ckpt.Encoding(&enc), now, nopPayload)
		ni.ej.n, op.staged, op.ret, op.stagedRet = n, nil, pending, nil
		if drop {
			op.credits[c]++
		}
		return enc.Bytes()
	}
	load := func(b []byte) (*RouterNetwork, error) {
		d := ckpt.NewDec(b)
		got := ejectNet()
		got.State(ckpt.Decoding(d), now, nopPayload)
		return got, d.Err()
	}
	asIs := save(onLink, []creditReturn{pending}, 0, false)
	got, err := load(asIs)
	if err != nil {
		t.Fatalf("the link's own flits and credit at cycle %d: %v", now, err)
	}
	if b := save(onLink, []creditReturn{pending}, 0, false); !bytes.Equal(b, asIs) {
		t.Fatal("saving changed the network")
	}
	var enc ckpt.Enc
	got.State(ckpt.Encoding(&enc), now, nopPayload)
	if !bytes.Equal(enc.Bytes(), asIs) {
		t.Fatal("a loaded network saves other bytes than it loaded")
	}
	undrained := save(onLink, []creditReturn{{due: now - 3, vc: ClassReq}, pending}, ClassReq, true)
	if got, err = load(undrained); err != nil {
		t.Fatalf("a credit due by cycle %d written as a return: %v", now, err)
	}
	enc = ckpt.Enc{}
	got.State(ckpt.Encoding(&enc), now, nopPayload)
	if !bytes.Equal(enc.Bytes(), asIs) {
		t.Fatal("a credit due by the snapshot cycle written as a return loads as another state than the counted credit")
	}

	rewrite := func(edit func(fs []linkFlit) []linkFlit) []linkFlit {
		return edit(append([]linkFlit(nil), onLink...))
	}
	delay := op.delay
	for _, tc := range []struct {
		name  string
		flits []linkFlit
		rets  []creditReturn
		drop  bool // lower the last flit's class's credits by one
		owner string
		want  string
	}{
		{"flit arriving at the snapshot cycle", rewrite(func(fs []linkFlit) []linkFlit { fs[0].at = now; return fs }), nil, false,
			"ni1 eject side", "not after the snapshot cycle"},
		{"flit arriving beyond the link's delay", rewrite(func(fs []linkFlit) []linkFlit { fs[len(fs)-1].at = now + delay + 1; return fs }), nil, false,
			"ni1 eject side", "beyond its"},
		{"flits out of send order", rewrite(func(fs []linkFlit) []linkFlit { return append(fs, fs[len(fs)-1]) }), nil, false,
			"ni1 eject side", "not after the flit sent before it"},
		{"flits past the ring's capacity", overfull, nil, false, "ni1 eject side", "holds more than"},
		{"a class past its buffering, credits below zero", extra, nil, true,
			"r0 output out VC " + last.Pkt.Class.String(), "below zero"},
		{"credit due two cycles on", onLink, []creditReturn{{due: now + 2, vc: pending.vc}}, false,
			"r0 output out", "more than one cycle after"},
		{"two credits due the next cycle", onLink, []creditReturn{pending, {due: now + 1, vc: ClassResp}}, false,
			"r0 output out", "two credits returned"},
	} {
		rets := tc.rets
		if rets == nil {
			rets = []creditReturn{pending}
		}
		_, err := load(save(tc.flits, rets, last.Pkt.Class, tc.drop))
		if err == nil || !strings.HasPrefix(err.Error(), "ckpt: ") ||
			!strings.Contains(err.Error(), tc.owner) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s at cycle %d: load returned %v, want a corrupt-state error naming %s and %q", tc.name, now, err, tc.owner, tc.want)
		}
	}
}

// TestCreditReturnAdmitsTheNextGrantACycleLater runs one packet through
// a two-router chain whose inputs hold one flit per VC, so each grant of
// the upstream router after its first waits for the credit the downstream
// router returns when it grants the flit before. A credit returned at
// cycle t must admit that grant at t+1, not at t: with the upstream
// router ticking before the downstream one and after it, on the naive
// and the scheduled kernel.
func TestCreditReturnAdmitsTheNextGrantACycleLater(t *testing.T) {
	const size = 6
	for _, upFirst := range []bool{true, false} {
		for _, scheduled := range []bool{true, false} {
			rn := NewRouterNetwork("chain", 2)
			r0 := NewRouter(100, "r0", 1, func(*Packet) int { return 0 })
			r1 := NewRouter(101, "r1", 1, func(*Packet) int { return 0 })
			for _, r := range []*Router{r0, r1} {
				r.AddIn("in", 1)
				r.AddOut("out")
			}
			Connect(r0, 0, r1, 0, 1, 1.0)
			ni0, ni1 := NewNI(0), NewNI(1)
			ConnectNIInject(ni0, r0, 0, 1)
			ConnectNIEject(ni1, r1, 0, 1, 8)
			rn.NIs[0], rn.NIs[1] = ni0, ni1
			rn.Routers = []*Router{r1, r0}
			if upFirst {
				rn.Routers = []*Router{r0, r1}
			}
			delivered := false
			rn.SetDeliver(1, func(sim.Cycle, *Packet) { delivered = true })
			e := sim.NewEngine()
			e.SetScheduled(scheduled)
			e.Register(rn)
			rn.Send(0, &Packet{ID: 1, Class: ClassReq, Src: 0, Dst: 1, Size: size})

			var up, down []sim.Cycle
			for e.Now() < 100 {
				f0, f1 := r0.flits, r1.flits
				e.Step(1)
				if r0.flits > f0 {
					up = append(up, e.Now())
				}
				if r1.flits > f1 {
					down = append(down, e.Now())
				}
			}
			if !delivered || len(up) != size || len(down) != size {
				t.Fatalf("upstream first %v, scheduled %v: delivered %v, upstream grants %v, downstream grants %v", upFirst, scheduled, delivered, up, down)
			}
			for k := 1; k < size; k++ {
				if up[k] != down[k-1]+1 {
					t.Errorf("upstream first %v, scheduled %v: the credit returned at cycle %d admitted the next grant at cycle %d, want %d (upstream grants %v, downstream grants %v)",
						upFirst, scheduled, down[k-1], up[k], down[k-1]+1, up, down)
					break
				}
			}
		}
	}
}

// TestRouterLongLinks wires a 100-cycle NI inject link and a 100-cycle
// router link, far longer than a small arrival calendar spans, and runs
// multi-flit traffic over them on the naive and scheduled kernels in
// lockstep: the derived router state holds and the network's snapshot
// bytes agree after every cycle. A snapshot taken with flits on both long
// links must then replay the rest of the run in a fresh network.
func TestRouterLongLinks(t *testing.T) {
	const long, end = 100, 700
	type delivery struct {
		ID uint64
		At sim.Cycle
	}
	build := func(scheduled bool, got *[]delivery) (*RouterNetwork, *sim.Engine) {
		rn := NewRouterNetwork("long", 2)
		r0 := NewRouter(100, "r0", 1, func(p *Packet) int { return 0 })
		r0.AddIn("ni", 3)
		r0.AddOut("out")
		r1 := NewRouter(101, "r1", 2, func(p *Packet) int { return 0 })
		r1.AddIn("in", long+4)
		r1.AddOut("ej")
		Connect(r0, 0, r1, 0, long, 1.0)
		src, dst := NewNI(0), NewNI(1)
		ConnectNIInject(src, r0, 0, long)
		ConnectNIEject(dst, r1, 0, 1, 8)
		rn.Routers = []*Router{r0, r1}
		rn.NIs[0], rn.NIs[1] = src, dst
		rn.SetDeliver(1, func(now sim.Cycle, p *Packet) { *got = append(*got, delivery{p.ID, now}) })
		e := sim.NewEngine()
		e.SetScheduled(scheduled)
		e.Register(rn)
		return rn, e
	}
	send := func(rn *RouterNetwork, now sim.Cycle) {
		if now%40 < 3 && now < 400 {
			rn.Send(now, &Packet{ID: uint64(now), Class: Class(now % NumClasses), Src: 0, Dst: 1, Size: 1 + int(now%5)})
		}
	}
	snapshot := func(rn *RouterNetwork, now sim.Cycle) []byte {
		var enc ckpt.Enc
		rn.State(ckpt.Encoding(&enc), now, nopPayload)
		return enc.Bytes()
	}

	var naiveGot, schedGot []delivery
	naive, ne := build(false, &naiveGot)
	sched, se := build(true, &schedGot)
	var snap []byte
	var snapAt sim.Cycle
	var want []delivery
	for now := sim.Cycle(0); now < end; now++ {
		send(naive, now)
		send(sched, now)
		ne.Step(1)
		se.Step(1)
		checkDerived(t, sched, se.Now())
		a, b := snapshot(naive, ne.Now()), snapshot(sched, se.Now())
		if !bytes.Equal(a, b) || !reflect.DeepEqual(naiveGot, schedGot) {
			t.Fatalf("cycle %d: the kernels disagree (snapshots equal %v, deliveries %v and %v)", se.Now(), bytes.Equal(a, b), naiveGot, schedGot)
		}
		if snap == nil {
			n0, n1 := 0, 0
			sched.Routers[0].ins[0].from.eachInFlight(se.Now(), func(*linkFlit) { n0++ })
			sched.Routers[1].ins[0].from.eachInFlight(se.Now(), func(*linkFlit) { n1++ })
			if n0 > 0 && n1 > 0 {
				snap, snapAt, want = b, se.Now(), append([]delivery(nil), schedGot...)
			}
		}
	}
	if snap == nil || len(schedGot) == 0 {
		t.Fatalf("no cycle had flits on both long links (%d packets delivered)", len(schedGot))
	}
	want = schedGot[len(want):]

	var got []delivery
	rn, e := build(true, &got)
	d := ckpt.NewDec(snap)
	rn.State(ckpt.Decoding(d), snapAt, nopPayload)
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	e.RestoreAt(snapAt)
	for now := snapAt; now < end; now++ {
		send(rn, now)
		e.Step(1)
		checkDerived(t, rn, e.Now())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored at cycle %d, delivered %v; the run went on to deliver %v", snapAt, got, want)
	}
}

// panicMessage runs f and returns the value it panicked with, if any.
func panicMessage(f func()) (msg string, panicked bool) {
	defer func() {
		if v := recover(); v != nil {
			msg, panicked = fmt.Sprint(v), true
		}
	}()
	f()
	return "", false
}

// A flit on a VC the static priority order leaves out could never be
// granted: the router would hold it, stay awake and wedge its link
// silently. It must panic instead, naming the router, port and class.
func TestStaticPriorityUncoveredVCPanics(t *testing.T) {
	r := NewRouter(0, "tree", 0, func(p *Packet) int { return 0 })
	r.AddIn("net", 2)
	r.AddOut("down")
	r.SetPriority([]Cand{{Port: 0, VC: ClassResp}, {Port: 0, VC: ClassSnoop}})
	src, dst := NewNI(0), NewNI(1)
	ConnectNIInject(src, r, 0, 1)
	ConnectNIEject(dst, r, 0, 1, 4)
	dst.SetDeliver(func(sim.Cycle, *Packet) {})
	src.Send(0, &Packet{ID: 1, Class: ClassResp, Src: 0, Dst: 1, Size: 1})
	src.Send(0, &Packet{ID: 2, Class: ClassReq, Src: 0, Dst: 1, Size: 1})
	e := sim.NewEngine()
	e.Register(r, src, dst)
	msg, panicked := panicMessage(func() { e.Step(50) })
	if !panicked {
		t.Fatalf("a request flit on a VC missing from the priority order was accepted and never granted (%d flits held)", r.buffered)
	}
	for _, want := range []string{"tree", "net", "req", "priority"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not name %q", msg, want)
		}
	}
}

// A checkpoint holding a flit in a VC the static priority order leaves
// out must fail to load, naming the router, input and class, instead of
// restoring a router that holds the flit forever.
func TestStaticPriorityUncoveredVCLoadFails(t *testing.T) {
	build := func() *RouterNetwork {
		rn := NewRouterNetwork("tree", 2)
		r := NewRouter(100, "tree", 0, func(p *Packet) int { return 0 })
		r.AddIn("net", 2)
		r.AddOut("down")
		r.SetPriority([]Cand{{Port: 0, VC: ClassResp}, {Port: 0, VC: ClassSnoop}})
		src, dst := NewNI(0), NewNI(1)
		ConnectNIInject(src, r, 0, 1)
		ConnectNIEject(dst, r, 0, 1, 4)
		rn.Routers = []*Router{r}
		rn.NIs[0], rn.NIs[1] = src, dst
		return rn
	}
	donor := build()
	preload(donor.Routers[0], 0, Flit{Pkt: &Packet{ID: 1, Class: ClassReq, Src: 0, Dst: 1, Size: 1}})
	var enc ckpt.Enc
	donor.State(ckpt.Encoding(&enc), 5, nopPayload)
	d := ckpt.NewDec(enc.Bytes())
	build().State(ckpt.Decoding(d), 5, nopPayload)
	if err := d.Err(); err == nil || !strings.Contains(err.Error(), "tree input net: VC req") {
		t.Fatalf("loading a request flit on a VC missing from the priority order returned %v", err)
	}
}

// SetPriority must reject an entry naming an input port the router does
// not have, instead of failing at the first allocation that reaches it.
func TestSetPriorityRejectsMissingPort(t *testing.T) {
	r := NewRouter(0, "tree", 0, func(p *Packet) int { return 0 })
	r.AddIn("net", 2)
	r.AddIn("local", 2)
	r.AddOut("down")
	msg, panicked := panicMessage(func() {
		r.SetPriority([]Cand{{Port: 0, VC: ClassResp}, {Port: 2, VC: ClassResp}})
	})
	if !panicked || !strings.Contains(msg, "tree") || !strings.Contains(msg, "port 2") {
		t.Fatalf("SetPriority with a missing port: panicked %v, message %q", panicked, msg)
	}
}

// runFork sends 20 packets into the fork network and runs it to cycle
// until, checking its credit sums every cycle.
func runFork(t *testing.T, until sim.Cycle) *RouterNetwork {
	t.Helper()
	rn := forkNet()
	for _, d := range []NodeID{1, 2} {
		rn.SetDeliver(d, func(sim.Cycle, *Packet) {})
	}
	e := sim.NewEngine()
	e.Register(rn)
	for i := 0; i < 20; i++ {
		rn.Send(0, &Packet{ID: uint64(i), Class: Class(i % NumClasses), Src: NodeID(3 * (i % 2)), Dst: NodeID(1 + i%2), Size: 1 + i%4})
	}
	for e.Now() < until {
		e.Step(1)
		if err := rn.CheckCredits(); err != nil {
			t.Fatalf("cycle %d: %v", e.Now(), err)
		}
	}
	return rn
}

// CheckCredits must name the link, VC and terms of a broken credit sum,
// for router links and both NI ends, on a network with traffic in flight.
func TestCheckCreditsNamesTheBrokenLink(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spoil func(rn *RouterNetwork)
		want  []string
	}{
		{"lost router credit", func(rn *RouterNetwork) { rn.Routers[0].outs[0].credits[ClassResp]-- },
			[]string{"r0 output out VC resp", "capacity 2"}},
		{"double-counted return", func(rn *RouterNetwork) {
			// Count the pending return, as a grant would, then make a
			// return no grant made the pending one.
			op := rn.Routers[0].outs[0]
			op.settle(13)
			op.ret = creditReturn{due: 13, vc: ClassReq}
		}, []string{"r0 output out VC req", "returning"}},
		{"NI inject side", func(rn *RouterNetwork) { rn.NIs[3].out.credits[ClassSnoop]++ },
			[]string{"ni3 output inject VC snoop"}},
		{"NI eject side", func(rn *RouterNetwork) { rn.Routers[1].outs[1].credits[ClassReq]-- },
			[]string{"r1 output to2 VC req", "capacity 8"}},
	} {
		rn := runFork(t, 12)
		tc.spoil(rn)
		err := rn.CheckCredits()
		if !errors.Is(err, ErrCreditConservation) {
			t.Fatalf("%s: CheckCredits = %v, want ErrCreditConservation", tc.name, err)
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Fatalf("%s: %q does not name %q", tc.name, err, w)
			}
		}
	}
}

// TestLoadRejectsBrokenCreditSums raises one output's credits in a
// snapshot of the fork network after 20 cycles of traffic. Every field
// is in range, but the link could send more flits than its VC holds, so
// the load must fail naming the router, output and VC. The snapshot as
// taken loads.
func TestLoadRejectsBrokenCreditSums(t *testing.T) {
	const now = 20
	rn := runFork(t, now)
	load := func() error {
		var enc ckpt.Enc
		rn.State(ckpt.Encoding(&enc), now, nopPayload)
		d := ckpt.NewDec(enc.Bytes())
		forkNet().State(ckpt.Decoding(d), now, nopPayload)
		return d.Err()
	}
	if err := load(); err != nil {
		t.Fatalf("the snapshot as taken: %v", err)
	}
	rn.Routers[0].outs[0].credits[ClassResp] += 3
	err := load()
	if !errors.Is(err, ErrCreditConservation) || !strings.Contains(err.Error(), "r0 output out VC resp") {
		t.Fatalf("raised credits: load error %v, want one naming r0 output out VC resp", err)
	}
}
