package nocout

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"

	"nocout/internal/chip"
	"nocout/internal/sim"
	"nocout/internal/workload"
)

// confQ is the conformance suite's minimal deterministic measurement.
var confQ = Quality{Warmup: 3000, Window: 5000, Seeds: 1}

// TestDesignRegistryComplete pins the registered design space: the paper's
// four plus the extension organizations, in stable handle order.
func TestDesignRegistryComplete(t *testing.T) {
	ds := Designs()
	if len(ds) < 7 {
		t.Fatalf("registry has %d designs, want >= 7", len(ds))
	}
	want := []Design{Mesh, FBfly, NOCOut, Ideal, Torus, CMesh, Crossbar}
	names := []string{"Mesh", "Flattened Butterfly", "NOC-Out", "Ideal", "Torus", "CMesh", "Crossbar"}
	for i, d := range want {
		if ds[i] != d {
			t.Errorf("Designs()[%d] = %v, want %v", i, ds[i], d)
		}
		if d.String() != names[i] {
			t.Errorf("%v.String() = %q, want %q", d, d.String(), names[i])
		}
	}
}

// TestDesignConformance is the cross-design contract: every registered
// organization round-trips through the name registry, reports a coherent
// area model, builds at 16/32/64 cores, and measures deterministically.
func TestDesignConformance(t *testing.T) {
	for _, d := range Designs() {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			t.Parallel()
			org, err := OrganizationOf(d)
			if err != nil {
				t.Fatal(err)
			}

			// Name round-trips: figure name, aliases, MarshalText.
			if got, err := ParseDesign(d.String()); err != nil || got != d {
				t.Fatalf("ParseDesign(%q) = (%v, %v)", d.String(), got, err)
			}
			for _, a := range org.Aliases() {
				if got, err := ParseDesign(a); err != nil || got != d {
					t.Fatalf("alias %q = (%v, %v), want %v", a, got, err, d)
				}
			}
			txt, err := d.MarshalText()
			if err != nil {
				t.Fatal(err)
			}
			var back Design
			if err := back.UnmarshalText(txt); err != nil || back != d {
				t.Fatalf("text round-trip %q = (%v, %v)", txt, back, err)
			}

			// Area model: explicit everywhere, zero only for the wire-only
			// Ideal fabric.
			area, _, err := AreaModel(DefaultConfig(d))
			if err != nil {
				t.Fatal(err)
			}
			if d == Ideal {
				if area.Total() != 0 {
					t.Fatalf("Ideal must model zero NoC area, got %v", area)
				}
			} else if area.Total() <= 0 {
				t.Fatalf("area must be positive, got %v", area)
			}

			for _, n := range []int{16, 32, 64} {
				cfg := DefaultConfig(d)
				cfg.Cores = n

				// The built fabric exposes routers for energy accounting.
				fab := org.Build(cfg)
				if d == Ideal {
					if len(fab.Routers) != 0 {
						t.Fatalf("ideal fabric has %d routers", len(fab.Routers))
					}
				} else if len(fab.Routers) == 0 {
					t.Fatalf("%d-core fabric reports no routers", n)
				}

				res := measure(t, cfg, confQ, WithWorkloads("MapReduce-C"))
				if res.ActiveCores != n || res.AggIPC <= 0 || res.PerCoreIPC <= 0 {
					t.Fatalf("%d cores: implausible result %+v", n, res)
				}
				if res.AvgNetLatency <= 0 {
					t.Fatalf("%d cores: no network latency measured", n)
				}
				// Same seed, same Result — bit for bit.
				again := measure(t, cfg, confQ, WithWorkloads("MapReduce-C"))
				if !reflect.DeepEqual(res, again) {
					t.Fatalf("%d cores: nondeterministic:\n%+v\n%+v", n, res, again)
				}
			}
		})
	}
}

// TestKernelConformance is the event-scheduled kernel's contract: for
// every registered design, the scheduled (quiescence-aware) kernel and the
// naive tick-everything kernel agree in lockstep over the conformance
// suite's measurement. Any missed wake, stale arbitration rotation, or
// lazily mis-accounted counter shows up here within a cycle or two. Data
// Serving on Mesh and NOC-Out is the stall-heavy input: its cores block
// fetch on L1-I misses most often and sleep through each stall while
// their windows still commit.
func TestKernelConformance(t *testing.T) {
	for _, c := range []struct {
		prefix, workload string
		designs          []Design
	}{
		{"", "MapReduce-C", Designs()},
		{"DataServing/", "Data Serving", []Design{Mesh, NOCOut}},
	} {
		w, err := workload.Parse(c.workload)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range c.designs {
			t.Run(c.prefix+d.String(), func(t *testing.T) {
				t.Parallel()
				cfg := DefaultConfig(d)
				cfg.Cores = 16
				lockstepKernels(t, cfg, w, confQ.Warmup+confQ.Window)
			})
		}
	}
}

// lockstepKernels holds cfg's chip on the scheduled kernel to the naive
// kernel's over cycles cycles (see lockstep), and returns the final
// Metrics.
func lockstepKernels(t *testing.T, cfg Config, w workload.Workload, cycles sim.Cycle) chip.Metrics {
	t.Helper()
	build := func(scheduled bool) *chip.Chip {
		c := chip.New(cfg, w)
		c.Engine.SetScheduled(scheduled)
		if c.Engine.Scheduled() != scheduled {
			t.Fatal("kernel mode not applied")
		}
		c.PrewarmCaches()
		return c
	}
	return lockstep(t, cycles, build(false), func() *chip.Chip { return build(true) })
}

// lockstep is the bit-identity oracle. It steps ref and two chips built
// by mate — a hashed copy and a lazily flushed twin — one cycle at a
// time for cycles cycles, and returns ref's final Metrics. It compares
// StateHash on ref and the hashed copy at the start and every cycle, and
// calls agree on ref (chip 0), the hashed copy (1) and the twin (2)
// every 1,000 cycles and at the end. The snapshot is the whole
// behavioral state, which the hash sees only once a counter moves: ROB
// entries, commit credit, cache tags, RNG positions. StateHash flushes a
// chip, so the hashed copy never settles a sleeping core over more than
// one cycle; only agree flushes the twin, so its multi-cycle catch-ups
// are held to the same snapshots. The hashed copy alone also saves
// itself once, at cycle 500, between two agreements: a save must change
// nothing, so from that cycle on its hashes and agreements hold it to
// chips never saved there.
func lockstep(t *testing.T, cycles sim.Cycle, ref *chip.Chip, mate func() *chip.Chip) chip.Metrics {
	t.Helper()
	const agreeEvery, extraSave = 1000, 500
	hashed, twin := mate(), mate()
	sameHash := func(cy sim.Cycle) {
		if want, got := ref.StateHash(), hashed.StateHash(); got != want {
			t.Fatalf("state hash diverged %d cycles in: %#x, reference %#x", cy, got, want)
		}
	}
	sameHash(0)
	for cy := sim.Cycle(1); cy <= cycles; cy++ {
		ref.Run(1)
		hashed.Run(1)
		twin.Run(1)
		if cy == extraSave {
			if err := hashed.Snapshot(io.Discard); err != nil {
				t.Fatalf("%d cycles in: snapshot of the hashed copy: %v", cy, err)
			}
		}
		sameHash(cy)
		if cy%agreeEvery == 0 || cy == cycles {
			agree(t, fmt.Sprintf("%d cycles in", cy), ref, hashed, twin)
		}
	}
	return ref.Metrics()
}

// agree is the one way to say "these runs agree": it fails unless every
// chip's snapshot bytes, StateHash and Metrics equal chips[0]'s.
func agree(t *testing.T, at string, chips ...*chip.Chip) {
	t.Helper()
	want, got := snapBufs.Get().(*bytes.Buffer), snapBufs.Get().(*bytes.Buffer)
	defer snapBufs.Put(want)
	defer snapBufs.Put(got)
	var wantHash uint64
	var wantMetrics chip.Metrics
	for i, c := range chips {
		buf := got
		if i == 0 {
			buf = want
		}
		buf.Reset()
		if err := c.Snapshot(buf); err != nil {
			t.Fatalf("%s: snapshot of chip %d: %v", at, i, err)
		}
		h, m := c.StateHash(), c.Metrics()
		switch {
		case i == 0:
			wantHash, wantMetrics = h, m
		case !bytes.Equal(got.Bytes(), want.Bytes()):
			t.Fatalf("%s: snapshot bytes of chip %d differ from chip 0's", at, i)
		case h != wantHash:
			t.Fatalf("%s: state hash of chip %d is %#x, chip 0's %#x", at, i, h, wantHash)
		case !reflect.DeepEqual(m, wantMetrics):
			t.Fatalf("%s: metrics diverged:\nchip %d %+v\nchip 0 %+v", at, i, m, wantMetrics)
		}
	}
}

// snapBufs recycles agree's snapshot buffers across calls and tests.
var snapBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// TestKernelConformanceOpenSystem holds the kernel oracle on open-system
// traffic, where an idle core sleeps until its stream's next arrival: at
// low load every core sleeps and wakes many times in 20k cycles, through
// bursts, a whole zero-rate phase, and drops at a two-deep queue. State
// hashes must match the naive kernel's on every cycle, and the final
// Metrics, request latencies included, must be identical.
func TestKernelConformanceOpenSystem(t *testing.T) {
	const cycles = 20000
	for _, c := range []struct{ name, spec string }{
		{"poisson", "opensys:arrival=poisson,base=data-serving,rate=0.5"},
		{"mmpp", "opensys:arrival=mmpp,base=data-serving,rate=0.5"},
		{"burst", "opensys:arrival=burst,base=data-serving,rate=0.5"},
		{"phases", "opensys:arrival=poisson,base=data-serving,rate=1,phases=1.5x4000;0x4000"},
		{"hotspot", "opensys:arrival=poisson,base=data-serving,rate=2,queue=2,skew=hotspot"},
	} {
		w, err := workload.Parse(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []Design{Mesh, NOCOut} {
			t.Run(c.name+"/"+d.String(), func(t *testing.T) {
				t.Parallel()
				cfg := DefaultConfig(d)
				cfg.Cores = 16
				// Metrics.Open is the request lifecycle ReqLatency reports.
				rs := reqLatencyOf(lockstepKernels(t, cfg, w, cycles).Open)
				if rs == nil || rs.Completed < 16 {
					t.Fatalf("too little request flow to exercise sleeping cores: %+v", rs)
				}
				if c.name == "hotspot" && rs.Dropped == 0 {
					t.Fatalf("hotspot at queue=2 dropped nothing: %+v", rs)
				}
			})
		}
	}
}

// TestKernelConformanceQuick runs one full Quick-quality measurement
// (warm-up reset included, via the Warmup/Run/Metrics path the experiment
// engine uses) on both kernels for the paper's primary organizations,
// and requires the two chips to agree.
func TestKernelConformanceQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("cycle-level coverage in TestKernelConformance")
	}
	w, err := workload.Parse("Web Search")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []Design{Mesh, NOCOut} {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig(d)
			measure := func(scheduled bool) *chip.Chip {
				c := chip.New(cfg, w)
				c.Engine.SetScheduled(scheduled)
				c.PrewarmCaches()
				c.Warmup(Quick.Warmup)
				c.Run(Quick.Window)
				return c
			}
			agree(t, "after the Quick window", measure(false), measure(true))
		})
	}
}

// TestSolveWidthForArea pins Figure 9's equal-area solver on its
// registry-backed home: solved widths fit the budget, are maximal, and
// reproduce the paper's headline (fbfly's bandwidth collapses, the mesh's
// shrinks mildly).
func TestSolveWidthForArea(t *testing.T) {
	budget := Area(DefaultConfig(NOCOut)).Total()
	atWidth := func(d Design, w int) float64 {
		cfg := DefaultConfig(d)
		cfg.LinkBits = w
		return Area(cfg).Total()
	}
	for _, d := range []Design{Mesh, FBfly} {
		w, area := SolveWidthForArea(d, budget)
		if area.Total() > budget {
			t.Fatalf("%v: solved area %.2f exceeds budget %.2f", d, area.Total(), budget)
		}
		if over := atWidth(d, w+8); over <= budget {
			t.Fatalf("%v: width %d is not maximal (w+8 still fits)", d, w)
		}
	}
	wm, _ := SolveWidthForArea(Mesh, budget)
	wf, _ := SolveWidthForArea(FBfly, budget)
	if wf >= wm {
		t.Fatalf("fbfly equal-area width (%d) should be far below mesh's (%d)", wf, wm)
	}
	if ratio := 128 / wf; ratio < 4 {
		t.Fatalf("fbfly width shrink = %dx, want >= 4x (paper ~7x)", ratio)
	}
	if wm < 64 {
		t.Fatalf("mesh equal-area width = %d, should remain reasonably wide", wm)
	}
}

// TestUnknownDesignHardErrors pins the satellite fix: no silent zero-area
// fallback and no silently-building unknown design.
func TestUnknownDesignHardErrors(t *testing.T) {
	bad := Config{Design: Design(250), Cores: 16, LLCMB: 8, LLCWays: 16,
		LinkBits: 128, MemChannels: 4, BankLat: 4, Seed: 1}
	if _, _, err := AreaModel(bad); err == nil {
		t.Fatal("AreaModel must reject an unregistered design")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Area must panic on an unregistered design")
			}
		}()
		Area(bad)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("DefaultConfig must panic on an unregistered design")
			}
		}()
		DefaultConfig(Design(250))
	}()
}

// TestNewDesignsSweepThroughEngine drives the extension organizations
// through the same declarative sweep path the Figure* studies use.
func TestNewDesignsSweepThroughEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("covered design-by-design in TestDesignConformance")
	}
	rep, err := NewExperiment(
		WithTitle("extension designs"),
		WithDesigns(Mesh, Torus, CMesh, Crossbar),
		WithWorkloads("SAT Solver"),
		WithCoreCounts(16),
		WithQuality(confQ),
	).Run(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	mesh := rep.MustGet("Mesh", "SAT Solver", 16)
	for _, d := range []Design{Torus, CMesh, Crossbar} {
		res := rep.MustGet(d.String(), "SAT Solver", 16)
		if res.AggIPC <= 0 {
			t.Fatalf("%v never ran: %+v", d, res)
		}
		// All three are lower-diameter than the mesh at 16 cores; they
		// must not be slower where the paper's background says they win.
		if res.AvgNetLatency >= mesh.AvgNetLatency*1.2 {
			t.Errorf("%v latency %.1f cy should be near or below mesh's %.1f cy",
				d, res.AvgNetLatency, mesh.AvgNetLatency)
		}
	}
}
