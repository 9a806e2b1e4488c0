package nocout

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"nocout/internal/chip"
	"nocout/internal/workload"
)

// This file is the cross-hierarchy conformance suite the memory-hierarchy
// API ships with: every registered hierarchy must be deterministic,
// round-trip through the registry and report JSON, route every line to
// exactly one home bank and one memory channel, and the SharedNUCA
// baseline must be state-hash-identical to the pre-refactor chip.

// TestHierarchyRegistryComplete pins the registered hierarchy space: the
// baseline plus the extension hierarchies, in stable handle order.
func TestHierarchyRegistryComplete(t *testing.T) {
	hs := Hierarchies()
	if len(hs) < 5 {
		t.Fatalf("registry has %d hierarchies, want >= 5", len(hs))
	}
	want := []HierarchyID{SharedNUCA, XORPlacement, RegionAffine, PrivateLLC, Clustered}
	names := []string{"SharedNUCA", "SharedNUCA-XOR", "SharedNUCA-Affine", "PrivateLLC", "Clustered"}
	for i, id := range want {
		if hs[i] != id {
			t.Errorf("Hierarchies()[%d] = %v, want %v", i, hs[i], id)
		}
		if id.String() != names[i] {
			t.Errorf("%v.String() = %q, want %q", id, id.String(), names[i])
		}
	}
}

// TestSharedNUCAStateHashIdentical pins the tentpole's bit-identity
// requirement: the refactored generic chip, built with the baseline
// hierarchy on a 16-tile mesh, reproduces the pre-refactor code's state
// hash cycle for cycle. The constants were recaptured when the shared
// packet-id counter left the digest (per-agent ids for the sharded
// kernel); behavioural identity with the seed is still pinned float-for-
// float by TestSharedNUCAQuickBitIdentical below.
func TestSharedNUCAStateHashIdentical(t *testing.T) {
	w, err := workload.Parse("MapReduce-C")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(Mesh)
	cfg.Cores = 16
	c := chip.New(cfg, w)
	c.PrewarmCaches()
	c.Engine.Step(3000)
	if h := c.StateHash(); h != 0xa92f40036baf40c4 {
		t.Fatalf("state hash at cycle 3000 = %#x, want %#x (pre-refactor)", h, uint64(0xa92f40036baf40c4))
	}
	c.Engine.Step(5000)
	if h := c.StateHash(); h != 0x9948890ee3c5c5f3 {
		t.Fatalf("state hash at cycle 8000 = %#x, want %#x (pre-refactor)", h, uint64(0x9948890ee3c5c5f3))
	}
}

// TestSharedNUCAQuickBitIdentical pins a full Quick-quality measurement
// (the Figure* studies' path) to the pre-refactor numbers, float for
// float.
func TestSharedNUCAQuickBitIdentical(t *testing.T) {
	res := measure(t, DefaultConfig(Mesh), Quick, WithWorkloads("Web Search"))
	if res.AggIPC != 6.73645 ||
		res.PerCoreIPC != 0.421028125 ||
		res.AvgNetLatency != 20.8759917981635 ||
		res.LLCMissRate != 0.4320955595949104 ||
		res.L1IMPKI != 13.723845645703598 ||
		res.L1DMPKI != 14.84461400292439 {
		t.Fatalf("Quick measurement drifted from the pre-refactor baseline: %+v", res)
	}
}

// TestHierarchyConformance is the cross-hierarchy contract: every
// registered hierarchy round-trips through the name registry, reports a
// coherent physical model, builds on a 16-tile mesh, routes every line to
// exactly one in-range home bank and channel, and measures
// deterministically.
func TestHierarchyConformance(t *testing.T) {
	w, err := workload.Parse("MapReduce-C")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range Hierarchies() {
		id := id
		t.Run(id.String(), func(t *testing.T) {
			t.Parallel()
			hier, err := HierarchyOf(id)
			if err != nil {
				t.Fatal(err)
			}

			// Name round-trips: display name, aliases, MarshalText.
			if got, err := ParseHierarchy(id.String()); err != nil || got != id {
				t.Fatalf("ParseHierarchy(%q) = (%v, %v)", id.String(), got, err)
			}
			for _, a := range hier.Aliases() {
				if got, err := ParseHierarchy(a); err != nil || got != id {
					t.Fatalf("alias %q = (%v, %v), want %v", a, got, err, id)
				}
			}
			txt, err := id.MarshalText()
			if err != nil {
				t.Fatal(err)
			}
			var back HierarchyID
			if err := back.UnmarshalText(txt); err != nil || back != id {
				t.Fatalf("text round-trip %q = (%v, %v)", txt, back, err)
			}

			// Physical model: every hierarchy contributes positive LLC
			// storage and directory silicon for the Table 1 capacity.
			cfg := hier.DefaultConfig(DefaultConfig(Mesh))
			cfg.Hierarchy = id
			cfg.Cores = 16
			if hp := hier.Physical(cfg); hp.StorageMM2 <= 0 || hp.DirMM2 <= 0 || hp.LeakageW <= 0 {
				t.Fatalf("implausible physical model: %+v", hp)
			}

			// Exhaustive small-address-space routing check over every
			// region class the workloads emit: each line maps to exactly
			// one in-range home bank whose node matches the layout's bank
			// placement, and one in-range memory channel — stably across
			// repeated probes and across two independently built chips.
			ca, cb := chip.New(cfg, w), chip.New(cfg, w)
			ml, ml2 := ca.Memory, cb.Memory
			if ml.NumBanks != len(ca.Banks) {
				t.Fatalf("NumBanks %d != built banks %d", ml.NumBanks, len(ca.Banks))
			}
			lay := w.Layout()
			probe := func(line uint64) {
				node, bank := ml.Home(line)
				if bank < 0 || bank >= ml.NumBanks {
					t.Fatalf("line %#x: bank %d out of range [0,%d)", line, bank, ml.NumBanks)
				}
				if node != ml.BankNode(bank) {
					t.Fatalf("line %#x: home node %v != BankNode(%d) %v", line, node, bank, ml.BankNode(bank))
				}
				if n2, b2 := ml.Home(line); n2 != node || b2 != bank {
					t.Fatalf("line %#x: home not stable", line)
				}
				if n2, b2 := ml2.Home(line); n2 != node || b2 != bank {
					t.Fatalf("line %#x: home differs across chip builds", line)
				}
				ch := ml.ChannelOf(line)
				if ch < 0 || ch >= cfg.MemChannels {
					t.Fatalf("line %#x: channel %d out of range", line, ch)
				}
				if ml.ChannelOf(line) != ch || ml2.ChannelOf(line) != ch {
					t.Fatalf("line %#x: channel not stable", line)
				}
			}
			for line := uint64(0); line < 1<<14; line++ {
				probe(line)
			}
			regions := []workload.Region{lay.Instr, lay.Hot}
			for i := 0; i < cfg.Cores; i++ {
				r := lay.Local(i)
				regions = append(regions, workload.Region{Base: r.Base, Size: r.Size + 64*256})
			}
			for _, r := range regions {
				for a := r.Base; a < r.Base+r.Size; a += 64 {
					probe(a / 64)
				}
			}

			// Same seed, same Result — bit for bit, through the full
			// measurement path.
			res := measure(t, cfg, confQ, WithWorkloads("MapReduce-C"))
			if res.ActiveCores != 16 || res.AggIPC <= 0 || res.AvgNetLatency <= 0 {
				t.Fatalf("implausible result: %+v", res)
			}
			again := measure(t, cfg, confQ, WithWorkloads("MapReduce-C"))
			if !reflect.DeepEqual(res, again) {
				t.Fatalf("nondeterministic:\n%+v\n%+v", res, again)
			}
			if id == SharedNUCA {
				if res.Hierarchy != "" {
					t.Fatalf("baseline result must omit the hierarchy name, got %q", res.Hierarchy)
				}
			} else if res.Hierarchy != id.String() {
				t.Fatalf("result names hierarchy %q, want %q", res.Hierarchy, id.String())
			}
		})
	}
}

// TestHierarchySweepThroughEngine drives every hierarchy through the same
// declarative sweep path the Figure* studies use, and round-trips the
// report through JSON with the hierarchy dimension intact.
func TestHierarchySweepThroughEngine(t *testing.T) {
	rep, err := NewExperiment(
		WithTitle("hierarchy sweep"),
		WithDesigns(Mesh),
		WithHierarchies(Hierarchies()...),
		WithWorkloads("SAT Solver"),
		WithCoreCounts(16),
		WithQuality(confQ),
	).Run(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(rep.Results), len(Hierarchies()); got != want {
		t.Fatalf("sweep has %d points, want %d", got, want)
	}
	base, ok := rep.Get("Mesh/SharedNUCA", "SAT Solver", 16)
	if !ok {
		t.Fatal("sweep lost the baseline point")
	}
	for _, id := range Hierarchies() {
		res, ok := rep.Get("Mesh/"+id.String(), "SAT Solver", 16)
		if !ok {
			t.Fatalf("sweep lost hierarchy %v", id)
		}
		if res.AggIPC <= 0 {
			t.Fatalf("%v never ran: %+v", id, res)
		}
		_ = base
	}

	// JSON round-trip: the hierarchy survives in Point, Config, and
	// (for non-baseline points) Result.
	var buf strings.Builder
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal([]byte(buf.String()), &back); err != nil {
		t.Fatal(err)
	}
	for i, pr := range back.Results {
		orig := rep.Results[i]
		if pr.Point.Hierarchy != orig.Point.Hierarchy ||
			pr.Point.Config.Hierarchy != orig.Point.Config.Hierarchy ||
			pr.Result.Hierarchy != orig.Result.Hierarchy {
			t.Fatalf("JSON round-trip lost the hierarchy dimension: %+v vs %+v", pr, orig)
		}
		if pr.Result.AggIPC != orig.Result.AggIPC {
			t.Fatalf("JSON round-trip lost data: %+v", pr)
		}
	}

	// CSV carries the hierarchy column.
	var cs strings.Builder
	if err := rep.WriteCSV(&cs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cs.String(), "PrivateLLC") || !strings.Contains(strings.SplitN(cs.String(), "\n", 2)[0], "hierarchy") {
		t.Fatalf("CSV lost the hierarchy dimension:\n%s", cs.String())
	}
}

// TestHierarchyLocalityWins pins the architectural signal the new
// hierarchies exist to produce: region-affine placement keeps each core's
// dominant private traffic on its own tile, so its average network
// latency must undercut the baseline's all-banks stripe on the mesh.
func TestHierarchyLocalityWins(t *testing.T) {
	cfg := DefaultConfig(Mesh)
	cfg.Cores = 16
	base := measure(t, cfg, confQ, WithWorkloads("MapReduce-C"))
	cfg.Hierarchy = RegionAffine
	affine := measure(t, cfg, confQ, WithWorkloads("MapReduce-C"))
	if affine.AvgNetLatency >= base.AvgNetLatency {
		t.Fatalf("affine placement should cut net latency: affine %.2f vs shared %.2f",
			affine.AvgNetLatency, base.AvgNetLatency)
	}
}

// TestClusteredRequiresTiledFabric pins the hard error for hierarchies
// that re-place banks onto per-core tiles: NOC-Out's segregated LLC has
// no such tiles, so building must fail loudly, not silently misroute.
// At 8 banks per LLC tile NOC-Out has as many banks as cores, so only the
// banks' placement tells it from a tiled fabric.
func TestClusteredRequiresTiledFabric(t *testing.T) {
	w, err := workload.Parse("MapReduce-C")
	if err != nil {
		t.Fatal(err)
	}
	for _, banks := range []int{2, 8} {
		for _, id := range []HierarchyID{PrivateLLC, Clustered} {
			func() {
				defer func() {
					r := recover()
					if r == nil {
						t.Errorf("%v on NOC-Out at %d banks per tile must panic", id, banks)
						return
					}
					if msg, ok := r.(error); !ok || !strings.Contains(msg.Error(), "tiled organization") {
						t.Errorf("%v at %d banks per tile: unexpected panic %v", id, banks, r)
					}
				}()
				cfg := DefaultConfig(NOCOut)
				cfg.Hierarchy = id
				cfg.BanksPerLLCTile = banks
				chip.New(cfg, w)
			}()
		}
	}
}

// TestIncompatibleHierarchySweepErrors pins the sweep-level hard error:
// a point whose hierarchy cannot inhabit its design (every name parsed
// fine, so only Build can catch it) must fail the sweep with an error
// naming the point — not kill the process from a worker goroutine.
func TestIncompatibleHierarchySweepErrors(t *testing.T) {
	rep, err := NewExperiment(
		WithDesigns(NOCOut),
		WithHierarchies(PrivateLLC),
		WithWorkloads("MapReduce-C"),
		WithQuality(confQ),
	).Run(t.Context())
	if err == nil {
		t.Fatalf("incompatible hierarchy/design must error, got report %+v", rep)
	}
	if !strings.Contains(err.Error(), "tiled organization") || !strings.Contains(err.Error(), "NOC-Out") {
		t.Fatalf("error should name the incompatibility and the point: %v", err)
	}
	if rep != nil {
		t.Fatal("failed sweep must not return a report")
	}
}

// TestMemConfigPlumbing pins the satellite: chip.Config.Mem reaches the
// memory controllers (slower DRAM must slow the measured system) and
// round-trips through JSON.
func TestMemConfigPlumbing(t *testing.T) {
	cfg := DefaultConfig(Mesh)
	cfg.Cores = 16
	fast := measure(t, cfg, confQ, WithWorkloads("Web Search"))
	slow := cfg
	slow.Mem.AccessLat = 400
	slow.Mem.LinePeriod = 40
	slowRes := measure(t, slow, confQ, WithWorkloads("Web Search"))
	if slowRes.AggIPC >= fast.AggIPC {
		t.Fatalf("4x slower DRAM must hurt: slow %.3f vs fast %.3f", slowRes.AggIPC, fast.AggIPC)
	}

	b, err := json.Marshal(slow)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"access_lat":400`) {
		t.Fatalf("mem config missing from JSON: %s", b)
	}
	var back Config
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Mem != slow.Mem {
		t.Fatalf("mem config round-trip: %+v vs %+v", back.Mem, slow.Mem)
	}
}
