package workload

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
)

// snapshotRegistry lets a test register throwaway workloads and restore
// the package state afterwards.
func snapshotRegistry(t *testing.T) {
	t.Helper()
	saved := workloads
	workloads = workloads.Clone()
	t.Cleanup(func() { workloads = saved })
}

func TestRegistryBuiltins(t *testing.T) {
	all := All()
	if len(all) < 8 {
		t.Fatalf("registry has %d workloads, want >= 8 (six builtins + example mix + phased)", len(all))
	}
	wantOrder := []string{"Data Serving", "MapReduce-C", "MapReduce-W", "SAT Solver",
		"Web Frontend", "Web Search", "Consolidated", "MapReduce-Phased"}
	for i, name := range wantOrder {
		if all[i].Name() != name {
			t.Fatalf("All()[%d] = %q, want %q", i, all[i].Name(), name)
		}
	}
	names := Names()
	for i, name := range wantOrder {
		if names[i] != name {
			t.Fatalf("Names()[%d] = %q, want %q", i, names[i], name)
		}
	}
}

func TestParseNamesAndAliases(t *testing.T) {
	cases := map[string]string{
		"Web Search":    "Web Search",
		"web search":    "Web Search",
		"WEB SEARCH":    "Web Search",
		"websearch":     "Web Search",
		"web-search":    "Web Search",
		"search":        "Web Search",
		"data-serving":  "Data Serving",
		"cassandra":     "Data Serving",
		"mapred-c":      "MapReduce-C",
		"MapReduce-W":   "MapReduce-W",
		"sat":           "SAT Solver",
		"frontend":      "Web Frontend",
		"  SAT Solver ": "SAT Solver", // whitespace-tolerant
		"mix":           "Consolidated",
		"phased":        "MapReduce-Phased",
	}
	for in, want := range cases {
		w, err := Parse(in)
		if err != nil || w.Name() != want {
			t.Errorf("Parse(%q) = (%v, %v), want %q", in, w, err, want)
		}
	}
	if _, err := Parse("quake"); err == nil || !strings.Contains(err.Error(), "quake") {
		t.Fatalf("unknown workload error = %v", err)
	}
}

func TestParseTraceScheme(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mrc.noctrace")
	if err := RecordFile(path, Synth(MapReduceC), 2, 100, 1); err != nil {
		t.Fatal(err)
	}
	w, err := Parse(TraceScheme + path)
	if err != nil {
		t.Fatal(err)
	}
	if w.Name() != "MapReduce-C" {
		t.Fatalf("replay name = %q, want the recorded source name", w.Name())
	}
	if _, err := Parse("trace:/no/such/file.noctrace"); err == nil {
		t.Fatal("missing trace file must error")
	}
}

func TestRegisterValidation(t *testing.T) {
	snapshotRegistry(t)

	if err := Register(Synth(Params{})); err == nil {
		t.Fatal("empty name must be rejected")
	}
	if err := Register(Synth(Params{Name: "Web Search"})); err == nil {
		t.Fatal("duplicate of a builtin must be rejected")
	}
	p := DataServing
	p.Name = "Data-Serving" // collides case-insensitively with an alias
	if err := Register(Synth(p)); err == nil {
		t.Fatal("alias collision must be rejected")
	}
	p.Name = "trace:thing"
	if err := Register(Synth(p)); err == nil {
		t.Fatal("':' in a name must be rejected (scheme namespace)")
	}
	p.Name = "Key-Value Store"
	if err := Register(Synth(p, "Key-Value Store", "")); err == nil {
		t.Fatal("empty alias must be rejected")
	}

	kv := DataServing
	kv.Name = "Key-Value Store"
	kv.MaxCores = 0 // Synthetic defaults the limit
	if err := Register(Synth(kv, "kv", "kvstore")); err != nil {
		t.Fatal(err)
	}
	if err := Register(Synth(kv)); err == nil {
		t.Fatal("duplicate registration must be rejected")
	}
	got, err := Parse("KVSTORE")
	if err != nil || got.Name() != "Key-Value Store" {
		t.Fatalf("alias lookup after Register = (%v, %v)", got, err)
	}
	if got.MaxCores() != 64 {
		t.Fatalf("MaxCores should default to 64, got %d", got.MaxCores())
	}
	all := All()
	if all[len(all)-1].Name() != "Key-Value Store" {
		t.Fatalf("registered workload missing from All(): %v", Names())
	}
}

func TestUnlimitedWrapper(t *testing.T) {
	w := Unlimited(Synth(WebSearch))
	if w.MaxCores() != math.MaxInt {
		t.Fatalf("Unlimited MaxCores = %d", w.MaxCores())
	}
	if w.Name() != "Web Search" {
		t.Fatalf("Unlimited must keep the name, got %q", w.Name())
	}
	if _, nested := Unlimited(w).(unlimited).Workload.(unlimited); nested {
		t.Fatal("double wrapping must be a no-op, not a nested decorator")
	}
	// Streams and params delegate to the wrapped workload.
	a, b := w.StreamFor(3, 9), Synth(WebSearch).StreamFor(3, 9)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("stream diverged at %d", i)
		}
	}
	// Member attribution unwraps decorators.
	mix := Unlimited(ConsolidatedMix())
	name, ok := MemberNameOf(mix, 1)
	if !ok || name != MapReduceC.Name {
		t.Fatalf("MemberNameOf through Unlimited = (%q, %v)", name, ok)
	}
	name, ok = MemberNameOf(w, 0)
	if ok || name != "Web Search" {
		t.Fatalf("homogeneous MemberNameOf = (%q, %v), want (Web Search, false)", name, ok)
	}
}
