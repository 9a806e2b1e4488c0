package chip

import (
	"strings"
	"sync"
	"testing"

	"nocout/internal/noc"
	"nocout/internal/physic"
	"nocout/internal/topo"
)

// stubOrg is a registrable organization that reuses the mesh's behaviour.
type stubOrg struct {
	name    string
	aliases []string
}

func (s stubOrg) Name() string          { return s.name }
func (s stubOrg) Aliases() []string     { return s.aliases }
func (s stubOrg) DefaultConfig() Config { return Table1Config() }
func (s stubOrg) Build(cfg Config) *Fabric {
	return meshOrg.Build(cfg)
}
func (s stubOrg) AreaModel(cfg Config) (physic.Breakdown, physic.BufferKind) {
	return meshOrg.AreaModel(cfg)
}

// resetRegistry snapshots the design and hierarchy registries and
// restores them on cleanup, so registration tests cannot leak entries
// into other tests.
func resetRegistry(t *testing.T) {
	t.Helper()
	savedDesigns, savedHierarchies := designs, hierarchies
	designs, hierarchies = designs.Clone(), hierarchies.Clone()
	t.Cleanup(func() { designs, hierarchies = savedDesigns, savedHierarchies })
}

func TestRegisterOrganization(t *testing.T) {
	resetRegistry(t)

	if _, err := RegisterOrganization(stubOrg{name: ""}); err == nil {
		t.Fatal("empty name must be rejected")
	}
	if _, err := RegisterOrganization(stubOrg{name: "Mesh"}); err == nil {
		t.Fatal("duplicate of a builtin name must be rejected")
	}
	if _, err := RegisterOrganization(stubOrg{name: "Ring", aliases: []string{"ideal"}}); err == nil {
		t.Fatal("alias colliding with a builtin must be rejected")
	}
	if _, err := RegisterOrganization(stubOrg{name: "Ring", aliases: []string{""}}); err == nil {
		t.Fatal("empty alias must be rejected")
	}

	d, err := RegisterOrganization(stubOrg{name: "Ring", aliases: []string{"ring-1d"}})
	if err != nil {
		t.Fatal(err)
	}
	if d.String() != "Ring" {
		t.Fatalf("String() = %q", d.String())
	}
	for _, s := range []string{"Ring", "ring", "ring-1d"} {
		got, err := ParseDesign(s)
		if err != nil || got != d {
			t.Fatalf("ParseDesign(%q) = (%v, %v), want %v", s, got, err, d)
		}
	}
	if _, err := RegisterOrganization(stubOrg{name: "ring"}); err == nil {
		t.Fatal("names are case-insensitively unique")
	}

	// The registered design is a first-class citizen of the build path.
	cfg := DefaultConfig(d)
	if cfg.Design != d || cfg.Cores != 64 {
		t.Fatalf("DefaultConfig = %+v", cfg)
	}
	if _, err := OrganizationOf(d); err != nil {
		t.Fatal(err)
	}
}

func TestOrganizationOfUnknown(t *testing.T) {
	if _, err := OrganizationOf(Design(200)); err == nil {
		t.Fatal("unregistered design must be a hard error")
	}
	if _, err := ParseDesign("warp-drive"); err == nil {
		t.Fatal("unknown name must error")
	} else if !strings.Contains(err.Error(), "mesh") {
		t.Fatalf("error should list known designs: %v", err)
	}
}

// TestRegistryConcurrentUse exercises the registry the way the experiment
// engine does — many goroutines resolving designs while another registers —
// so `go test -race` patrols the locking.
func TestRegistryConcurrentUse(t *testing.T) {
	resetRegistry(t)

	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < 200; j++ {
				if _, err := ParseDesign("mesh"); err != nil {
					t.Error(err)
					return
				}
				_ = NOCOut.String()
				if _, err := OrganizationOf(FBfly); err != nil {
					t.Error(err)
					return
				}
				_ = Organizations()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		if _, err := RegisterOrganization(stubOrg{name: "Concurrent Ring"}); err != nil {
			t.Error(err)
		}
	}()
	close(start)
	wg.Wait()

	if _, err := ParseDesign("concurrent ring"); err != nil {
		t.Fatal(err)
	}
}

// TestNOCOutPartialOrgKeepsFields pins that each field a caller sets in
// Config.NOCOut shapes the 64-core network, with only the zero fields
// taking the paper's defaults.
func TestNOCOutPartialOrgKeepsFields(t *testing.T) {
	build := func(org topo.NOCOutParams) (in, flits int, routers []*noc.Router) {
		cfg := DefaultConfig(NOCOut)
		cfg.NOCOut = org
		f := nocoutOrg{}.Build(cfg)
		for _, r := range f.Routers {
			in += r.NumIn()
			flits += r.BufferFlits()
		}
		return in, flits, f.Routers
	}
	if in, flits, rs := build(topo.NOCOutParams{}); len(rs) != 136 || in != 292 || flits != 2856 {
		t.Fatalf("baseline: %d routers, %d inputs, %d buffer flits; want 136, 292, 2856", len(rs), in, flits)
	}
	if in, _, _ := build(topo.NOCOutParams{ExpressFrom: 2}); in != 324 {
		t.Errorf("ExpressFrom 2: %d router inputs, want 324 with express ports", in)
	}
	if _, flits, _ := build(topo.NOCOutParams{LLCBufFlits: 9}); flits != 3864 {
		t.Errorf("LLCBufFlits 9: %d buffer flits, want 3864", flits)
	}
	if _, _, rs := build(topo.NOCOutParams{LLCRows: 2}); len(rs) != 144 {
		t.Errorf("LLCRows 2: %d routers, want 144 (16 LLC routers)", len(rs))
	}
	cfg := DefaultConfig(NOCOut)
	cfg.NOCOut = topo.NOCOutParams{Concentration: 2}
	if p := (nocoutOrg{}).shape(cfg); p.Columns != 8 || p.RowsPerSide != 2 || p.NumCoreNodes() != 32 {
		t.Errorf("Concentration 2: %dx%d grid with %d core endpoints, want 8x2 with 32", p.Columns, p.RowsPerSide, p.NumCoreNodes())
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "yields 128 cores, config wants 64") {
			t.Errorf("RowsPerSide 8 at 64 cores: panic %q, want a core-count mismatch", msg)
		}
	}()
	build(topo.NOCOutParams{RowsPerSide: 8})
}
