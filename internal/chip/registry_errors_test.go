package chip

import (
	"fmt"
	"testing"
)

// stubHier is a registrable hierarchy that reuses the baseline's
// behaviour under another name.
type stubHier struct {
	sharedNUCA
	name    string
	aliases []string
}

func (s stubHier) Name() string      { return s.name }
func (s stubHier) Aliases() []string { return s.aliases }

// wantErr fails t unless err's text is exactly want.
func wantErr(t *testing.T, what string, err error, want string) {
	t.Helper()
	if err == nil || err.Error() != want {
		t.Errorf("%s: error %v, want %q", what, err, want)
	}
}

// TestRegistryErrorTexts pins every error the design and hierarchy
// registries return, byte for byte: users read them, and the unknown-name
// errors list what is registered.
func TestRegistryErrorTexts(t *testing.T) {
	resetRegistry(t)

	_, err := RegisterOrganization(stubOrg{name: "  "})
	wantErr(t, "design without a name", err, "chip: RegisterOrganization needs a name")
	_, err = RegisterOrganization(stubOrg{name: " Ring ", aliases: []string{"ring-1d", " "}})
	wantErr(t, "design with an empty alias", err, `chip: organization "Ring" has an empty alias`)
	_, err = RegisterOrganization(stubOrg{name: "MESH"})
	wantErr(t, "duplicate design name", err, `chip: design name "mesh" already registered by Mesh`)
	_, err = RegisterOrganization(stubOrg{name: "Ring", aliases: []string{"ring-1d", " FBfly "}})
	wantErr(t, "design alias taken", err, `chip: design name "fbfly" already registered by Flattened Butterfly`)
	_, err = OrganizationOf(Design(200))
	wantErr(t, "unknown design handle", err, "chip: design 200 is not registered")
	if got := Design(200).String(); got != "Design(200)" {
		t.Errorf("Design(200).String() = %q", got)
	}
	_, err = ParseDesign(" Warp Drive ")
	wantErr(t, "unknown design", err, `chip: unknown design " Warp Drive " (want mesh | flattened butterfly | noc-out | ideal)`)
	var d Design
	wantErr(t, "unknown design text", d.UnmarshalText([]byte("ring")), `chip: unknown design "ring" (want mesh | flattened butterfly | noc-out | ideal)`)

	_, err = RegisterHierarchy(stubHier{name: "\t"})
	wantErr(t, "hierarchy without a name", err, "chip: RegisterHierarchy needs a name")
	_, err = RegisterHierarchy(stubHier{name: "L4", aliases: []string{""}})
	wantErr(t, "hierarchy with an empty alias", err, `chip: hierarchy "L4" has an empty alias`)
	_, err = RegisterHierarchy(stubHier{name: "sharednuca"})
	wantErr(t, "duplicate hierarchy name", err, `chip: hierarchy name "sharednuca" already registered by SharedNUCA`)
	_, err = RegisterHierarchy(stubHier{name: "L4", aliases: []string{"l4-cache", "NUCA"}})
	wantErr(t, "hierarchy alias taken", err, `chip: hierarchy name "nuca" already registered by SharedNUCA`)
	_, err = HierarchyOf(HierarchyID(250))
	wantErr(t, "unknown hierarchy handle", err, "chip: hierarchy 250 is not registered")
	if got := HierarchyID(250).String(); got != "Hierarchy(250)" {
		t.Errorf("HierarchyID(250).String() = %q", got)
	}
	_, err = ParseHierarchy("L4")
	wantErr(t, "unknown hierarchy", err, `chip: unknown hierarchy "L4" (want sharednuca)`)
	var h HierarchyID
	wantErr(t, "unknown hierarchy text", h.UnmarshalText([]byte("l4")), `chip: unknown hierarchy "l4" (want sharednuca)`)

	// Handles are uint8: both registries refuse a 257th entry.
	for i := len(Organizations()); i < 256; i++ {
		if _, err := RegisterOrganization(stubOrg{name: fmt.Sprintf("Stub %d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	_, err = RegisterOrganization(stubOrg{name: "One Too Many"})
	wantErr(t, "full design registry", err, "chip: design registry full")
	for i := len(Hierarchies()); i < 256; i++ {
		if _, err := RegisterHierarchy(stubHier{name: fmt.Sprintf("Stub %d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	_, err = RegisterHierarchy(stubHier{name: "One Too Many"})
	wantErr(t, "full hierarchy registry", err, "chip: hierarchy registry full")
	if got := Design(255).String() + " " + HierarchyID(255).String(); got != "Stub 255 Stub 255" {
		t.Errorf("last handles print %q", got)
	}
}
