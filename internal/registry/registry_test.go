package registry

import (
	"fmt"
	"slices"
	"testing"
)

type entry struct {
	name    string
	aliases []string
}

func (e entry) Name() string      { return e.name }
func (e entry) Aliases() []string { return e.aliases }

var texts = Texts{
	NoName:       "no name",
	EmptyAlias:   "%q: empty alias",
	Full:         "full",
	Taken:        "%q taken by %s",
	Unregistered: "no entry %d",
	Unknown:      "no %[1]q in %[2]s or %[3]s",
}

// TestTable covers a table's reads and that a clone is independent of
// the table it copies.
func TestTable(t *testing.T) {
	tb := New[entry](2, texts)
	for i, e := range []entry{{"Alpha", []string{"a", "alpha"}}, {" Beta ", nil}} {
		if got, err := tb.Add(e); got != i || err != nil {
			t.Fatalf("Add(%v) = (%d, %v), want (%d, nil)", e, got, err, i)
		}
	}
	if e, i, err := tb.Lookup(" A "); e.name != "Alpha" || i != 0 || err != nil {
		t.Fatalf("Lookup(a) = (%v, %d, %v)", e, i, err)
	}
	if e, i, err := tb.Lookup("beta"); e.name != " Beta " || i != 1 || err != nil {
		t.Fatalf("Lookup(beta) = (%v, %d, %v)", e, i, err)
	}
	if _, _, err := tb.Lookup("Gamma"); err == nil || err.Error() != `no "Gamma" in Alpha |  Beta  or alpha |  beta ` {
		t.Fatalf("Lookup(Gamma) error = %v", err)
	}
	if e, err := tb.Get(1); e.name != " Beta " || err != nil {
		t.Fatalf("Get(1) = (%v, %v)", e, err)
	}
	if _, err := tb.Get(-1); err == nil || err.Error() != "no entry -1" {
		t.Fatalf("Get(-1) error = %v", err)
	}
	if tb.Len() != 2 || !slices.Equal(tb.Names(), []string{"Alpha", " Beta "}) || len(tb.All()) != 2 {
		t.Fatalf("Len %d, Names %q, All %v", tb.Len(), tb.Names(), tb.All())
	}
	if _, err := tb.Add(entry{name: "Gamma"}); err == nil || err.Error() != "full" {
		t.Fatalf("Add past the cap: %v", err)
	}

	u := New[entry](0, texts)
	u.Add(entry{name: "Alpha"})
	c := u.Clone()
	for i := 0; i < 300; i++ { // a cap of 0 is none
		if _, err := c.Add(entry{name: fmt.Sprint("e", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := u.Lookup("e0"); err == nil || u.Len() != 1 || c.Len() != 301 {
		t.Fatalf("entries added to a clone show in the original: %d entries, clone %d", u.Len(), c.Len())
	}
}
