package coherence_test

import (
	"strings"
	"testing"

	. "nocout/internal/coherence"

	"nocout/internal/ckpt"
	"nocout/internal/noc"
	"nocout/internal/sim"
	"nocout/internal/topo"
)

// TestBankLoadRejectsUnknownCores: a restored owner or sharer is a core
// index the bank later forwards to or invalidates. A 24-core bank's
// directory has the same geometry as a 16-core bank's (one word per
// line), so only a range check stops its owner 16 or its sharer 20 from
// restoring into a 16-core bank.
func TestBankLoadRejectsUnknownCores(t *testing.T) {
	const llc = 1 << 20
	load := func(donor *Bank, cores int) error {
		var e ckpt.Enc
		donor.State(ckpt.Encoding(&e))
		net := topo.NewIdealWithDelay(2, func(a, b noc.NodeID) sim.Cycle { return 1 })
		b := NewBank(0, 0, net, BankConfig{SizeBytes: llc, Ways: 4, LinkBits: 128, NumCores: cores}, nil,
			func(uint64) (noc.NodeID, int) { return 1, 0 }, func(int) noc.NodeID { return 0 })
		d := ckpt.NewDec(e.Bytes())
		b.State(ckpt.Decoding(d))
		return d.Err()
	}

	owned := newRig(t, 24, 32<<10, llc)
	if !owned.bank.PrewarmOwned(7, 16) {
		t.Fatal("prewarm failed")
	}
	shared := newRig(t, 24, 32<<10, llc)
	shared.access(t, 20, 9, Load)
	shared.settle(t)
	if shared.bank.SharerCount(9) != 1 {
		t.Fatalf("sharers of line 9 = %d, want core 20 alone", shared.bank.SharerCount(9))
	}

	for _, c := range []struct {
		name  string
		donor *Bank
	}{{"owner 16", owned.bank}, {"sharer 20", shared.bank}} {
		if err := load(c.donor, 24); err != nil {
			t.Fatalf("%s: a 24-core bank rejected a 24-core directory: %v", c.name, err)
		}
		switch err := load(c.donor, 16); {
		case err == nil:
			t.Errorf("%s: a 16-core bank restored it", c.name)
		case !strings.Contains(err.Error(), "bank 0 slot "):
			t.Errorf("%s: error %q does not name the bank and slot", c.name, err)
		}
	}
}
