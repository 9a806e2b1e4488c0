package chip

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"nocout/internal/workload"
)

// hotOnly is a workload whose shared lines are hot's alone: with no
// instruction region filling the LLC's sets, hot's lines find free ways.
type hotOnly struct {
	workload.Workload
	hot workload.Region
}

func (w hotOnly) Layout() workload.Layout {
	lay := w.Workload.Layout()
	lay.Instr, lay.Hot = workload.Region{}, w.hot
	return lay
}

// TestPrewarmBankWalkMatchesLineWalk: on a striped LLC, PrewarmCaches'
// bank-by-bank walk leaves a chip whose snapshot is byte for byte that of
// the line walk. The snapshot pins are all 64-core; this covers the
// builtin organizations at 16 and 32 cores on the paper's six workloads
// (the public package's extension designs are tiled, with Mesh's banks),
// with half Table 1's LLC so that the shared regions overflow their sets
// and the fill order decides which lines stay cold. NOC-Out with three
// banks per LLC tile strides by a count that is not a power of two, so
// region bases fall off a stripe boundary, and that does not divide 2^58,
// the line count; on it, a hot region ending at the top of the address
// space and one wrapping past 2^64 check the walk's bounds.
func TestPrewarmBankWalkMatchesLineWalk(t *testing.T) {
	type point struct {
		name string
		cfg  Config
		w    workload.Workload
	}
	var points []point
	for _, d := range []Design{Mesh, FBfly, NOCOut, Ideal} {
		for _, cores := range []int{16, 32} {
			for _, p := range workload.Builtin() {
				cfg := DefaultConfig(d)
				cfg.Cores = cores
				cfg.LLCMB = 4
				points = append(points, point{fmt.Sprintf("%v/%d/%s", d, cores, p.Name), cfg, workload.Synth(p)})
			}
		}
	}
	// 12 banks at 16 cores and 24 at 32; 6 MB gives each a power-of-two
	// size.
	ds := workload.Synth(workload.DataServing)
	wrap := workload.Region{Base: math.MaxUint64 - 3*64 + 1, Size: 8 * 64} // the last 3 lines, then lines 0-4
	for _, cores := range []int{16, 32} {
		cfg := DefaultConfig(NOCOut)
		cfg.Cores = cores
		cfg.BanksPerLLCTile = 3
		cfg.LLCMB = 6
		name := fmt.Sprintf("NOC-Out/%d/3 banks per tile", cores)
		points = append(points,
			point{name + "/" + ds.Name(), cfg, ds},
			point{name + "/hot at the top", cfg, hotOnly{ds, topRegion}},
			point{name + "/hot wrapping", cfg, hotOnly{ds, wrap}})
	}

	// The two buffers are reused from point to point.
	var bufs [2]bytes.Buffer
	snapshot := func(i int, c *Chip) []byte {
		bufs[i].Reset()
		if err := c.Snapshot(&bufs[i]); err != nil {
			t.Fatal(err)
		}
		return bufs[i].Bytes()
	}
	for _, p := range points {
		byBank := New(p.cfg, p.w)
		if !byBank.striped() {
			t.Fatalf("%s: %d banks are not one modulo stripe", p.name, len(byBank.Banks))
		}
		byBank.PrewarmCaches()
		byLine := New(p.cfg, p.w)
		byLine.prewarmByLine(p.w.Layout())
		if !bytes.Equal(snapshot(0, byBank), snapshot(1, byLine)) {
			t.Errorf("%s: the bank walk and the line walk prewarm different chips", p.name)
		}
	}
}
