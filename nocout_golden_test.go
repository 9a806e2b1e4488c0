package nocout

import (
	"math"
	"testing"

	"nocout/internal/chip"
	"nocout/internal/physic"
	"nocout/internal/topo"
	"nocout/internal/workload"
)

// nocoutGolden pins NOC-Out's network bit for bit on the configurations
// that exercise each of its construction paths: auto-shaped grids,
// concentration, taller columns with express links, two LLC rows, and
// one and four bank ports per LLC tile. Each entry holds the chip state
// hash after PrewarmCaches + Warmup(2000) + Run(3000) on Data Serving
// (seed 1, every core enabled), the Float64bits of the window's NoC power
// terms (the only output that reads the Fabric.Routers order), and those
// of the area model's Links, Buffers and Crossbar terms at 64- and
// 128-bit links.
var nocoutGolden = []struct {
	name     string
	cores    int
	channels int // memory channels; 0 keeps the Table 1 default
	banks    int // banks per LLC tile; 0 keeps the Table 1 default
	org      NOCOutOrg
	hash     uint64
	power    [3]uint64    // link, router, leakage
	area     [2][3]uint64 // [64-bit, 128-bit][links, buffers, crossbar]
}{
	{name: "default/16", cores: 16,
		hash: 0xa47f3cfeed52f91a, power: [3]uint64{0x3fbe0ab89961762c, 0x3fcb895062e5d566, 0x3f7858a27249d361},
		area: [2][3]uint64{{0x3fc0af4cd46ea6b3, 0x3fbf8e3ac0c62e4d, 0x3f9a820c5f33ed1a}, {0x3fd0af4cd46ea6b3, 0x3fcf8e3ac0c62e4d, 0x3fb6504e770671b6}}},
	{name: "default/32", cores: 32,
		hash: 0x21c61f31dbd4d0b0, power: [3]uint64{0x3fd635e682a481be, 0x3fde0a0abdff15b1, 0x3f980ee03c26684e},
		area: [2][3]uint64{{0x3fe29c2476ca3019, 0x3fd8548a9bcfd4c0, 0x3fbd5c31593e5fb8}, {0x3ff29c2476ca3019, 0x3fe8548a9bcfd4c0, 0x3fdb43526527a206}}},
	{name: "default/64", cores: 64,
		hash: 0xb8967f905f912318, power: [3]uint64{0x3fe75ab07256be7e, 0x3fed81a5a196d2c2, 0x3f9df1b6a20b33c4},
		area: [2][3]uint64{{0x3fe7be637d139e79, 0x3fdf687b139c94f7, 0x3fc0c6f7a0b5ed8c}, {0x3ff7be637d139e79, 0x3fef687b139c94f7, 0x3fdd5c31593e5fb6}}},
	{name: "concentration 2/128", cores: 128, channels: 8,
		org:  NOCOutOrg{Columns: 8, RowsPerSide: 4, Concentration: 2},
		hash: 0xb3a08978611af686, power: [3]uint64{0x3ff2042ec6dce5b9, 0x3ff6b5905fab8dca, 0x3f9df1b6a20b33c4},
		area: [2][3]uint64{{0x3fe7be637d139e79, 0x3fdf687b139c94f7, 0x3fc0c6f7a0b5ed8c}, {0x3ff7be637d139e79, 0x3fef687b139c94f7, 0x3fdd5c31593e5fb6}}},
	{name: "8 rows/side + express/128", cores: 128, channels: 8,
		org:  NOCOutOrg{Columns: 8, RowsPerSide: 8, ExpressFrom: 4},
		hash: 0x2347c5ffd69eaf1f, power: [3]uint64{0x3ffc0dde0a63d905, 0x3ffb25d3e972b8a3, 0x3fb6491e802d31b8},
		area: [2][3]uint64{{0x40069ee5b3b38e4b, 0x3fea52263d816ac9, 0x3fd8942088e1907d}, {0x40169ee5b3b38e4b, 0x3ffa52263d816ac9, 0x3ff67b4194cad2cc}}},
	{name: "2 LLC rows/32", cores: 32,
		org:  NOCOutOrg{Columns: 4, RowsPerSide: 4, LLCRows: 2},
		hash: 0x5660a29c2da16f18, power: [3]uint64{0x3fd409b09290bf3d, 0x3fe0535b2353b7ba, 0x3f89d19f4421f63f},
		area: [2][3]uint64{{0x3fd219d9cd56c526, 0x3fd0a99b6f5caf2e, 0x3faa820c5f33ed18}, {0x3fe219d9cd56c526, 0x3fe0a99b6f5caf2e, 0x3fc6504e770671b5}}},
	{name: "1 bank/tile/64", cores: 64, banks: 1,
		hash: 0x2606adae834b5fba, power: [3]uint64{0x3fe67f2c0a9c49a0, 0x3feba1a5e3c6a2db, 0x3f9df1b6a20b33c4},
		area: [2][3]uint64{{0x3fe7be637d139e79, 0x3fdf687b139c94f7, 0x3fc0c6f7a0b5ed8c}, {0x3ff7be637d139e79, 0x3fef687b139c94f7, 0x3fdd5c31593e5fb6}}},
	{name: "4 banks/tile/64", cores: 64, banks: 4,
		hash: 0x9628937abd85b146, power: [3]uint64{0x3fe7b9a07a457097, 0x3feee4982be4f4ca, 0x3f9df1b6a20b33c4},
		area: [2][3]uint64{{0x3fe7be637d139e79, 0x3fdf687b139c94f7, 0x3fc0c6f7a0b5ed8c}, {0x3ff7be637d139e79, 0x3fef687b139c94f7, 0x3fdd5c31593e5fb6}}},
}

func TestNOCOutFabricGolden(t *testing.T) {
	w, err := workload.Parse("Data Serving")
	if err != nil {
		t.Fatal(err)
	}
	w = workload.Unlimited(w)
	for _, g := range nocoutGolden {
		cfg := DefaultConfig(NOCOut)
		cfg.Cores = g.cores
		cfg.Seed = 1
		cfg.NOCOut = g.org
		if g.channels > 0 {
			cfg.MemChannels = g.channels
		}
		if g.banks > 0 {
			cfg.BanksPerLLCTile = g.banks
		}
		c := chip.New(cfg, w)
		c.PrewarmCaches()
		c.Warmup(2000)
		c.Run(3000)
		if h := c.StateHash(); h != g.hash {
			t.Errorf("%s: state hash %#x, want %#x", g.name, h, g.hash)
		}
		p := powerOf(c, 3000)
		if got := [3]uint64{math.Float64bits(p.LinkW), math.Float64bits(p.RouterW), math.Float64bits(p.LeakageW)}; got != g.power {
			t.Errorf("%s: power bits %#x, want %#x", g.name, got, g.power)
		}
		for i, bits := range []int{64, 128} {
			acfg := cfg
			acfg.LinkBits = bits
			b, _, err := AreaModel(acfg)
			if err != nil {
				t.Fatal(err)
			}
			got := [3]uint64{math.Float64bits(b.Links), math.Float64bits(b.Buffers), math.Float64bits(b.Crossbar)}
			if got != g.area[i] {
				t.Errorf("%s at %d bits: area bits %#x, want %#x", g.name, bits, got, g.area[i])
			}
		}
	}
}

// TestNOCOutAreaSplitGolden pins §6.2's three-network split of the
// baseline at 128-bit links, which is what nocout-area prints.
func TestNOCOutAreaSplitGolden(t *testing.T) {
	want := [3][3]uint64{
		{0x3fd488fc1925b97e, 0x3fd2dfd694ccab3f, 0x3fa0c6f7a0b5ed88},
		{0x3fcecd7a25b8963d, 0x3fc2dfd694ccab3f, 0x3fa0c6f7a0b5ed88},
		{0x3fed84ea64263aa4, 0x3fe1409a24031488, 0x3fd92a737110e454},
	}
	red, disp, llc := physic.NOCOutArea(topo.DefaultNOCOutParams(), 128)
	for i, b := range []physic.Breakdown{red, disp, llc} {
		got := [3]uint64{math.Float64bits(b.Links), math.Float64bits(b.Buffers), math.Float64bits(b.Crossbar)}
		if got != want[i] {
			t.Errorf("network %d: area bits %#x, want %#x", i, got, want[i])
		}
	}
}
