package nocout

import (
	"math"
	"testing"

	"nocout/internal/chip"
	"nocout/internal/workload"
)

// fabricGolden pins the five router-based tiled fabrics bit for bit: the
// chip state hash after PrewarmCaches + Warmup(2000) + Run(3000) on Data
// Serving (seed 1), and the Float64bits of the area model's Links,
// Buffers and Crossbar terms at 64- and 128-bit links. Any change to
// construction order, port order, buffer depths, link delays or lengths,
// or routing decisions moves at least one of these words.
var fabricGolden = []struct {
	design string
	cores  int
	hash   uint64
	area   [2][3]uint64 // [64-bit, 128-bit][links, buffers, crossbar]
}{
	{"Mesh", 16, 0x2969337fa4deb20c, [2][3]uint64{{0x3fc32f6634fd4d55, 0x3fc797cc39ffd610, 0x3fa09c0482f18c75}, {0x3fd32f6634fd4d55, 0x3fd797cc39ffd610, 0x3fc09c0482f18c75}}},
	{"Mesh", 32, 0x881d84c9b3788a40, [2][3]uint64{{0x3fd2d89b6a2fa723, 0x3fd91148fd9fd36d, 0x3fb29f69e8261998}, {0x3fe2d89b6a2fa723, 0x3fe91148fd9fd36d, 0x3fd29f69e8261998}}},
	{"Mesh", 64, 0x97df8642e2f5707c, [2][3]uint64{{0x3fe32ad97be6dfe9, 0x3fea8ac5c13fd0cc, 0x3fc4c305a3adef96}, {0x3ff32ad97be6dfe9, 0x3ffa8ac5c13fd0cc, 0x3fe4c305a3adef96}}},
	{"Flattened Butterfly", 16, 0x50efd67d701138, [2][3]uint64{{0x3fdff9aa5850d646, 0x3fb3d16e1c3d4d68, 0x3fb8a99a17c3c10b}, {0x3feff9aa5850d646, 0x3fc3d16e1c3d4d68, 0x3fd8a99a17c3c10b}}},
	{"Flattened Butterfly", 32, 0x4c374ae42035aef2, [2][3]uint64{{0x4002d89b6a2fa73c, 0x3fd0c041a40f3e61, 0x3fde735d9abad6da}, {0x4012d89b6a2fa73c, 0x3fe0c041a40f3e61, 0x3ffe735d9abad6da}}},
	{"Flattened Butterfly", 64, 0xee5b31f5281ecd79, [2][3]uint64{{0x401cc04639da4fee, 0x3fe797cc39ffd60f, 0x3ffc4fc1df3300d2}, {0x402cc04639da4fee, 0x3ff797cc39ffd60f, 0x401c4fc1df3300d2}}},
	{"Torus", 16, 0xf52709a5a5aba9ea, [2][3]uint64{{0x3fd9948846a711c5, 0x3fed7dbf487fcb91, 0x3fa92a737110e452}, {0x3fe9948846a711c5, 0x3ff1b1d92b7fe08a, 0x3fc92a737110e452}}},
	{"Torus", 32, 0x2ecb940f5ab26034, [2][3]uint64{{0x3fe731fa5b4e578b, 0x3ffd7dbf487fcb98, 0x3fb92a737110e457}, {0x3ff731fa5b4e578b, 0x4001b1d92b7fe08b, 0x3fd92a737110e457}}},
	{"Torus", 64, 0xe2aaf41e6c9e7018, [2][3]uint64{{0x3ff5e7d3fb50ffe9, 0x400d7dbf487fcb8d, 0x3fc92a737110e450}, {0x4005e7d3fb50ffe9, 0x4011b1d92b7fe086, 0x3fe92a737110e450}}},
	{"CMesh", 16, 0x9d51f010b733de83, [2][3]uint64{{0x3fa9948846a711cf, 0x3fb1b1d92b7fe08b, 0x3f921e908ed8f652}, {0x3fb9948846a711cf, 0x3fc1b1d92b7fe08b, 0x3fb21e908ed8f652}}},
	{"CMesh", 32, 0x6c9b23baa3b2f28d, [2][3]uint64{{0x3fbcfe78f221ed82, 0x3fc32b55ef1fddec, 0x3fa56415534e5bad}, {0x3fccfe78f221ed82, 0x3fd32b55ef1fddec, 0x3fc56415534e5bad}}},
	{"CMesh", 64, 0x4ffbaa9a6e0d32ed, [2][3]uint64{{0x3fd06ddefc7cbfd2, 0x3fd4a4d2b2bfdb4e, 0x3fb8ea06c46a52b1}, {0x3fe06ddefc7cbfd2, 0x3fe4a4d2b2bfdb4e, 0x3fd8ea06c46a52b1}}},
	{"Crossbar", 16, 0x4b86f41948619a00, [2][3]uint64{{0x3fc9948846a711d0, 0x3fa797cc39ffd60f, 0x3fa01b2b29a4692c}, {0x3fd9948846a711d0, 0x3fb797cc39ffd60f, 0x3fc01b2b29a4692c}}},
	{"Crossbar", 32, 0x381a1bf9fae88e6d, [2][3]uint64{{0x3fe1657bc47ac1b3, 0x3fb797cc39ffd60f, 0x3fc01b2b29a4692c}, {0x3ff1657bc47ac1b3, 0x3fc797cc39ffd60f, 0x3fe01b2b29a4692c}}},
	{"Crossbar", 64, 0xfeef3daf618f400e, [2][3]uint64{{0x3ff5e7d3fb50ffc7, 0x3fc797cc39ffd60f, 0x3fe01b2b29a4692c}, {0x4005e7d3fb50ffc7, 0x3fd797cc39ffd60f, 0x40001b2b29a4692c}}},
}

func TestTiledFabricGolden(t *testing.T) {
	w, err := workload.Parse("Data Serving")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range fabricGolden {
		d, err := ParseDesign(g.design)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(d)
		cfg.Cores = g.cores
		cfg.Seed = 1
		c := chip.New(cfg, w)
		c.PrewarmCaches()
		c.Warmup(2000)
		c.Run(3000)
		if h := c.StateHash(); h != g.hash {
			t.Errorf("%s/%d: state hash %#x, want %#x", g.design, g.cores, h, g.hash)
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
				t.Errorf("%s/%d at %d bits: area bits %#x, want %#x", g.design, g.cores, bits, got, g.area[i])
			}
		}
	}
}
