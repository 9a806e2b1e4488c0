package nocout

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math"
	"path/filepath"
	"testing"

	"nocout/internal/chip"
	"nocout/internal/workload"
)

// prewarmGolden pins the functionally prewarmed state bit for bit: the
// SHA-256 of the Snapshot container taken right after PrewarmCaches on a
// 64-core chip (seed 1). The container holds every array tag, valid bit,
// LRU age and clock, and every sharer vector, owner and dirty bit in the
// L1s and LLC banks, so a prewarm that installs lines in a different way
// or order, or a directory encoding that moves a byte, fails here.
var prewarmGolden = []struct {
	design    Design
	hierarchy HierarchyID
	workload  string
	sha       string
}{
	{Mesh, SharedNUCA, "Data Serving", "0159814160f0be28e4978a0551dd43ce0eff9eddd1e4215d56a6a5fe6a3566c9"},
	{Mesh, SharedNUCA, "MapReduce-C", "8df6663838efa772767847a85616bfc32fd9734e73c9d3875efa795a7dd2b711"},
	{NOCOut, SharedNUCA, "Data Serving", "935624163a30c70b15236f78c7f9699e60312cf0d0d3216f7392155cf6c8ab2b"},
	{NOCOut, SharedNUCA, "MapReduce-C", "e6a8596473aa6d358cb3ce98530831e9ea0bcfdd64bf0c989e06bfdc4913cd50"},
	{FBfly, SharedNUCA, "Data Serving", "87e527da1352f8bb1174d8ea421f3d12486f01b70973e1cc29be48890de94b83"},
	{FBfly, SharedNUCA, "MapReduce-C", "dceb823d6b7b152d3626ea56260a4d6edf22a75bf45bc071c849716923c5427f"},
	{Mesh, XORPlacement, "Data Serving", "68d64b92ac23c5bb53d403cfd113ef7e4f1c4899a998aa57428a50351b03983b"},
	{NOCOut, XORPlacement, "Data Serving", "4cafae4459618d72fb834dd225fa9631a96ec2b39eb32b00eaf7d9902428dbf5"},
	{Mesh, RegionAffine, "Data Serving", "b3d0cafe11028cd5b7f2717db706705781baf553005fb15e299c7c596f6b1a5e"},
	{NOCOut, RegionAffine, "Data Serving", "e96273862a31b954799e8f30c7acd1bd417c0d4d5666e2e33c442a964cbdccb5"},
	{Mesh, PrivateLLC, "Data Serving", "f4e9222c7d2d3cba0a62d7db87686a87f7e919ea3cb481081a9d2d15cc367cdf"},
}

func TestPrewarmSnapshotGolden(t *testing.T) {
	for _, g := range prewarmGolden {
		w, err := workload.Parse(g.workload)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(g.design)
		cfg.Cores = 64
		cfg.Seed = 1
		cfg.Hierarchy = g.hierarchy
		c := chip.New(cfg, w)
		c.PrewarmCaches()
		h := sha256.New()
		if err := c.Snapshot(h); err != nil {
			t.Fatalf("%v/%v/%s: snapshot: %v", g.design, g.hierarchy, g.workload, err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != g.sha {
			t.Errorf("%v/%v/%s: prewarmed snapshot sha256 %s, want %s", g.design, g.hierarchy, g.workload, got, g.sha)
		}
	}
}

// warmGolden pins a snapshot taken mid-run, after PrewarmCaches and a
// 12k-cycle Warmup on a 64-core chip (seed 1): the SHA-256 and length of
// the container. Unlike the prewarmed state, it holds outstanding MSHRs,
// packets and flits in flight, and open directory transactions, so an
// encoding of any of them that moves a byte fails here.
var warmGolden = []struct {
	design   Design
	workload string
	sha      string
	bytes    int64
}{
	{Mesh, "MapReduce-C", "8fba787eda46c38ac23ad714588b86409e48b88dd50d82529677e6da653057e2", 1138431},
	{Mesh, "Data Serving", "b2ea35c42d67cd6c0b05ccbde50d880e6fa489bced5b15a61ce7b0865d87eb90", 1224040},
	{NOCOut, "MapReduce-C", "fd721eb32efa5394fedeb4a6a8f1d43edf7d35fcc089f47b8c151fb07fd2bb16", 1170055},
	{NOCOut, "Data Serving", "1d03c95d523729e120fddab9d02beb41ccefffe2a159bbac8828daf9c270465f", 1261594},
}

// countingWriter counts the bytes written through it.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

func TestWarmSnapshotGolden(t *testing.T) {
	for _, g := range warmGolden {
		w, err := workload.Parse(g.workload)
		if err != nil {
			t.Fatal(err)
		}
		cfg := chip.DefaultConfig(g.design)
		cfg.Cores = 64
		cfg.Seed = 1
		c := chip.New(cfg, w)
		c.PrewarmCaches()
		c.Warmup(12000)
		h := sha256.New()
		var n countingWriter
		if err := c.Snapshot(io.MultiWriter(h, &n)); err != nil {
			t.Fatalf("%v/%s: snapshot: %v", g.design, g.workload, err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != g.sha || n.n != g.bytes {
			t.Errorf("%v/%s: warm snapshot sha256 %s (%d B), want %s (%d B)", g.design, g.workload, got, n.n, g.sha, g.bytes)
		}
	}
}

// formatGolden pins the snapshot encodings no other pin reaches: the
// ideal fabric's delivery calendar, the open-system arrival processes
// (MMPP, and burst under a diurnal phases= schedule), the phased
// workload's phase cursor, and a NOC3 replay's (block, offset) cursor.
// Each entry holds the SHA-256 and length of the snapshot taken after
// PrewarmCaches + Warmup(6000) on a 16-core chip (seed 1).
var formatGolden = []struct {
	name     string
	design   Design
	workload string // a workload spec, or "noc3" for a replay of recorded MapReduce-C
	sha      string
	bytes    int64
}{
	{"ideal", Ideal, "Data Serving",
		"a439f776e28a5c85712d0f295024e384edcbe26c27485e6a5719596cca18880d", 947300},
	{"opensys-mmpp", Mesh, "opensys:arrival=mmpp,base=web-search,rate=4,size=256,queue=64",
		"7a9a1f221c2a192a7c6f443a0b45392b7cf70bd25fdbe1c6dd6795e769eda78e", 920068},
	{"opensys-burst-phases", Mesh, "opensys:arrival=burst,base=data-serving,rate=0.5,size=128,queue=32,hurst=0.9,peak=1.2,phases=1.5x4000;0.5x4000",
		"e2af3caa029961a022b7e7c17bd598113ea13095692e04267eabe04af9ff3605", 928828},
	{"phased", Mesh, "MapReduce-Phased",
		"b31018f7964f74ea401cc316bae3d62c6e102bea723144aa3c081b4822e27fa5", 847583},
	{"noc3", Mesh, "noc3",
		"0f22ee276ed5694675e1cc3c6ec0158d92d478bf43253c52c909e8384c624cf1", 814632},
}

// formatGoldenUnfused holds the hashes that differ on a host whose
// math.Exp does not take its fused-multiply-add path (amd64 without FMA,
// or GODEBUG=cpu.fma=off). The burst process draws its Pareto ON/OFF
// periods through math.Pow, which calls math.Exp, and the snapshot holds
// the arrival state bit for bit, so a last-bit difference in one draw
// changes the container. The split is a known host dependence of the
// simulator, pinned here as two exact values rather than hidden; once
// the draw is made host-independent, one of them goes.
var formatGoldenUnfused = map[string]string{
	"opensys-burst-phases": "5cae13534bab5fb3bbb6af66b1a938fcada0d561fd71137c5c4366fa7df68858",
}

// expFused reports whether math.Exp takes its fused-multiply-add path on
// this host: the two paths round Exp(0.01) differently.
func expFused() bool { return math.Float64bits(math.Exp(0.01)) == 0x3ff0292a5d2f2227 }

func TestSnapshotFormatGolden(t *testing.T) {
	for _, g := range formatGolden {
		t.Run(g.name, func(t *testing.T) {
			cfg := chip.DefaultConfig(g.design)
			cfg.Cores = 16
			cfg.Seed = 1
			var w workload.Workload
			var err error
			if g.workload == "noc3" {
				w, err = recordedTrace(t, cfg, "MapReduce-C", 6000*4)
			} else {
				w, err = workload.Parse(g.workload)
			}
			if err != nil {
				t.Fatal(err)
			}
			c := chip.New(cfg, w)
			c.PrewarmCaches()
			c.Warmup(6000)
			h := sha256.New()
			var n countingWriter
			if err := c.Snapshot(io.MultiWriter(h, &n)); err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			want := g.sha
			if unfused, ok := formatGoldenUnfused[g.name]; ok && !expFused() {
				want = unfused
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want || n.n != g.bytes {
				t.Errorf("snapshot sha256 %s (%d B), want %s (%d B)", got, n.n, want, g.bytes)
			}
		})
	}
}

// recordedTrace records perCore instructions per core of the named
// workload into a NOC3 file under a test temp dir and opens it for replay.
func recordedTrace(t *testing.T, cfg Config, name string, perCore int) (workload.Workload, error) {
	src, err := workload.Parse(name)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(t.TempDir(), "rec.noctrace")
	if err := workload.RecordFile(path, src, cfg.Cores, perCore, cfg.Seed); err != nil {
		return nil, err
	}
	tf, err := workload.OpenTraceFile(path)
	if err != nil {
		return nil, err
	}
	t.Cleanup(func() { tf.Close() })
	return tf, nil
}
