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
	{Mesh, "MapReduce-C", "d2276ebb919a3deffcec32d08c275f277ce9985f90d32f695f40ec85900efc9b", 1134454},
	{Mesh, "Data Serving", "b417da6d4e03eb273397fd955c7c2d323a1d95fd689704b3811b9dcfd8fedf85", 1219738},
	{NOCOut, "MapReduce-C", "84d64e0b67ed0c98da6862ff4cbe6e997428e0f449dca911e1deb4de07f630b2", 1167124},
	{NOCOut, "Data Serving", "7afc5c636a375246a23f6a9ad6ac540d0e9a17af0236951ae3ba1209ed834bb3", 1258618},
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
		"84b9398e90dd1d645653212cd1ac813992061f1df55e3cf16ae6415bc0775f02", 918950},
	{"opensys-burst-phases", Mesh, "opensys:arrival=burst,base=data-serving,rate=0.5,size=128,queue=32,hurst=0.9,peak=1.2,phases=1.5x4000;0.5x4000",
		"3f5a09f74511501409aca0cc696ab5127e73f792169fc802cad33970a254c31d", 927660},
	{"phased", Mesh, "MapReduce-Phased",
		"00dd5d5d33d9db277a7c563afc02b4f5ccdebc0666faa116e4ff9aa713f69205", 846606},
	{"noc3", Mesh, "noc3",
		"153de908e06946ba25e00beeb18fee7237a053a63aac9f2af54fbf0488db9bd3", 813766},
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
	"opensys-burst-phases": "1eb03a66abab1ba5c6d99f3299540e2009abf4e7efe70ddf93f26746880cfb59",
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
