package campaign_test

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"nocout"
	"nocout/campaign"
	"nocout/internal/cas"
)

// tiny is the unit-test quality (the engine tests' idiom).
var tiny = nocout.Quality{Warmup: 6000, Window: 8000, Seeds: 1}

// testSweep is a small 2×2 sweep at tiny quality.
func testSweep(t *testing.T) nocout.Sweep {
	t.Helper()
	sw, err := nocout.NewExperiment(
		nocout.WithTitle("campaign test"),
		nocout.WithDesigns(nocout.Ideal, nocout.Mesh),
		nocout.WithWorkloads("SAT Solver", "Data Serving"),
		nocout.WithCoreCounts(8),
		nocout.WithQuality(tiny),
	).Sweep()
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

func reportJSON(t *testing.T, rep *nocout.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCampaignResume is the subsystem's acceptance test: an interrupted
// campaign, resumed by two concurrent workers with distinct lease
// identities, merges to a Report bit-identical to an uninterrupted
// single-process run — and a further re-run computes nothing at all.
func TestCampaignResume(t *testing.T) {
	sw := testSweep(t)

	single, err := (&nocout.Runner{}).Run(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	want := reportJSON(t, single)

	dir := t.TempDir()
	c, err := campaign.Create(dir, sw)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupt the first worker after its first completed point.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stats, err := c.Work(ctx, campaign.Options{
		Workers: 1, Owner: "w0",
		Progress: func(done, total int, p nocout.Point, r nocout.Result) {
			if done == 1 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted worker = %v, want context.Canceled", err)
	}
	if stats.Computed < 1 || stats.Computed >= sw.Len() {
		t.Fatalf("interrupted worker computed %d of %d points; the test needs a partial campaign", stats.Computed, sw.Len())
	}

	// Resume with two concurrent workers sharing the directory (a second
	// process joining is the same code path: Open + Work).
	c2, err := campaign.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([]campaign.Stats, 2)
	errs := make([]error, 2)
	for i, cc := range []*campaign.Campaign{c, c2} {
		wg.Add(1)
		go func(i int, cc *campaign.Campaign) {
			defer wg.Done()
			results[i], errs[i] = cc.Work(context.Background(), campaign.Options{
				Owner:     []string{"w1", "w2"}[i],
				PassDelay: 5 * time.Millisecond,
			})
		}(i, cc)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("resumed worker %d: %v (stats %+v)", i, err, results[i])
		}
	}

	rep, err := c2.Merge()
	if err != nil {
		t.Fatal(err)
	}
	if got := reportJSON(t, rep); !bytes.Equal(got, want) {
		t.Fatalf("merged report not bit-identical to the single-shot run:\n--- merged\n%s\n--- single\n%s", got, want)
	}

	// A fully cached re-run executes zero simulations.
	again, err := c.Work(context.Background(), campaign.Options{Owner: "w3"})
	if err != nil {
		t.Fatal(err)
	}
	if again.Computed != 0 || again.Cached != sw.Len() || again.Passes != 1 {
		t.Fatalf("cached re-run = %+v, want 0 computed / %d cached in one pass", again, sw.Len())
	}
}

// TestCampaignRecompute: the -recompute override ignores every cached
// entry exactly once, recomputing and overwriting it.
func TestCampaignRecompute(t *testing.T) {
	sw := testSweep(t)
	dir := t.TempDir()
	c, err := campaign.Create(dir, sw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Work(context.Background(), campaign.Options{Owner: "a"}); err != nil {
		t.Fatal(err)
	}
	want := reportJSON(t, mustMerge(t, c))

	stats, err := c.Work(context.Background(), campaign.Options{Owner: "b", Recompute: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Computed != sw.Len() {
		t.Fatalf("recompute ran %d of %d points", stats.Computed, sw.Len())
	}
	// Determinism: the overwritten entries merge to the same bytes.
	if got := reportJSON(t, mustMerge(t, c)); !bytes.Equal(got, want) {
		t.Fatal("recomputed campaign merged differently")
	}
}

func mustMerge(t *testing.T, c *campaign.Campaign) *nocout.Report {
	t.Helper()
	rep, err := c.Merge()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestCampaignFailedPoint: a broken point (PrivateLLC needs a tiled
// organization; NOC-Out is not one) is recorded in the store — not
// retried forever, not fatal — and its error rides through Merge. An
// incomplete campaign refuses to merge.
func TestCampaignFailedPoint(t *testing.T) {
	bad := nocout.DefaultConfig(nocout.NOCOut)
	bad.Cores = 8
	bad.Hierarchy = nocout.PrivateLLC
	good := nocout.DefaultConfig(nocout.Mesh)
	good.Cores = 8
	sw, err := nocout.NewExperiment(
		nocout.WithVariant("Good", good),
		nocout.WithVariant("Bad", bad),
		nocout.WithWorkloads("SAT Solver"),
		nocout.WithQuality(tiny),
	).Sweep()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	c, err := campaign.Create(dir, sw)
	if err != nil {
		t.Fatal(err)
	}

	// FailFast surfaces the break instead of recording it...
	if _, err := c.Work(context.Background(), campaign.Options{Owner: "ff", FailFast: true}); err == nil {
		t.Fatal("FailFast must surface the broken point")
	}
	if _, err := c.Merge(); err == nil || !strings.Contains(err.Error(), "no stored result") {
		t.Fatalf("incomplete campaign must refuse to merge, got %v", err)
	}

	// ...the default records it and completes the campaign.
	stats, err := c.Work(context.Background(), campaign.Options{Owner: "kg"})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed != 1 {
		t.Fatalf("stats = %+v, want 1 failed", stats)
	}
	rep := mustMerge(t, c)
	if rep.Results[1].Err == "" || !strings.Contains(rep.Results[1].Err, "tiled organization") {
		t.Fatalf("merged broken point: %+v", rep.Results[1])
	}
	if rep.Results[0].Err != "" || rep.Results[0].Result.AggIPC <= 0 {
		t.Fatalf("merged healthy point: %+v", rep.Results[0])
	}

	// The failure is cached: a re-run retries nothing.
	again, err := c.Work(context.Background(), campaign.Options{Owner: "kg2"})
	if err != nil {
		t.Fatal(err)
	}
	if again.Computed != 0 || again.Failed != 1 {
		t.Fatalf("failed point must not be retried: %+v", again)
	}
}

// TestCreateVerifiesIdentity: re-creating a campaign directory with the
// same sweep resumes it; any drift in the sweep's content identity is a
// hard error, never a silent cache mixup.
func TestCreateVerifiesIdentity(t *testing.T) {
	sw := testSweep(t)
	dir := t.TempDir()
	if _, err := campaign.Create(dir, sw); err != nil {
		t.Fatal(err)
	}
	if _, err := campaign.Create(dir, sw); err != nil {
		t.Fatalf("same sweep must resume: %v", err)
	}

	drifted := sw
	drifted.Points = append([]nocout.Point(nil), sw.Points...)
	drifted.Points[0].Seed = 99
	drifted.Points[0].Config.Seed = 99
	if _, err := campaign.Create(dir, drifted); err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("drifted sweep must be rejected, got %v", err)
	}

	if _, err := campaign.Open(t.TempDir()); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Open on an empty dir = %v, want fs.ErrNotExist", err)
	}
	if _, err := campaign.Create(t.TempDir(), nocout.Sweep{}); err == nil {
		t.Fatal("empty sweep must not create a campaign")
	}
}

// TestManifestRejectsNegativeQuality: a sweep built by hand with a
// negative window creates no campaign, and a manifest carrying one does
// not open.
func TestManifestRejectsNegativeQuality(t *testing.T) {
	sw := testSweep(t)
	sw.Quality.Window = -1
	dir := t.TempDir()
	if _, err := campaign.Create(dir, sw); !errors.Is(err, nocout.ErrBadQuality) {
		t.Fatalf("Create with a negative window = %v, want ErrBadQuality", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("a rejected sweep must write no manifest (stat: %v)", err)
	}

	good := t.TempDir()
	c, err := campaign.Create(good, testSweep(t))
	if err != nil {
		t.Fatal(err)
	}
	man := c.Manifest()
	man.Quality.Warmup = -6000
	if err := man.Validate(); !errors.Is(err, nocout.ErrBadQuality) {
		t.Fatalf("manifest with a negative warmup validates as %v, want ErrBadQuality", err)
	}
}

// TestLeaser exercises the claim-file protocol campaign workers lease
// points with, on point keys: exclusive acquisition, denial while live,
// owner-checked release, and stealing after expiry.
func TestLeaser(t *testing.T) {
	dir := t.TempDir()
	leaser := func(owner string, ttl time.Duration) *cas.Leaser {
		return &cas.Leaser{Dir: dir, Owner: owner, TTL: ttl, KeyPrefix: nocout.KeyVersion + "-"}
	}
	key := "pt1-" + strings.Repeat("0", 64)
	a, b := leaser("a", 0), leaser("b", 0)

	release, ok, err := a.Acquire(key)
	if err != nil || !ok {
		t.Fatalf("first acquire = (%v, %v)", ok, err)
	}
	if _, ok, err := b.Acquire(key); err != nil || ok {
		t.Fatalf("live claim must deny: (%v, %v)", ok, err)
	}
	release()
	rel2, ok, err := b.Acquire(key)
	if err != nil || !ok {
		t.Fatalf("acquire after release = (%v, %v)", ok, err)
	}
	rel2()

	// Expired claims are stolen.
	fast := leaser("crashed", time.Nanosecond)
	if _, ok, err := fast.Acquire(key); err != nil || !ok {
		t.Fatalf("fast acquire = (%v, %v)", ok, err)
	}
	time.Sleep(10 * time.Millisecond)
	rel3, ok, err := a.Acquire(key)
	if err != nil || !ok {
		t.Fatalf("steal of an expired claim = (%v, %v)", ok, err)
	}
	rel3()

	if _, _, err := a.Acquire("not-a-key"); err == nil {
		t.Fatal("invalid keys must not touch the filesystem")
	}

	// Concurrent acquisition of one key admits exactly one winner.
	const racers = 16
	var wins int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l := leaser("r"+strings.Repeat("x", i), 0)
			if _, ok, err := l.Acquire(key); err == nil && ok {
				mu.Lock()
				wins++
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if wins != 1 {
		t.Fatalf("%d racers acquired one key", wins)
	}
}

// TestValidKey pins the key shape the store and leaser trust for
// path-safety.
func TestValidKey(t *testing.T) {
	good := "pt1-" + strings.Repeat("ab12", 16)
	if !campaign.ValidKey(good) {
		t.Fatalf("ValidKey(%q) = false", good)
	}
	for _, bad := range []string{
		"", "pt1-", "pt2-" + strings.Repeat("a", 64),
		"pt1-" + strings.Repeat("A", 64), // upper-case hex
		"pt1-" + strings.Repeat("a", 63),
		"pt1-" + strings.Repeat("a", 65),
		"pt1-../" + strings.Repeat("a", 60) + "zzzz",
	} {
		if campaign.ValidKey(bad) {
			t.Errorf("ValidKey(%q) = true", bad)
		}
	}
}

// TestCampaignTraceWorkload: a trace-backed campaign rehydrates in a
// "fresh process" (Open from the directory alone) to the *same* identity
// — the rejoining worker serves every point from the cache instead of
// silently re-simulating a same-named registry workload.
func TestCampaignTraceWorkload(t *testing.T) {
	src, err := nocout.ParseWorkload("Web Search")
	if err != nil {
		t.Fatal(err)
	}
	trace := filepath.Join(t.TempDir(), "ws.noctrace")
	if err := nocout.RecordTraceFile(trace, src, 8, 50000, 1); err != nil {
		t.Fatal(err)
	}

	sw, err := nocout.NewExperiment(
		nocout.WithDesigns(nocout.Mesh),
		nocout.WithWorkloads("trace:"+trace),
		nocout.WithCoreCounts(8),
		nocout.WithQuality(tiny),
	).Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if sw.Points[0].WorkloadSpec == "" {
		t.Fatal("sweep must record the trace spec on the point")
	}

	dir := t.TempDir()
	c, err := campaign.Create(dir, sw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Work(context.Background(), campaign.Options{Owner: "a"}); err != nil {
		t.Fatal(err)
	}

	// Rejoin from the directory alone, as a second process would.
	c2, err := campaign.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c2.Work(context.Background(), campaign.Options{Owner: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Computed != 0 || stats.Cached != sw.Len() {
		t.Fatalf("rehydrated trace campaign must be fully cached, got %+v", stats)
	}

	// The same trace passed by *value* cannot rehydrate — its name
	// resolves to the synthetic registry entry, a different workload —
	// and Create must refuse loudly rather than let a joining worker
	// silently simulate the wrong one.
	tf, err := nocout.LoadTrace(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.(*nocout.TraceFile).Close()
	byValue, err := nocout.NewExperiment(
		nocout.WithDesigns(nocout.Mesh),
		nocout.WithWorkloadValues(tf),
		nocout.WithCoreCounts(8),
		nocout.WithQuality(tiny),
	).Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := campaign.Create(t.TempDir(), byValue); err == nil || !strings.Contains(err.Error(), "rehydrates to a different identity") {
		t.Fatalf("by-value trace must fail the rehydration check, got %v", err)
	}
}

// corruptEntry overwrites key's stored entry with garbage bytes.
func corruptEntry(dir, key string) error {
	return os.WriteFile(filepath.Join(dir, "results", key+".json"), []byte("{not json"), 0o644)
}

// TestDirStoreSelfHealing: corrupt or misplaced entries read as misses so
// the point recomputes and the next Put heals the file.
func TestDirStoreSelfHealing(t *testing.T) {
	sw := testSweep(t)
	dir := t.TempDir()
	c, err := campaign.Create(dir, sw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Work(context.Background(), campaign.Options{Owner: "a"}); err != nil {
		t.Fatal(err)
	}
	want := reportJSON(t, mustMerge(t, c))

	// Corrupt one entry on disk.
	key := c.Manifest().Keys[0]
	store := c.Store()
	if err := corruptEntry(dir, key); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := store.Get(key); err != nil || ok {
		t.Fatalf("corrupt entry must read as a miss: (%v, %v)", ok, err)
	}
	stats, err := c.Work(context.Background(), campaign.Options{Owner: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Computed != 1 {
		t.Fatalf("self-healing recompute ran %d points, want 1", stats.Computed)
	}
	if got := reportJSON(t, mustMerge(t, c)); !bytes.Equal(got, want) {
		t.Fatal("healed campaign merged differently")
	}
}

// TestCampaignCheckpoints: a campaign worked through the warm-state
// checkpoint cache merges to a Report byte-identical to a plain run, and
// the cache directory ends up holding one checkpoint per prefix.
func TestCampaignCheckpoints(t *testing.T) {
	sw, err := nocout.NewExperiment(
		nocout.WithTitle("checkpointed campaign"),
		nocout.WithDesigns(nocout.Mesh),
		nocout.WithWorkloads("SAT Solver", "Data Serving"),
		nocout.WithCoreCounts(8),
		nocout.WithQuality(nocout.Quality{Warmup: 2000, Window: 2500, Seeds: 1}),
	).Sweep()
	if err != nil {
		t.Fatal(err)
	}

	plain, err := (&nocout.Runner{}).Run(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	want := reportJSON(t, plain)

	ckDir := t.TempDir()
	c, err := campaign.Create(t.TempDir(), sw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Work(context.Background(), campaign.Options{Owner: "a", CheckpointDir: ckDir}); err != nil {
		t.Fatal(err)
	}
	if got := reportJSON(t, mustMerge(t, c)); !bytes.Equal(got, want) {
		t.Fatal("checkpointed campaign merged differently from the plain run")
	}

	st, err := nocout.NewCheckpointStore(ckDir)
	if err != nil {
		t.Fatal(err)
	}
	infos, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != sw.Len() {
		t.Fatalf("checkpoint cache holds %d entries, want one per point (%d)", len(infos), sw.Len())
	}

	// A recomputing second worker restores every prefix instead of
	// re-warming: the cache survives across campaigns.
	c2, err := campaign.Create(t.TempDir(), sw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Work(context.Background(), campaign.Options{Owner: "b", CheckpointDir: ckDir}); err != nil {
		t.Fatal(err)
	}
	if got := reportJSON(t, mustMerge(t, c2)); !bytes.Equal(got, want) {
		t.Fatal("second checkpointed campaign merged differently")
	}
}
