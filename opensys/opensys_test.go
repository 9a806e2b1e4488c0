package opensys

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"nocout/internal/ckpt"
	"nocout/internal/cpu"
	"nocout/internal/sim"
	"nocout/internal/workload"
)

// TestSpecCanonical: parse(encode(cfg)) is the identity and every
// spelling of a spec normalizes to one canonical string — the property
// that keys sweep cells and campaign cache entries.
func TestSpecCanonical(t *testing.T) {
	for _, spec := range []string{
		"opensys:arrival=poisson,base=data-serving,rate=2,size=256,queue=64",
		"opensys:arrival=mmpp,base=web-search,rate=4,size=256,queue=64,ratio=9,dwell-hi=2000,dwell-lo=8000",
		"opensys:arrival=burst,base=data-serving,rate=0.5,size=128,queue=32,hurst=0.9,peak=1.2",
		"opensys:arrival=poisson,base=data-serving,rate=2,size=256,queue=64,phases=1.5x4000;0.5x4000",
		"opensys:arrival=poisson,base=data-serving,rate=2,size=256,queue=64,skew=hotspot,grid=64,hot=4,hotfrac=0.5",
		"opensys:arrival=poisson,base=data-serving,rate=2,size=256,queue=64,skew=transpose,grid=64",
	} {
		o, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if got := o.Spec(); got != spec {
			t.Errorf("spec not canonical:\nin  %q\nout %q", spec, got)
		}
		if o.Name() != spec {
			t.Errorf("unnamed instance must Name() its spec, got %q", o.Name())
		}
	}
	// Spellings normalize: alias base, shuffled keys, defaults omitted.
	a, err := Parse("opensys:base=cassandra,arrival=poisson")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse("opensys:arrival=poisson,base=Data Serving,rate=2,size=256,queue=64")
	if err != nil {
		t.Fatal(err)
	}
	if a.Spec() != b.Spec() {
		t.Errorf("equivalent spellings diverge: %q vs %q", a.Spec(), b.Spec())
	}
}

// TestParseRejects: invalid specs fail loudly instead of defaulting.
func TestParseRejects(t *testing.T) {
	for _, bad := range []string{
		"opensys:arrival=weird",
		"opensys:rate=-1",
		"opensys:rate=NaN",
		"opensys:size=0,size=1", // duplicate key
		"opensys:bogus=1",       // unknown key
		"opensys:ratio=0.5,arrival=mmpp",
		"opensys:hurst=0.3,arrival=burst",
		"opensys:peak=2.5,arrival=burst",
		"opensys:phases=",
		"opensys:phases=1.5@400",
		"opensys:skew=diag",
		"opensys:skew=hotspot,hot=80,grid=64",
		"opensys:base=trace:/tmp/x.noctrace",
		"opensys:base=open-poisson", // no nesting
		"opensys:rate",              // not key=value
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted an invalid spec", bad)
		}
	}
	// Errors that must name what is wrong: a schedule under which no
	// request ever arrives (the arrival engine would spin forever), and an
	// explicit zero that New would otherwise read as "use the default".
	for _, c := range []struct{ spec, want string }{
		{"opensys:rate=1,phases=0x1000", `"0x1000"`},
		{"opensys:phases=0x100;0x200", `"0x100;0x200"`},
		{"opensys:rate=0", "rate"},
		{"opensys:rate=0.0", "rate"},
		{"opensys:rate=-0", "rate"},
		{"opensys:size=0", "size"},
		{"opensys:queue=0", "queue"},
		{"opensys:arrival=mmpp,ratio=0", "ratio"},
		{"opensys:arrival=mmpp,dwell-hi=0", "dwell-hi"},
		{"opensys:arrival=mmpp,dwell-lo=0", "dwell-lo"},
		{"opensys:arrival=burst,hurst=0", "hurst"},
		{"opensys:arrival=burst,peak=0", "peak"},
		{"opensys:skew=hotspot,grid=0", "grid"},
		{"opensys:skew=hotspot,hot=0", "hot"},
		{"opensys:skew=hotspot,hotfrac=0", "hotfrac"},
	} {
		_, err := Parse(c.spec)
		if err == nil {
			t.Errorf("Parse(%q) accepted an invalid spec", c.spec)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) error %q does not name %s", c.spec, err, c.want)
		}
	}
	// A schedule with some zero phases is valid: requests stop for a
	// while, then resume.
	if _, err := Parse("opensys:rate=1,phases=1.5x4000;0x4000"); err != nil {
		t.Errorf("partly idle schedule rejected: %v", err)
	}
}

// TestSchemeRegistered: the workload registry resolves opensys: specs
// and the registered defaults by name and alias.
func TestSchemeRegistered(t *testing.T) {
	w, err := workload.Parse("opensys:arrival=mmpp,rate=4")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := w.(*Open); !ok {
		t.Fatalf("workload.Parse returned %T, want *Open", w)
	}
	for _, name := range []string{"Open Poisson", "open-mmpp", "OPEN BURST"} {
		if _, err := workload.Parse(name); err != nil {
			t.Errorf("registered default %q did not resolve: %v", name, err)
		}
	}
	// Round trip: the canonical spec resolves back through the registry.
	if back, err := workload.Parse(w.Name()); err != nil || back.Name() != w.Name() {
		t.Errorf("spec name did not round-trip: %v, %v", back, err)
	}
}

// TestArrivalDeterminism: the arrival schedule is a pure function of
// (spec, coreID, seed).
func TestArrivalDeterminism(t *testing.T) {
	for _, spec := range []string{"open-poisson", "open-mmpp", "open-burst"} {
		w, err := workload.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		o := w.(*Open)
		a := o.ArrivalTimes(3, 42, 500)
		b := o.ArrivalTimes(3, 42, 500)
		if len(a) != 500 {
			t.Fatalf("%s: got %d arrivals", spec, len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: arrival %d diverged: %v vs %v", spec, i, a[i], b[i])
			}
			if i > 0 && a[i] <= a[i-1] {
				t.Fatalf("%s: arrivals not strictly increasing at %d", spec, i)
			}
		}
		c := o.ArrivalTimes(3, 43, 500)
		d := o.ArrivalTimes(4, 42, 500)
		if a[0] == c[0] && a[1] == c[1] && a[2] == c[2] {
			t.Errorf("%s: seed does not decorrelate arrivals", spec)
		}
		if a[0] == d[0] && a[1] == d[1] && a[2] == d[2] {
			t.Errorf("%s: coreID does not decorrelate arrivals", spec)
		}
	}
}

// TestArrivalMeanRate: all three processes are mean-normalized — over a
// long horizon the empirical rate approaches the configured one (the
// MMPP stationary normalization and the burst ON/OFF symmetry).
func TestArrivalMeanRate(t *testing.T) {
	const n = 20000
	for _, spec := range []string{
		"opensys:arrival=poisson,rate=2",
		"opensys:arrival=mmpp,rate=2",
		"opensys:arrival=burst,rate=2",
		"opensys:arrival=poisson,rate=2,phases=1.5x3000;0.5x3000",
	} {
		o, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		// Average over several independent streams so mmpp/burst dwell
		// correlation does not dominate the estimate.
		var total, span float64
		for core := 0; core < 8; core++ {
			ts := o.ArrivalTimes(core, 7, n)
			total += float64(len(ts))
			span += ts[len(ts)-1]
		}
		got := total / span * 1000 // requests per kcycle
		if math.Abs(got-2) > 0.25 {
			t.Errorf("%s: empirical rate %.3f req/kcycle, want ~2", spec, got)
		}
	}
}

// TestBurstBurstiness: the burst process at high Hurst is more variable
// than Poisson — the index of dispersion of interval counts must be
// clearly above 1 (Poisson's value).
func TestBurstBurstiness(t *testing.T) {
	idc := func(spec string) float64 {
		o, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		ts := o.ArrivalTimes(0, 11, 40000)
		const win = 1000.0
		counts := map[int]float64{}
		for _, x := range ts {
			counts[int(x/win)]++
		}
		last := int(ts[len(ts)-1] / win)
		var mean, m2 float64
		for i := 0; i < last; i++ {
			mean += counts[i]
		}
		mean /= float64(last)
		for i := 0; i < last; i++ {
			d := counts[i] - mean
			m2 += d * d
		}
		return m2 / float64(last) / mean
	}
	poisson := idc("opensys:arrival=poisson,rate=2")
	burst := idc("opensys:arrival=burst,rate=2,hurst=0.9")
	mmpp := idc("opensys:arrival=mmpp,rate=2")
	if poisson > 1.6 {
		t.Errorf("poisson dispersion %.2f, want ~1", poisson)
	}
	if burst < poisson*1.2 {
		t.Errorf("burst dispersion %.2f not above poisson %.2f", burst, poisson)
	}
	if mmpp < poisson*1.5 {
		t.Errorf("mmpp dispersion %.2f not clearly above poisson %.2f", mmpp, poisson)
	}
}

// TestSkewWeights: every skew is mean-1 over the grid, and hotspot
// concentrates the configured fraction.
func TestSkewWeights(t *testing.T) {
	for _, cfg := range []Config{
		{Skew: "uniform"},
		{Skew: "hotspot", Hot: 4, HotFrac: 0.5},
		{Skew: "transpose"},
	} {
		o, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, w := range o.weights {
			if w < 0 {
				t.Fatalf("%s: negative weight", cfg.Skew)
			}
			sum += w
		}
		if math.Abs(sum/float64(len(o.weights))-1) > 1e-9 {
			t.Errorf("%s: weights mean %.6f, want 1", cfg.Skew, sum/float64(len(o.weights)))
		}
	}
	hot, _ := New(Config{Skew: "hotspot", Hot: 4, HotFrac: 0.5})
	var hotSum float64
	for i := 0; i < 4; i++ {
		hotSum += hot.weights[i]
	}
	if math.Abs(hotSum/64-0.5) > 1e-9 {
		t.Errorf("hotspot cores carry %.3f of the load, want 0.5", hotSum/64)
	}
}

// TestStreamLifecycle drives one stream by hand through NextAt/OnRetire
// and checks the request accounting: dispatch order, completion
// latency, queue sampling, and drops under a full queue.
func TestStreamLifecycle(t *testing.T) {
	o, err := Parse("opensys:rate=5,size=4,queue=2,base=data-serving")
	if err != nil {
		t.Fatal(err)
	}
	s := o.StreamFor(0, 9).(*openStream)
	retired := int64(0)
	now := sim.Cycle(0)
	for ; now < 50000; now++ {
		in := s.NextAt(now)
		if in.Kind == cpu.KindIdle {
			continue
		}
		// Commit immediately: a zero-latency pipeline.
		retired++
		s.OnRetire(now, 1)
	}
	st := s.OpenSnapshot()
	if st.Arrivals == 0 {
		t.Fatal("no arrivals in 50k cycles at rate 5/kcycle")
	}
	if st.Dispatched == 0 || st.Completed == 0 {
		t.Fatalf("lifecycle stalled: %+v", st)
	}
	if st.Completed > st.Dispatched || st.Dispatched > st.Arrivals-st.Dropped {
		t.Fatalf("conservation violated: %+v", st)
	}
	if got := st.Hist.Count(); got != st.Completed {
		t.Fatalf("histogram holds %d samples, %d completed", got, st.Completed)
	}
	// With instant service and queue 2 at rate 5/kcycle, drops are
	// possible but rare; latency must be small and non-negative.
	if st.Hist.Max() > 10000 {
		t.Fatalf("implausible latency %d cy for instant service", st.Hist.Max())
	}

	// OpenReset zeroes counters but keeps in-flight state.
	s.OpenReset()
	st = s.OpenSnapshot()
	if st.Arrivals != 0 || st.Completed != 0 || st.Hist.Count() != 0 {
		t.Fatalf("reset left counters: %+v", st)
	}
}

// TestStreamDrops: a size-1 queue under overload drops and counts.
func TestStreamDrops(t *testing.T) {
	o, err := Parse("opensys:rate=50,size=512,queue=1")
	if err != nil {
		t.Fatal(err)
	}
	s := o.StreamFor(0, 1).(*openStream)
	for now := sim.Cycle(0); now < 20000; now++ {
		s.NextAt(now) // never retire: the server wedges after one request
	}
	st := s.OpenSnapshot()
	if st.Dropped == 0 {
		t.Fatalf("no drops under 25x overload with queue=1: %+v", st)
	}
	if st.Arrivals != st.Dropped+st.Dispatched+int64(len(s.queue)) {
		t.Fatalf("arrival conservation violated: %+v (queue %d)", st, len(s.queue))
	}
}

// TestIdleUntilContract: IdleUntil names exactly the first cycle at which
// NextAt stops answering KindIdle — the cycle an idle core sleeps until —
// across every arrival process and a schedule with a zero phase, and it
// reports "tick me" while a request is served or queued.
func TestIdleUntilContract(t *testing.T) {
	for _, spec := range []string{
		"opensys:arrival=poisson,rate=3,size=1",
		"opensys:arrival=mmpp,rate=3,size=1",
		"opensys:arrival=burst,rate=3,size=1",
		"opensys:arrival=poisson,rate=3,size=1,phases=1.5x4000;0x4000",
		"opensys:arrival=burst,rate=20,size=3,queue=2,phases=2x300;0x700",
	} {
		o, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		s := o.StreamFor(1, 7).(*openStream)
		now := sim.Cycle(0)
		for served := 0; served < 2000; {
			at := s.IdleUntil()
			if at <= now || at == sim.NeverWake {
				t.Fatalf("%s: idle stream at cycle %d reports IdleUntil %d", spec, now, at)
			}
			if in := s.NextAt(at - 1); in.Kind != cpu.KindIdle {
				t.Fatalf("%s: NextAt(%d) answered work before IdleUntil %d", spec, at-1, at)
			}
			now = at
			if in := s.NextAt(now); in.Kind == cpu.KindIdle {
				t.Fatalf("%s: NextAt(IdleUntil=%d) answered KindIdle", spec, now)
			}
			// Drain the request and any queued behind it on this cycle.
			for s.serving || len(s.queue) > 0 {
				if got := s.IdleUntil(); got > now {
					t.Fatalf("%s: IdleUntil %d > now %d with a request served or queued", spec, got, now)
				}
				if in := s.NextAt(now); in.Kind == cpu.KindIdle {
					t.Fatalf("%s: KindIdle at cycle %d with work pending", spec, now)
				}
			}
			served++
		}
	}
}

// TestIdleUntilNever: a stream whose next arrival never comes (a zero
// offered load) or lies beyond the cycle range reports sim.NeverWake, not
// an integer conversion of +Inf.
func TestIdleUntilNever(t *testing.T) {
	o, err := Parse("opensys:rate=2")
	if err != nil {
		t.Fatal(err)
	}
	s := o.WithOfferedLoad(0).StreamFor(0, 1).(*openStream)
	if in := s.NextAt(1); in.Kind != cpu.KindIdle {
		t.Fatalf("zero-rate stream served %+v", in)
	}
	if got := s.IdleUntil(); got != sim.NeverWake {
		t.Fatalf("zero-rate stream IdleUntil = %d, want NeverWake", got)
	}
	s.nextArr = 1e19 // past math.MaxInt64 cycles
	if got := s.IdleUntil(); got != sim.NeverWake {
		t.Fatalf("IdleUntil past the cycle range = %d, want NeverWake", got)
	}
}

// TestUntimedNextFallback: Next() (conformance, capture recording) is
// deterministic and eventually produces service instructions.
func TestUntimedNextFallback(t *testing.T) {
	w, err := workload.Parse("open-poisson")
	if err != nil {
		t.Fatal(err)
	}
	a, b := w.StreamFor(2, 5), w.StreamFor(2, 5)
	work := 0
	for i := 0; i < 5000; i++ {
		x, y := a.Next(), b.Next()
		if x != y {
			t.Fatalf("untimed streams diverged at %d", i)
		}
		if x.Kind != cpu.KindIdle {
			work++
		}
	}
	if work == 0 {
		t.Fatal("untimed stream yielded no service instructions in 5000 cycles")
	}
}

// TestFingerprint: stable across instances, sensitive to every
// behavioral knob, and carries the base workload's fingerprint.
func TestFingerprint(t *testing.T) {
	fp := func(spec string) []byte {
		o, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := workload.Fingerprint(o)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	base := "opensys:arrival=poisson,rate=2"
	if !bytes.Equal(fp(base), fp(base)) {
		t.Fatal("fingerprint not stable across instances")
	}
	for _, other := range []string{
		"opensys:arrival=mmpp,rate=2",
		"opensys:arrival=poisson,rate=4",
		"opensys:arrival=poisson,rate=2,size=128",
		"opensys:arrival=poisson,rate=2,base=web-search",
		"opensys:arrival=poisson,rate=2,skew=hotspot",
	} {
		if bytes.Equal(fp(base), fp(other)) {
			t.Errorf("fingerprint blind to %q", other)
		}
	}
	if !bytes.Contains(fp(base), []byte("synth:")) {
		t.Error("fingerprint must embed the base workload's structural fingerprint")
	}
}

// TestRateScaled: WithOfferedLoad derives spec-named copies and leaves
// the receiver untouched.
func TestRateScaled(t *testing.T) {
	w, err := workload.Parse("Open Poisson")
	if err != nil {
		t.Fatal(err)
	}
	rs, ok := workload.RateScaledOf(w)
	if !ok {
		t.Fatal("registered Open default is not RateScaled")
	}
	if rs.OfferedLoad() != 2 {
		t.Fatalf("default offered load = %v, want 2", rs.OfferedLoad())
	}
	d := rs.WithOfferedLoad(7.5)
	if w.Name() != "Open Poisson" {
		t.Fatal("WithOfferedLoad mutated the registered instance")
	}
	if !strings.Contains(d.Name(), "rate=7.5") || !strings.HasPrefix(d.Name(), "opensys:") {
		t.Fatalf("derived name %q must be a spec carrying the rate", d.Name())
	}
	back, err := workload.Parse(d.Name())
	if err != nil {
		t.Fatalf("derived name does not rehydrate: %v", err)
	}
	if rs2, _ := workload.RateScaledOf(back); rs2.OfferedLoad() != 7.5 {
		t.Fatalf("rehydrated load = %v, want 7.5", rs2.OfferedLoad())
	}
}

// TestDelegation: core calibration, layout, and scalability come from
// the base workload.
func TestDelegation(t *testing.T) {
	o, err := Parse("opensys:base=web-search")
	if err != nil {
		t.Fatal(err)
	}
	base, err := workload.Parse("web-search")
	if err != nil {
		t.Fatal(err)
	}
	if o.MaxCores() != base.MaxCores() {
		t.Errorf("MaxCores %d, want base's %d", o.MaxCores(), base.MaxCores())
	}
	if o.CoreParams(3, 9) != base.CoreParams(3, 9) {
		t.Error("CoreParams must delegate to the base")
	}
	if o.Layout().Instr != base.Layout().Instr {
		t.Error("Layout must delegate to the base")
	}
}

// TestStateRejectsImpossibleArrivals spoils one arrival value of a
// running MMPP stream with a diurnal schedule at a time, saves it, and
// requires the load to fail with an error that names the value. A clock
// of -1e300 that loaded would hang the next NextAt in its arrival loop.
func TestStateRejectsImpossibleArrivals(t *testing.T) {
	o, err := Parse("opensys:arrival=mmpp,rate=4,size=8,phases=1.5x4000;0.5x4000")
	if err != nil {
		t.Fatal(err)
	}
	load := func(spoil func(s *openStream)) error {
		s := o.StreamFor(0, 3).(*openStream)
		for now := sim.Cycle(0); now < 3000; now++ {
			s.NextAt(now)
		}
		spoil(s)
		var enc ckpt.Enc
		s.State(ckpt.Encoding(&enc))
		d := ckpt.NewDec(enc.Bytes())
		o.StreamFor(0, 3).(*openStream).State(ckpt.Decoding(d))
		return d.Err()
	}
	for name, spoil := range map[string]func(s *openStream){
		"nothing":                     func(*openStream) {},
		"a never-arriving next (Inf)": func(s *openStream) { s.nextArr = math.Inf(1) },
	} {
		if err := load(spoil); err != nil {
			t.Fatalf("spoiling %s: %v", name, err)
		}
	}
	mmpp := func(s *openStream) *modulator { return s.arr.mods[0] }
	diurnal := func(s *openStream) *modulator { return s.arr.mods[1] }
	for _, tc := range []struct {
		name  string
		spoil func(s *openStream)
		want  string
	}{
		{"NaN clock", func(s *openStream) { s.arr.t = math.NaN() }, "arrival clock"},
		{"infinite clock", func(s *openStream) { s.arr.t = math.Inf(1) }, "arrival clock"},
		{"negative clock", func(s *openStream) { s.arr.t = -1e300 }, "arrival clock"},
		{"NaN next arrival", func(s *openStream) { s.nextArr = math.NaN() }, "next arrival"},
		{"negative next arrival", func(s *openStream) { s.nextArr = -1 }, "next arrival"},
		{"NaN multiplier", func(s *openStream) { mmpp(s).mult = math.NaN() }, "modulator multiplier"},
		{"negative multiplier", func(s *openStream) { diurnal(s).mult = -0.5 }, "modulator multiplier"},
		{"NaN time left", func(s *openStream) { diurnal(s).left = math.NaN() }, "modulator time left"},
		{"negative time left", func(s *openStream) { mmpp(s).left = -1 }, "modulator time left"},
		{"phase past the schedule", func(s *openStream) { diurnal(s).phase = 2 }, "modulator phase"},
		{"negative phase", func(s *openStream) { diurnal(s).phase = -1 }, "modulator phase"},
		{"MMPP phase past its two", func(s *openStream) { mmpp(s).phase = 2 }, "modulator phase"},
	} {
		if err := load(tc.spoil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: load returned %v, want an error naming the %s", tc.name, err, tc.want)
		}
	}
}
