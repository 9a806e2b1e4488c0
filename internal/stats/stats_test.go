package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRunningMeanVariance(t *testing.T) {
	var r Running
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if r.N() != 8 {
		t.Fatalf("N = %d", r.N())
	}
	if math.Abs(r.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", r.Mean())
	}
	// Population variance of this classic set is 4; sample variance 32/7.
	if math.Abs(r.Variance()-32.0/7.0) > 1e-12 {
		t.Fatalf("variance = %v, want %v", r.Variance(), 32.0/7.0)
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Fatalf("min/max = %v/%v", r.Min(), r.Max())
	}
}

func TestRunningCI95ShrinksWithSamples(t *testing.T) {
	var small, large Running
	for i := 0; i < 10; i++ {
		small.Add(float64(i % 3))
	}
	for i := 0; i < 1000; i++ {
		large.Add(float64(i % 3))
	}
	if large.CI95() >= small.CI95() {
		t.Fatalf("CI should shrink: small=%v large=%v", small.CI95(), large.CI95())
	}
	var one Running
	one.Add(1)
	if !math.IsInf(one.CI95(), 1) {
		t.Fatal("CI with one sample should be infinite")
	}
}

func TestRunningMatchesDirectComputation(t *testing.T) {
	err := quick.Check(func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		var r Running
		sum := 0.0
		for _, b := range raw {
			r.Add(float64(b))
			sum += float64(b)
		}
		mean := sum / float64(len(raw))
		ss := 0.0
		for _, b := range raw {
			d := float64(b) - mean
			ss += d * d
		}
		wantVar := ss / float64(len(raw)-1)
		return math.Abs(r.Mean()-mean) < 1e-9 && math.Abs(r.Variance()-wantVar) < 1e-6
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 100}); math.Abs(g-10) > 1e-9 {
		t.Fatalf("GeoMean = %v, want 10", g)
	}
	if g := GeoMean([]float64{3, 3, 3}); math.Abs(g-3) > 1e-9 {
		t.Fatalf("GeoMean = %v, want 3", g)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("GeoMean(nil) should be 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("GeoMean must reject non-positive values")
		}
	}()
	GeoMean([]float64{1, 0})
}

func TestNormalizeTo(t *testing.T) {
	got := NormalizeTo([]float64{2, 6}, []float64{2, 3})
	if got[0] != 1 || got[1] != 2 {
		t.Fatalf("NormalizeTo = %v", got)
	}
}

func TestMedian(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("Median odd = %v", m)
	}
	if m := Median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Fatalf("Median even = %v", m)
	}
	if Median(nil) != 0 {
		t.Fatal("Median(nil) should be 0")
	}
}
