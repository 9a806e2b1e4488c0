// Package stats provides the measurement machinery used by the evaluation
// harness: running mean/variance, confidence intervals, geometric means and
// the mergeable log-bucketed latency histogram LogHist. It replaces the
// paper's SimFlex statistical sampling with warm-up + measurement windows
// over multiple seeds.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Running accumulates a stream of samples with Welford's algorithm.
type Running struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one sample.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the sample count.
func (r *Running) N() int64 { return r.n }

// Mean returns the sample mean (0 with no samples).
func (r *Running) Mean() float64 { return r.mean }

// Min returns the smallest sample seen.
func (r *Running) Min() float64 { return r.min }

// Max returns the largest sample seen.
func (r *Running) Max() float64 { return r.max }

// Variance returns the unbiased sample variance.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// CI95 returns the half-width of the 95% confidence interval on the mean,
// using the normal approximation (the harness takes >=30 samples before
// quoting intervals, matching the paper's "95% confidence, <4% error").
func (r *Running) CI95() float64 {
	if r.n < 2 {
		return math.Inf(1)
	}
	return 1.96 * r.StdDev() / math.Sqrt(float64(r.n))
}

// String formats the mean with its confidence half-width.
func (r *Running) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", r.Mean(), r.CI95(), r.n)
}

// GeoMean returns the geometric mean of xs. All values must be positive.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: GeoMean of non-positive value %v", x))
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// NormalizeTo divides each value by base[i] and returns the ratios; it is
// the helper behind every "normalized to mesh" figure.
func NormalizeTo(vals, base []float64) []float64 {
	if len(vals) != len(base) {
		panic("stats: NormalizeTo length mismatch")
	}
	out := make([]float64, len(vals))
	for i := range vals {
		if base[i] == 0 {
			panic("stats: NormalizeTo zero base")
		}
		out[i] = vals[i] / base[i]
	}
	return out
}

// Median of a slice (copy, sort, middle). Used by multi-seed harnesses.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
