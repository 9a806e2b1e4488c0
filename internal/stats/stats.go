// Package stats provides the measurement machinery used by the evaluation
// harness: geometric means, normalization, and the mergeable log-bucketed
// latency histogram LogHist. The harness replaces the paper's SimFlex
// statistical sampling with warm-up + measurement windows over multiple
// seeds.
package stats

import (
	"fmt"
	"math"
)

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
