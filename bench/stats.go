package main

import (
	"math"
	"sort"

	"celestial/internal/stats"
)

// minBeyond is the percentile rule's sample floor: a percentile is reported
// only when at least this many samples lie beyond it, so a "p95" is never
// one or two outliers in disguise.
const minBeyond = 10

// supported reports whether a sample of n observations carries the
// q-quantile under the percentile rule.
func supported(n int, q float64) bool {
	return float64(n)*(1-q) >= minBeyond
}

// percentile returns the q-quantile of xs (linear interpolation, the same
// estimator the run report uses) and whether the sample is large enough to
// report it. The median is exempt from the rule: it has half the sample on
// either side.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	if q > 0.5 && !supported(len(xs), q) {
		return 0, false
	}
	return stats.Quantile(xs, q), true
}

// median is percentile(xs, 0.5) for callers that know xs is non-empty.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// quartiles returns the first, second and third quartile of xs by the
// exclusive method — Python's statistics.quantiles(xs, n=4), which is what
// the acceptance protocol computes spreads with. It needs two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		// Position k*(n+1)/4 on a 1-based scale; at the sample's edges
		// the clamped index makes delta leave [0, 4], extrapolating
		// exactly as Python does.
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3), true
}

// spread is the interquartile range as a share of the median: the
// run-to-run noise figure every bound is judged against.
func spread(xs []float64) (float64, bool) {
	q1, q2, q3, ok := quartiles(xs)
	if !ok || q2 == 0 {
		return 0, false
	}
	return math.Abs(q3-q1) / math.Abs(q2), true
}

// msOf converts nanoseconds to milliseconds.
func msOf(ns int64) float64 { return float64(ns) / 1e6 }
