// Package stats provides the statistics used to evaluate testbed runs:
// summaries (mean, median, standard deviation, percentiles), empirical
// CDFs as plotted in Fig. 4 of the paper, and the 1-second rolling median
// used in Figs. 5 and 6.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample of float64 observations.
type Summary struct {
	Count  int
	Mean   float64
	Median float64
	StdDev float64
	Min    float64
	Max    float64
	P95    float64
	P99    float64
}

// Summarize computes a Summary. An empty sample yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)

	sum := 0.0
	for _, x := range s {
		sum += x
	}
	mean := sum / float64(len(s))
	varSum := 0.0
	for _, x := range s {
		varSum += (x - mean) * (x - mean)
	}
	sd := 0.0
	if len(s) > 1 {
		sd = math.Sqrt(varSum / float64(len(s)-1))
	}
	return Summary{
		Count:  len(s),
		Mean:   mean,
		Median: quantileSorted(s, 0.5),
		StdDev: sd,
		Min:    s[0],
		Max:    s[len(s)-1],
		P95:    quantileSorted(s, 0.95),
		P99:    quantileSorted(s, 0.99),
	}
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of the sample using linear
// interpolation. It returns NaN for empty input or out-of-range q.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// CDFPoint is one step of an empirical cumulative distribution.
type CDFPoint struct {
	Value float64
	// Fraction is the fraction of samples ≤ Value.
	Fraction float64
}

// CDF computes the empirical cumulative distribution of a sample, one point
// per distinct value.
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	var out []CDFPoint
	n := float64(len(s))
	for i := 0; i < len(s); i++ {
		// Collapse runs of equal values to the final (highest) fraction.
		if i+1 < len(s) && s[i+1] == s[i] {
			continue
		}
		out = append(out, CDFPoint{Value: s[i], Fraction: float64(i+1) / n})
	}
	return out
}

// FractionBelow returns the fraction of samples that are ≤ limit.
func FractionBelow(xs []float64, limit float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x <= limit {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// TimePoint is a timestamped observation (time in seconds).
type TimePoint struct {
	T     float64
	Value float64
}

// RollingMedian computes the windowed rolling median of a time series: for
// each input point, the median of all points within [t-window, t]. The
// input must be sorted by time; an error is returned otherwise. This is the
// "1 s rolling median" of Figs. 5 and 6.
func RollingMedian(series []TimePoint, window float64) ([]TimePoint, error) {
	if window <= 0 {
		return nil, fmt.Errorf("stats: window must be positive, have %v", window)
	}
	out := make([]TimePoint, 0, len(series))
	start := 0
	var buf []float64
	for i, p := range series {
		if i > 0 && p.T < series[i-1].T {
			return nil, fmt.Errorf("stats: series not sorted at index %d (%v after %v)",
				i, p.T, series[i-1].T)
		}
		for series[start].T < p.T-window {
			start++
		}
		buf = buf[:0]
		for j := start; j <= i; j++ {
			buf = append(buf, series[j].Value)
		}
		sort.Float64s(buf)
		out = append(out, TimePoint{T: p.T, Value: quantileSorted(buf, 0.5)})
	}
	return out, nil
}

// Mean returns the arithmetic mean, or NaN for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
