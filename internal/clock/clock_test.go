package clock

import (
	"math"
	"sort"
	"testing"

	"celestial/internal/rng"
)

func TestProcessingDelayModelCalibration(t *testing.T) {
	m := DefaultProcessingDelay()
	rnd := rng.New(42)
	n := 200000
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = m.Sample(rnd).Seconds() * 1000 // ms
	}
	sort.Float64s(samples)
	median := samples[n/2]
	// §4.1: 1.37 ms median.
	if math.Abs(median-1.37) > 0.05 {
		t.Errorf("median = %.3f ms, want ≈1.37", median)
	}
	mean := 0.0
	for _, s := range samples {
		mean += s
	}
	mean /= float64(n)
	varSum := 0.0
	for _, s := range samples {
		varSum += (s - mean) * (s - mean)
	}
	sd := math.Sqrt(varSum / float64(n-1))
	// §4.1: 3.86 ms standard deviation. The heavy-tailed log-normal
	// makes the empirical SD noisy, so allow a generous band.
	if sd < 2.5 || sd > 5.5 {
		t.Errorf("stddev = %.3f ms, want ≈3.86", sd)
	}
	// All delays are positive.
	if samples[0] <= 0 {
		t.Errorf("min sample = %v", samples[0])
	}
}

func TestProcessingDelayAnalytic(t *testing.T) {
	m := DefaultProcessingDelay()
	if got := m.StdDev(); math.Abs(got.Seconds()*1000-3.86) > 0.3 {
		t.Errorf("analytic stddev = %v, want ≈3.86 ms", got)
	}
	if m.Mean() <= m.Median {
		t.Error("log-normal mean should exceed median")
	}
	var zero ProcessingDelayModel
	if zero.Sample(rng.New(1)) != 0 || zero.Mean() != 0 || zero.StdDev() != 0 {
		t.Error("zero model should produce zero delays")
	}
}

func TestProcessingDelayDeterministicWithSeed(t *testing.T) {
	m := DefaultProcessingDelay()
	a := m.Sample(rng.New(7))
	b := m.Sample(rng.New(7))
	if a != b {
		t.Error("same seed produced different samples")
	}
}
