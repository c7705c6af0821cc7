package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2, 5})
	if s.Count != 5 || s.Mean != 3 || s.Median != 3 || s.Min != 1 || s.Max != 5 {
		t.Errorf("summary = %+v", s)
	}
	// Sample standard deviation of 1..5 is sqrt(2.5).
	if math.Abs(s.StdDev-math.Sqrt(2.5)) > 1e-12 {
		t.Errorf("stddev = %v", s.StdDev)
	}
	if z := Summarize(nil); z.Count != 0 {
		t.Errorf("empty summary = %+v", z)
	}
	if one := Summarize([]float64{7}); one.Median != 7 || one.StdDev != 0 {
		t.Errorf("single summary = %+v", one)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q := Quantile(xs, 0); q != 1 {
		t.Errorf("q0 = %v", q)
	}
	if q := Quantile(xs, 1); q != 10 {
		t.Errorf("q1 = %v", q)
	}
	if q := Quantile(xs, 0.5); q != 5.5 {
		t.Errorf("median = %v", q)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile not NaN")
	}
	if !math.IsNaN(Quantile(xs, -0.1)) || !math.IsNaN(Quantile(xs, 1.1)) {
		t.Error("out-of-range q not NaN")
	}
	// Quantile must not mutate its input.
	unsorted := []float64{3, 1, 2}
	Quantile(unsorted, 0.5)
	if unsorted[0] != 3 {
		t.Error("input mutated")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	err := quick.Check(func(n uint8) bool {
		xs := make([]float64, int(n%50)+2)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		q1, q2 := rng.Float64(), rng.Float64()
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		return Quantile(xs, q1) <= Quantile(xs, q2)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

func TestCDF(t *testing.T) {
	pts := CDF([]float64{1, 2, 2, 3})
	want := []CDFPoint{{1, 0.25}, {2, 0.75}, {3, 1.0}}
	if len(pts) != len(want) {
		t.Fatalf("cdf = %v", pts)
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Errorf("cdf[%d] = %v, want %v", i, pts[i], want[i])
		}
	}
	if CDF(nil) != nil {
		t.Error("empty cdf not nil")
	}
	// CDF is non-decreasing and ends at 1.
	if last := pts[len(pts)-1]; last.Fraction != 1 {
		t.Errorf("cdf end = %v", last)
	}
}

func TestFractionBelow(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	if f := FractionBelow(xs, 30); f != 0.6 {
		t.Errorf("fraction = %v", f)
	}
	if f := FractionBelow(xs, 5); f != 0 {
		t.Errorf("fraction = %v", f)
	}
	if f := FractionBelow(xs, 100); f != 1 {
		t.Errorf("fraction = %v", f)
	}
	if f := FractionBelow(nil, 1); f != 0 {
		t.Errorf("empty fraction = %v", f)
	}
}

func TestRollingMedian(t *testing.T) {
	series := []TimePoint{
		{0.0, 10}, {0.5, 20}, {1.0, 30}, {2.0, 40}, {2.1, 1000},
	}
	out, err := RollingMedian(series, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(series) {
		t.Fatalf("out = %v", out)
	}
	// At t=1.0 the window covers {10,20,30}: median 20.
	if out[2].Value != 20 {
		t.Errorf("rolling[2] = %v", out[2])
	}
	// At t=2.0 the window covers {30,40}: median 35.
	if out[3].Value != 35 {
		t.Errorf("rolling[3] = %v", out[3])
	}
	// At t=2.1 the window covers {40,1000}: median 520 (spike damped
	// relative to raw value 1000).
	if out[4].Value != 520 {
		t.Errorf("rolling[4] = %v", out[4])
	}
}

func TestRollingMedianErrors(t *testing.T) {
	if _, err := RollingMedian([]TimePoint{{0, 1}}, 0); err == nil {
		t.Error("accepted zero window")
	}
	if _, err := RollingMedian([]TimePoint{{1, 1}, {0, 1}}, 1); err == nil {
		t.Error("accepted unsorted series")
	}
	out, err := RollingMedian(nil, 1)
	if err != nil || len(out) != 0 {
		t.Errorf("empty series = %v, %v", out, err)
	}
}

func TestMean(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Errorf("mean = %v", m)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("empty mean not NaN")
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Error("Summarize mutated input")
	}
}

func BenchmarkSummarize(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Summarize(xs)
	}
}

func BenchmarkRollingMedian(b *testing.B) {
	series := make([]TimePoint, 5000)
	rng := rand.New(rand.NewSource(3))
	for i := range series {
		series[i] = TimePoint{T: float64(i) * 0.05, Value: rng.Float64() * 100}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RollingMedian(series, 1.0); err != nil {
			b.Fatal(err)
		}
	}
}
