package rng

import (
	"math"
	"testing"
)

func TestDeterministicAndSeedSensitive(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := New(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if New(42).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds collided %d times", same)
	}
}

func TestStateRoundTrip(t *testing.T) {
	s := New(7)
	for i := 0; i < 123; i++ {
		s.Uint64()
	}
	saved := s.State()
	want := []uint64{s.Uint64(), s.Uint64(), s.Uint64()}
	r := &Stream{state: saved}
	for i, w := range want {
		if g := r.Uint64(); g != w {
			t.Fatalf("restored stream draw %d = %d, want %d", i, g, w)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(1)
	for i := 0; i < 100000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v outside [0, 1)", v)
		}
	}
}

func TestExpFloat64MeanAndFinite(t *testing.T) {
	s := New(2)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.ExpFloat64()
		if v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("ExpFloat64 = %v", v)
		}
		sum += v
	}
	if mean := sum / n; mean < 0.98 || mean > 1.02 {
		t.Errorf("ExpFloat64 mean = %v, want ~1", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(3)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) hit only %d values", len(seen))
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(4)
	const n = 100000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("NormFloat64 = %v", v)
		}
		sum += v
		sq += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sq/n - mean*mean)
	if math.Abs(mean) > 0.02 || math.Abs(sd-1) > 0.02 {
		t.Errorf("NormFloat64 mean %v, σ %v; want 0, 1 within 0.02", mean, sd)
	}
}

func TestNormFloat64DeterministicTwoStepsPerCall(t *testing.T) {
	a, b := New(5), New(5)
	var step uint64 = gamma
	for i := 0; i < 1000; i++ {
		before := a.State()
		if x, y := a.NormFloat64(), b.NormFloat64(); x != y {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, x, y)
		}
		if got := a.State() - before; got != 2*step {
			t.Fatalf("draw %d advanced the state by %#x, want two steps", i, got)
		}
	}
}
