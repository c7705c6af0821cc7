package lstm

import (
	"math"
	"testing"
)

func defaultConfig() Config {
	return Config{InputSize: 4, HiddenSizes: []int{16, 8}, OutputSize: 2, Seed: 7}
}

func seq(n, features int) [][]float64 {
	s := make([][]float64, n)
	for i := range s {
		s[i] = make([]float64, features)
		for j := range s[i] {
			s[i][j] = math.Sin(float64(i*features+j) * 0.1)
		}
	}
	return s
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{InputSize: 0, HiddenSizes: []int{4}, OutputSize: 1},
		{InputSize: 4, HiddenSizes: nil, OutputSize: 1},
		{InputSize: 4, HiddenSizes: []int{0}, OutputSize: 1},
		{InputSize: 4, HiddenSizes: []int{4}, OutputSize: 0},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := New(defaultConfig()); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestInferShapeAndDeterminism(t *testing.T) {
	n, err := New(defaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if n.inputSize != 4 || n.outputSize != 2 {
		t.Errorf("sizes = %d, %d", n.inputSize, n.outputSize)
	}
	out1, err := n.Infer(seq(10, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(out1) != 2 {
		t.Fatalf("output = %v", out1)
	}
	// Deterministic for identical inputs and seed.
	out2, err := n.Infer(seq(10, 4))
	if err != nil {
		t.Fatal(err)
	}
	for i := range out1 {
		if out1[i] != out2[i] {
			t.Errorf("non-deterministic output: %v vs %v", out1, out2)
		}
	}
	// Different seeds give different networks.
	cfg := defaultConfig()
	cfg.Seed = 8
	other, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out3, err := other.Infer(seq(10, 4))
	if err != nil {
		t.Fatal(err)
	}
	if out1[0] == out3[0] {
		t.Error("different seeds produced identical outputs")
	}
}

func TestInferErrors(t *testing.T) {
	n, err := New(defaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Infer(nil); err == nil {
		t.Error("accepted empty sequence")
	}
	if _, err := n.Infer([][]float64{{1, 2}}); err == nil {
		t.Error("accepted wrong feature count")
	}
}

func TestOutputsBoundedForBoundedInput(t *testing.T) {
	// LSTM hidden states are bounded in (-1, 1); with unit-scale output
	// weights the prediction magnitude stays small for bounded inputs.
	n, err := New(defaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	out, err := n.Infer(seq(100, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 10 {
			t.Errorf("unstable output %v", out)
		}
	}
}

func TestInputSensitivity(t *testing.T) {
	n, err := New(defaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, err := n.Infer(seq(10, 4))
	if err != nil {
		t.Fatal(err)
	}
	s := seq(10, 4)
	s[9][0] += 1.0
	b, err := n.Infer(s)
	if err != nil {
		t.Fatal(err)
	}
	if a[0] == b[0] && a[1] == b[1] {
		t.Error("network output insensitive to input change")
	}
}

func TestLongSequenceStability(t *testing.T) {
	n, err := New(Config{InputSize: 2, HiddenSizes: []int{8}, OutputSize: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	out, err := n.Infer(seq(2000, 2))
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(out[0]) || math.IsInf(out[0], 0) {
		t.Errorf("long sequence diverged: %v", out)
	}
}

func TestFLOPs(t *testing.T) {
	n, err := New(defaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f1 := n.FLOPs(1)
	f10 := n.FLOPs(10)
	if f1 <= 0 {
		t.Fatalf("flops = %d", f1)
	}
	// Nearly linear in sequence length (the output head is constant).
	if f10 < 9*f1 || f10 > 10*f1 {
		t.Errorf("flops(10) = %d vs flops(1) = %d", f10, f1)
	}
}

func BenchmarkInfer(b *testing.B) {
	n, err := New(Config{InputSize: 8, HiddenSizes: []int{64, 32}, OutputSize: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	s := seq(30, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Infer(s); err != nil {
			b.Fatal(err)
		}
	}
}
