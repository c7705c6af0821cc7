// Package lstm implements stacked long short-term memory (LSTM) network
// inference. The paper's case study (§5) predicts weather and
// environmental events from buoy sensor readings "with a long short-term
// memory (LSTM) neural network" using "a TensorFlow stacked LSTM network";
// this package is the from-scratch substitute that provides the same
// compute stage inside the testbed.
//
// Only the forward pass is implemented — the experiment measures
// end-to-end latency of inference, not training. Weights are initialized
// deterministically from a seed so that experiment runs are reproducible.
//
// The layer follows the standard LSTM formulation:
//
//	i_t = σ(W_i x_t + U_i h_{t-1} + b_i)    input gate
//	f_t = σ(W_f x_t + U_f h_{t-1} + b_f)    forget gate
//	o_t = σ(W_o x_t + U_o h_{t-1} + b_o)    output gate
//	g_t = tanh(W_g x_t + U_g h_{t-1} + b_g) cell candidate
//	c_t = f_t ∘ c_{t-1} + i_t ∘ g_t
//	h_t = o_t ∘ tanh(c_t)
package lstm

import (
	"fmt"
	"math"

	"celestial/internal/rng"
)

// Layer is one LSTM layer's weights.
type Layer struct {
	inputSize  int
	hiddenSize int
	// Gate weight matrices, stored row-major as [hidden][input] and
	// [hidden][hidden], plus biases. Order: input, forget, output,
	// candidate.
	wx [4][]float64
	wh [4][]float64
	b  [4][]float64
}

// newLayer initializes a layer with small random weights from rnd.
func newLayer(inputSize, hiddenSize int, rnd *rng.Stream) *Layer {
	l := &Layer{inputSize: inputSize, hiddenSize: hiddenSize}
	scale := 1.0 / math.Sqrt(float64(inputSize+hiddenSize))
	for g := 0; g < 4; g++ {
		l.wx[g] = make([]float64, hiddenSize*inputSize)
		l.wh[g] = make([]float64, hiddenSize*hiddenSize)
		l.b[g] = make([]float64, hiddenSize)
		for i := range l.wx[g] {
			l.wx[g][i] = (2*rnd.Float64() - 1) * scale
		}
		for i := range l.wh[g] {
			l.wh[g][i] = (2*rnd.Float64() - 1) * scale
		}
	}
	// Forget-gate bias of 1 is the standard initialization that keeps
	// early memory.
	for i := range l.b[1] {
		l.b[1][i] = 1
	}
	return l
}

// layerState is the recurrent state (h, c) of one layer.
type layerState struct {
	h, c []float64
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// step advances one timestep, updating st in place and returning h.
func (l *Layer) step(x []float64, st *layerState) []float64 {
	var gates [4][]float64
	for g := 0; g < 4; g++ {
		gates[g] = make([]float64, l.hiddenSize)
		for j := 0; j < l.hiddenSize; j++ {
			sum := l.b[g][j]
			rowX := l.wx[g][j*l.inputSize : (j+1)*l.inputSize]
			for k, xv := range x {
				sum += rowX[k] * xv
			}
			rowH := l.wh[g][j*l.hiddenSize : (j+1)*l.hiddenSize]
			for k, hv := range st.h {
				sum += rowH[k] * hv
			}
			gates[g][j] = sum
		}
	}
	for j := 0; j < l.hiddenSize; j++ {
		i := sigmoid(gates[0][j])
		f := sigmoid(gates[1][j])
		o := sigmoid(gates[2][j])
		g := math.Tanh(gates[3][j])
		st.c[j] = f*st.c[j] + i*g
		st.h[j] = o * math.Tanh(st.c[j])
	}
	return st.h
}

// Network is a stacked LSTM with a dense output head.
type Network struct {
	layers []*Layer
	// Dense head: out = Wo h + bo.
	wo []float64
	bo []float64

	inputSize  int
	outputSize int
}

// Config sizes a stacked LSTM.
type Config struct {
	// InputSize is the feature count per timestep (e.g. pressure,
	// temperature, wave height readings).
	InputSize int
	// HiddenSizes gives the width of each stacked layer.
	HiddenSizes []int
	// OutputSize is the number of predicted values.
	OutputSize int
	// Seed makes the weight initialization reproducible.
	Seed int64
}

// New builds a stacked LSTM with deterministic random weights.
func New(cfg Config) (*Network, error) {
	if cfg.InputSize <= 0 {
		return nil, fmt.Errorf("lstm: input size must be positive, have %d", cfg.InputSize)
	}
	if cfg.OutputSize <= 0 {
		return nil, fmt.Errorf("lstm: output size must be positive, have %d", cfg.OutputSize)
	}
	if len(cfg.HiddenSizes) == 0 {
		return nil, fmt.Errorf("lstm: at least one hidden layer is required")
	}
	rnd := rng.New(cfg.Seed)
	n := &Network{inputSize: cfg.InputSize, outputSize: cfg.OutputSize}
	in := cfg.InputSize
	for i, h := range cfg.HiddenSizes {
		if h <= 0 {
			return nil, fmt.Errorf("lstm: hidden layer %d size must be positive, have %d", i, h)
		}
		n.layers = append(n.layers, newLayer(in, h, rnd))
		in = h
	}
	n.wo = make([]float64, cfg.OutputSize*in)
	n.bo = make([]float64, cfg.OutputSize)
	scale := 1.0 / math.Sqrt(float64(in))
	for i := range n.wo {
		n.wo[i] = (2*rnd.Float64() - 1) * scale
	}
	return n, nil
}

// Infer runs the forward pass over a sequence of timesteps (each a feature
// vector of InputSize) and returns the output head applied to the final
// hidden state.
func (n *Network) Infer(sequence [][]float64) ([]float64, error) {
	if len(sequence) == 0 {
		return nil, fmt.Errorf("lstm: empty input sequence")
	}
	states := make([]layerState, len(n.layers))
	for i, l := range n.layers {
		states[i] = layerState{
			h: make([]float64, l.hiddenSize),
			c: make([]float64, l.hiddenSize),
		}
	}
	var h []float64
	for t, x := range sequence {
		if len(x) != n.inputSize {
			return nil, fmt.Errorf("lstm: timestep %d has %d features, want %d", t, len(x), n.inputSize)
		}
		h = x
		for i, l := range n.layers {
			h = l.step(h, &states[i])
		}
	}
	out := make([]float64, n.outputSize)
	lastHidden := len(h)
	for j := 0; j < n.outputSize; j++ {
		sum := n.bo[j]
		row := n.wo[j*lastHidden : (j+1)*lastHidden]
		for k, hv := range h {
			sum += row[k] * hv
		}
		out[j] = sum
	}
	return out, nil
}

// FLOPs estimates the floating-point operations of one Infer call for a
// sequence of the given length, used to model inference compute time.
func (n *Network) FLOPs(seqLen int) int {
	total := 0
	in := n.inputSize
	for _, l := range n.layers {
		// 4 gates × (input matmul + hidden matmul) × 2 ops (mul+add).
		perStep := 4 * (l.hiddenSize*in + l.hiddenSize*l.hiddenSize) * 2
		total += perStep * seqLen
		in = l.hiddenSize
	}
	total += 2 * n.outputSize * in
	return total
}
