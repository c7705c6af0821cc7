// Package rng provides a small deterministic random stream whose complete
// state is a single exportable word. Every random draw of a run comes from
// one: flows, netem loss and jitter, radiation faults, processing delay,
// retry, frame faults, apply jitter and the case studies. Unlike
// math/rand.Rand, whose state cannot be read back, a Stream can be
// persisted in a crash-safe checkpoint and compared against the state a
// deterministic replay reconstructs: that is how a resumed run proves it
// continues the exact random sequences of the killed one.
//
// The generator is SplitMix64 (Steele, Lea, Flood: "Fast Splittable
// Pseudorandom Number Generators", OOPSLA 2014): a 64-bit counter passed
// through a fixed avalanche permutation. It passes BigCrush, every seed
// yields a full 2^64 period, and one output costs a handful of arithmetic
// ops — more than adequate for arrival sampling and jitter draws, and
// trivially checkpointable.
package rng

import "math"

// Stream is one deterministic random stream. The zero value is a valid
// stream seeded with 0; use New to mix a caller seed first. A Stream is not
// safe for concurrent use.
type Stream struct {
	state uint64
}

// New returns a stream whose sequence is fixed by seed. Seeds that differ
// in any bit yield unrelated sequences (the first output already passes
// through the avalanche permutation).
func New(seed int64) *Stream {
	return &Stream{state: uint64(seed)}
}

// State returns the complete generator state: a stream holding this one
// word resumes the sequence exactly.
func (s *Stream) State() uint64 { return s.state }

// gamma is SplitMix64's counter increment (the odd integer closest to
// 2^64/φ); mix is its avalanche permutation.
const gamma = 0x9E3779B97F4A7C15

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 random bits.
func (s *Stream) Uint64() uint64 {
	s.state += gamma
	return mix(s.state)
}

// Derive scatters a base seed into decorrelated sub-seeds, one per index:
// the value a stream seeded with seed would draw as its (idx+1)-th, found
// without drawing the ones before it. Neighboring indices share no low
// bits. The scenario runner derives its flow and fault-process seeds this
// way, the fan-out tier its per-shard streams, and the apply engines
// their per-generation jitter streams — aligned between the coordinator
// and its agents by construction rather than by call count.
func Derive(seed int64, idx uint64) int64 {
	return int64(mix(uint64(seed) + (idx+1)*gamma))
}

// Float64 returns a uniform draw in [0, 1) with 53 random bits.
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns an exponential draw with mean 1, by inversion.
// 1-Float64() lies in (0, 1], so the logarithm is always finite.
func (s *Stream) ExpFloat64() float64 {
	return -math.Log(1 - s.Float64())
}

// NormFloat64 returns a standard normal draw by the Box–Muller transform:
// exactly two Float64 draws per call and no rejection loop. 1-Float64()
// lies in (0, 1], so the logarithm is always finite.
func (s *Stream) NormFloat64() float64 {
	r := math.Sqrt(-2 * math.Log(1-s.Float64()))
	return r * math.Cos(2*math.Pi*s.Float64())
}

// Intn returns a uniform draw in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// The modulo bias over a 64-bit draw is < n/2^64 — unobservable for
	// the simulation-sized n used here.
	return int(s.Uint64() % uint64(n))
}
