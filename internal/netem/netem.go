// Package netem is the testbed's stand-in for the Linux tc and tc-netem
// traffic control machinery that Celestial uses to emulate network delays
// and bandwidth constraints between satellite servers (§3.1 of the paper).
//
// A Shaper models one link direction: packets experience a propagation
// delay (injected with 0.1 ms accuracy, like Celestial), a serialization
// delay from a store-and-forward bandwidth model, and optionally the
// advanced tc-netem impairments the paper lists as future extensions —
// packet loss, duplication, corruption and reordering, plus a jitter
// distribution on the delay.
//
// The shaper is clock-agnostic: Transmit is a pure state transition from
// (send time, packet size) to delivery events, so it works under both the
// wall clock and the virtual clock used for simulated-time experiments.
package netem

import (
	"fmt"
	"math"
	"time"

	"celestial/internal/rng"
)

// DelayQuantum is the granularity at which propagation delays are emulated.
// Celestial injects emulated network delays with 0.1 ms accuracy.
const DelayQuantum = 100 * time.Microsecond

// DelayQuantumSeconds is DelayQuantum expressed in seconds, for code that
// carries latencies as float64 seconds (the constellation calculation).
const DelayQuantumSeconds = float64(DelayQuantum) / float64(time.Second)

// Params configure one link direction.
type Params struct {
	// Delay is the one-way propagation delay. It is quantized to
	// DelayQuantum by the shaper.
	Delay time.Duration
	// Jitter, when positive, adds a uniform random delay in
	// [-Jitter, +Jitter] (clamped so total delay stays ≥ 0).
	Jitter time.Duration
	// BandwidthKbps limits throughput; zero means unlimited.
	BandwidthKbps float64
	// LossProb drops packets with this probability in [0, 1].
	LossProb float64
	// DupProb duplicates delivered packets with this probability.
	DupProb float64
	// CorruptProb marks delivered packets as corrupted with this
	// probability.
	CorruptProb float64
	// ReorderExtraDelay adds this extra delay to packets selected by
	// ReorderProb, letting later packets overtake them.
	ReorderProb       float64
	ReorderExtraDelay time.Duration
}

// Validate reports an error for out-of-range parameters.
func (p Params) Validate() error {
	switch {
	case p.Delay < 0:
		return fmt.Errorf("netem: negative delay %v", p.Delay)
	case p.Jitter < 0:
		return fmt.Errorf("netem: negative jitter %v", p.Jitter)
	case p.BandwidthKbps < 0:
		return fmt.Errorf("netem: negative bandwidth %v", p.BandwidthKbps)
	case p.LossProb < 0 || p.LossProb > 1:
		return fmt.Errorf("netem: loss probability %v outside [0, 1]", p.LossProb)
	case p.DupProb < 0 || p.DupProb > 1:
		return fmt.Errorf("netem: duplication probability %v outside [0, 1]", p.DupProb)
	case p.CorruptProb < 0 || p.CorruptProb > 1:
		return fmt.Errorf("netem: corruption probability %v outside [0, 1]", p.CorruptProb)
	case p.ReorderProb < 0 || p.ReorderProb > 1:
		return fmt.Errorf("netem: reorder probability %v outside [0, 1]", p.ReorderProb)
	case p.ReorderExtraDelay < 0:
		return fmt.Errorf("netem: negative reorder delay %v", p.ReorderExtraDelay)
	}
	return nil
}

// QuantizeDelay rounds a delay to the emulation granularity (nearest
// DelayQuantum).
func QuantizeDelay(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return (d + DelayQuantum/2) / DelayQuantum * DelayQuantum
}

// LatencyQuanta returns the number of DelayQuantum steps a latency in
// seconds rounds to. Two latencies are emulated identically exactly when
// their quanta are equal, which is what the constellation diff engine keys
// link-delay changes on: sub-quantum jitter maps to the same quantum and
// therefore to an empty diff entry.
func LatencyQuanta(s float64) int64 {
	if s <= 0 {
		return 0
	}
	return int64(math.Round(s / DelayQuantumSeconds))
}

// QuantizeLatency rounds a latency in seconds to the emulation granularity,
// the float-seconds counterpart of QuantizeDelay.
func QuantizeLatency(s float64) float64 {
	return float64(LatencyQuanta(s)) * DelayQuantumSeconds
}

// Delivery is the outcome of transmitting one packet. It is a plain value:
// the delivery times are stored inline, so a Transmit allocates nothing and
// two Deliveries never share storage.
type Delivery struct {
	at [2]time.Time
	n  int
	// Corrupted marks payload corruption (netem corrupt).
	Corrupted bool
}

// Arrivals lists the delivery times: empty when the packet was lost, two
// entries when it was duplicated. The slice views d's own storage.
func (d *Delivery) Arrivals() []time.Time { return d.at[:d.n] }

// Lost reports whether the packet was dropped.
func (d Delivery) Lost() bool { return d.n == 0 }

// Shaper emulates one link direction. It is not safe for concurrent use;
// the virtual network serializes access per link.
type Shaper struct {
	params Params
	rnd    rng.Stream
	// nextFree is when the serializer becomes available again
	// (store-and-forward queue state).
	nextFree time.Time
}

// NewShaper creates a shaper with the given parameters and a deterministic
// random source (experiments are repeatable for a fixed seed).
func NewShaper(p Params, seed int64) (*Shaper, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p.Delay = QuantizeDelay(p.Delay)
	return &Shaper{params: p, rnd: *rng.New(seed)}, nil
}

// Params returns the shaper's current parameters.
func (s *Shaper) Params() Params { return s.params }

// Update replaces the link parameters, keeping queue state. This is how
// the machine manager applies each constellation update: "Celestial
// servers manipulate network connections between microVMs to accurately
// reflect satellite movement" (§3).
func (s *Shaper) Update(p Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	p.Delay = QuantizeDelay(p.Delay)
	s.params = p
	return nil
}

// SerializationDelay returns the time needed to push size bytes onto the
// link at the configured bandwidth.
func (s *Shaper) SerializationDelay(sizeBytes int) time.Duration {
	if s.params.BandwidthKbps <= 0 || sizeBytes <= 0 {
		return 0
	}
	secs := float64(sizeBytes*8) / (s.params.BandwidthKbps * 1000)
	return time.Duration(secs * float64(time.Second))
}

// Transmit sends one packet of the given size at time now and returns its
// delivery outcome. Packets queue behind earlier packets when the
// bandwidth is saturated (store-and-forward with an unbounded queue).
func (s *Shaper) Transmit(now time.Time, sizeBytes int) Delivery {
	// Serialization: the packet occupies the link after any queued
	// predecessors.
	start := now
	if s.nextFree.After(start) {
		start = s.nextFree
	}
	done := start.Add(s.SerializationDelay(sizeBytes))
	s.nextFree = done

	// Loss is sampled after queueing: a dropped packet still consumed
	// link capacity up to the drop point in real netem; this keeps the
	// model simple and conservative.
	if s.params.LossProb > 0 && s.rnd.Float64() < s.params.LossProb {
		return Delivery{}
	}

	arrival := done.Add(s.params.Delay + s.sampleJitter())
	if s.params.ReorderProb > 0 && s.rnd.Float64() < s.params.ReorderProb {
		arrival = arrival.Add(s.params.ReorderExtraDelay)
	}

	d := Delivery{at: [2]time.Time{arrival}, n: 1}
	if s.params.CorruptProb > 0 && s.rnd.Float64() < s.params.CorruptProb {
		d.Corrupted = true
	}
	if s.params.DupProb > 0 && s.rnd.Float64() < s.params.DupProb {
		d.at[1], d.n = arrival.Add(DelayQuantum), 2
	}
	return d
}

// sampleJitter draws the jitter offset, keeping the total delay
// non-negative.
func (s *Shaper) sampleJitter() time.Duration {
	j := s.params.Jitter
	if j <= 0 {
		return 0
	}
	off := time.Duration((2*s.rnd.Float64() - 1) * float64(j))
	if s.params.Delay+off < 0 {
		return -s.params.Delay
	}
	return off
}
