package netem

import (
	"testing"
	"testing/quick"
	"time"
)

// TestArrivalNeverBeforeSend: regardless of parameters, a delivered packet
// arrives no earlier than it was sent.
func TestArrivalNeverBeforeSend(t *testing.T) {
	err := quick.Check(func(delayUs, jitterUs uint16, bw uint32, size uint16, seed int64) bool {
		p := Params{
			Delay:         time.Duration(delayUs) * time.Microsecond,
			Jitter:        time.Duration(jitterUs) * time.Microsecond,
			BandwidthKbps: float64(bw % 1_000_000),
		}
		s, err := NewShaper(p, seed)
		if err != nil {
			return false
		}
		for i := 0; i < 20; i++ {
			d := s.Transmit(t0, int(size))
			for _, at := range d.Arrivals() {
				if at.Before(t0) {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

// TestFIFOWithoutReorder: with no jitter or reordering, packets on one
// link arrive in send order (store-and-forward serialization preserves
// FIFO).
func TestFIFOWithoutReorder(t *testing.T) {
	err := quick.Check(func(bw uint16, sizes [8]uint8, seed int64) bool {
		p := Params{
			Delay:         3 * time.Millisecond,
			BandwidthKbps: float64(bw%1000) + 1,
		}
		s, err := NewShaper(p, seed)
		if err != nil {
			return false
		}
		last := time.Time{}
		for i, sz := range sizes {
			d := s.Transmit(t0.Add(time.Duration(i)*time.Millisecond), int(sz)+1)
			if d.Lost() {
				return false // no loss configured
			}
			if !last.IsZero() && d.Arrivals()[0].Before(last) {
				return false
			}
			last = d.Arrivals()[0]
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

// TestThroughputRespectsBandwidth: over a long packet train, achieved
// throughput never exceeds the configured bandwidth.
func TestThroughputRespectsBandwidth(t *testing.T) {
	err := quick.Check(func(bwRaw uint16, n uint8) bool {
		bw := float64(bwRaw%10000) + 100 // kbps
		count := int(n%50) + 10
		size := 1000 // bytes
		s, err := NewShaper(Params{BandwidthKbps: bw}, 1)
		if err != nil {
			return false
		}
		var lastArrival time.Time
		for i := 0; i < count; i++ {
			d := s.Transmit(t0, size)
			lastArrival = d.Arrivals()[0]
		}
		elapsed := lastArrival.Sub(t0).Seconds()
		bits := float64(count * size * 8)
		achievedKbps := bits / elapsed / 1000
		// Allow a sliver of numerical slack.
		return achievedKbps <= bw*1.001
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}
