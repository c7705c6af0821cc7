package netem

import (
	"testing"
	"time"
)

var t0 = time.Date(2022, 4, 14, 12, 0, 0, 0, time.UTC)

func mustShaper(t *testing.T, p Params) *Shaper {
	t.Helper()
	s, err := NewShaper(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestValidate(t *testing.T) {
	bad := []Params{
		{Delay: -time.Second},
		{Jitter: -time.Second},
		{BandwidthKbps: -1},
		{LossProb: -0.1},
		{LossProb: 1.1},
		{DupProb: 2},
		{CorruptProb: -1},
		{ReorderProb: 42},
		{ReorderExtraDelay: -time.Second},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("params %d accepted: %+v", i, p)
		}
		if _, err := NewShaper(p, 0); err == nil {
			t.Errorf("NewShaper accepted params %d", i)
		}
	}
	if err := (Params{Delay: time.Millisecond, BandwidthKbps: 1000}).Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

func TestQuantizeDelay(t *testing.T) {
	tests := []struct{ in, want time.Duration }{
		{0, 0},
		{-5 * time.Millisecond, 0},
		{100 * time.Microsecond, 100 * time.Microsecond},
		{149 * time.Microsecond, 100 * time.Microsecond},
		{150 * time.Microsecond, 200 * time.Microsecond},
		{16*time.Millisecond + 49*time.Microsecond, 16 * time.Millisecond},
	}
	for _, tt := range tests {
		if got := QuantizeDelay(tt.in); got != tt.want {
			t.Errorf("QuantizeDelay(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestPureDelay(t *testing.T) {
	s := mustShaper(t, Params{Delay: 8 * time.Millisecond})
	d := s.Transmit(t0, 1000)
	if d.Lost() || d.Corrupted || len(d.Arrivals()) != 1 {
		t.Fatalf("delivery = %+v", d)
	}
	if got := d.Arrivals()[0].Sub(t0); got != 8*time.Millisecond {
		t.Errorf("arrival after %v, want 8ms", got)
	}
}

func TestDelayQuantized(t *testing.T) {
	s := mustShaper(t, Params{Delay: 8*time.Millisecond + 33*time.Microsecond})
	d := s.Transmit(t0, 10)
	if got := d.Arrivals()[0].Sub(t0); got != 8*time.Millisecond {
		t.Errorf("arrival after %v, want quantized 8ms", got)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	// 8000 bits at 1000 kbps = 8 ms serialization.
	s := mustShaper(t, Params{BandwidthKbps: 1000})
	d := s.Transmit(t0, 1000)
	if got := d.Arrivals()[0].Sub(t0); got != 8*time.Millisecond {
		t.Errorf("arrival after %v, want 8ms", got)
	}
}

func TestQueueingBehindEarlierPackets(t *testing.T) {
	s := mustShaper(t, Params{BandwidthKbps: 1000, Delay: time.Millisecond})
	// Two 1000-byte packets sent at the same instant: the second queues
	// behind the first (8 ms serialization each).
	d1 := s.Transmit(t0, 1000)
	d2 := s.Transmit(t0, 1000)
	if got := d1.Arrivals()[0].Sub(t0); got != 9*time.Millisecond {
		t.Errorf("first arrival after %v, want 9ms", got)
	}
	if got := d2.Arrivals()[0].Sub(t0); got != 17*time.Millisecond {
		t.Errorf("second arrival after %v, want 17ms", got)
	}
}

// TestDeliveriesDoNotAlias: a Delivery owns its arrival times. Later
// transmissions, and copies of the value, leave them alone, and a Transmit
// allocates nothing to hold them.
func TestDeliveriesDoNotAlias(t *testing.T) {
	s := mustShaper(t, Params{BandwidthKbps: 1000, Delay: time.Millisecond, DupProb: 1})
	d1 := s.Transmit(t0, 1000)
	want := append([]time.Time(nil), d1.Arrivals()...)
	view := d1.Arrivals()
	copied := d1
	d2 := s.Transmit(t0, 1000)
	copied.Arrivals()[0] = time.Time{}
	if len(want) != 2 || len(d2.Arrivals()) != 2 {
		t.Fatalf("arrivals = %d and %d, want 2 each (dup)", len(want), len(d2.Arrivals()))
	}
	for i := range want {
		if !view[i].Equal(want[i]) || !d1.Arrivals()[i].Equal(want[i]) {
			t.Errorf("arrival %d of the first delivery changed to %v, was %v", i, d1.Arrivals()[i], want[i])
		}
		if d2.Arrivals()[i].Equal(want[i]) {
			t.Errorf("arrival %d of the queued packet equals the first packet's", i)
		}
	}
	if a := testing.AllocsPerRun(100, func() {
		d := s.Transmit(t0, 10)
		if len(d.Arrivals()) != 2 {
			t.Fatal("lost a packet")
		}
	}); a != 0 {
		t.Errorf("Transmit allocates %v per packet", a)
	}
}

func TestQueueDrainsOverTime(t *testing.T) {
	s := mustShaper(t, Params{BandwidthKbps: 1000})
	s.Transmit(t0, 1000) // occupies link until t0+8ms
	// A packet sent at t0+8ms does not queue.
	d := s.Transmit(t0.Add(8*time.Millisecond), 1000)
	if got := d.Arrivals()[0].Sub(t0); got != 16*time.Millisecond {
		t.Errorf("arrival after %v, want 16ms", got)
	}
}

func TestUnlimitedBandwidth(t *testing.T) {
	s := mustShaper(t, Params{Delay: time.Millisecond})
	if d := s.SerializationDelay(1 << 20); d != 0 {
		t.Errorf("serialization = %v, want 0", d)
	}
	// Packets do not queue.
	d1 := s.Transmit(t0, 1<<20)
	d2 := s.Transmit(t0, 1<<20)
	if !d1.Arrivals()[0].Equal(d2.Arrivals()[0]) {
		t.Error("packets queued despite unlimited bandwidth")
	}
}

func TestLoss(t *testing.T) {
	s := mustShaper(t, Params{LossProb: 1})
	if d := s.Transmit(t0, 100); !d.Lost() {
		t.Error("packet survived 100% loss")
	}
	s2 := mustShaper(t, Params{LossProb: 0})
	if d := s2.Transmit(t0, 100); d.Lost() {
		t.Error("packet lost at 0% loss")
	}
	// Statistical check at 30%.
	s3 := mustShaper(t, Params{LossProb: 0.3})
	lost := 0
	for i := 0; i < 10000; i++ {
		if s3.Transmit(t0, 10).Lost() {
			lost++
		}
	}
	if lost < 2700 || lost > 3300 {
		t.Errorf("lost %d of 10000 at p=0.3", lost)
	}
}

func TestDuplication(t *testing.T) {
	s := mustShaper(t, Params{DupProb: 1, Delay: time.Millisecond})
	d := s.Transmit(t0, 100)
	if len(d.Arrivals()) != 2 {
		t.Fatalf("arrivals = %d, want 2", len(d.Arrivals()))
	}
	if !d.Arrivals()[1].After(d.Arrivals()[0]) {
		t.Error("duplicate does not trail original")
	}
}

func TestCorruption(t *testing.T) {
	s := mustShaper(t, Params{CorruptProb: 1})
	if d := s.Transmit(t0, 100); !d.Corrupted {
		t.Error("packet not corrupted at p=1")
	}
}

func TestReorderAddsDelay(t *testing.T) {
	s := mustShaper(t, Params{
		Delay: time.Millisecond, ReorderProb: 1, ReorderExtraDelay: 5 * time.Millisecond,
	})
	d := s.Transmit(t0, 10)
	if got := d.Arrivals()[0].Sub(t0); got != 6*time.Millisecond {
		t.Errorf("reordered arrival after %v, want 6ms", got)
	}
}

func TestJitterBounds(t *testing.T) {
	s := mustShaper(t, Params{Delay: 2 * time.Millisecond, Jitter: time.Millisecond})
	for i := 0; i < 1000; i++ {
		d := s.Transmit(t0, 10)
		got := d.Arrivals()[0].Sub(t0)
		if got < time.Millisecond || got > 3*time.Millisecond {
			t.Fatalf("jittered arrival after %v, outside [1ms, 3ms]", got)
		}
	}
}

func TestJitterNeverNegative(t *testing.T) {
	s := mustShaper(t, Params{Delay: 100 * time.Microsecond, Jitter: time.Millisecond})
	for i := 0; i < 1000; i++ {
		d := s.Transmit(t0, 10)
		if d.Arrivals()[0].Before(t0) {
			t.Fatal("arrival before send")
		}
	}
}

func TestUpdateKeepsQueueState(t *testing.T) {
	s := mustShaper(t, Params{BandwidthKbps: 1000})
	s.Transmit(t0, 1000) // busy until +8 ms
	if err := s.Update(Params{BandwidthKbps: 1000, Delay: 4 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	d := s.Transmit(t0, 1000)
	// Still queues behind the pre-update packet, then new delay applies.
	if got := d.Arrivals()[0].Sub(t0); got != 20*time.Millisecond {
		t.Errorf("arrival after %v, want 20ms", got)
	}
	if err := s.Update(Params{Delay: -1}); err == nil {
		t.Error("Update accepted invalid params")
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	p := Params{Delay: time.Millisecond, LossProb: 0.5, DupProb: 0.3}
	a, err := NewShaper(p, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewShaper(p, 99)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		da := a.Transmit(t0, 100)
		db := b.Transmit(t0, 100)
		if len(da.Arrivals()) != len(db.Arrivals()) {
			t.Fatal("same-seed shapers diverged")
		}
	}
}

func BenchmarkTransmit(b *testing.B) {
	s, err := NewShaper(Params{Delay: time.Millisecond, BandwidthKbps: 10_000_000}, 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		s.Transmit(t0, 1500)
	}
}

func TestQuantizeLatencyMatchesQuantizeDelay(t *testing.T) {
	for _, s := range []float64{0, 1e-9, 4.9e-5, 5e-5, 1e-4, 1.49e-4, 1.51e-4, 0.0087, 0.046, 1.23456} {
		wantQ := int64(QuantizeDelay(time.Duration(s*float64(time.Second))) / DelayQuantum)
		if got := LatencyQuanta(s); got != wantQ {
			t.Errorf("LatencyQuanta(%v) = %d, want %d", s, got, wantQ)
		}
		q := QuantizeLatency(s)
		if q != float64(LatencyQuanta(s))*DelayQuantumSeconds {
			t.Errorf("QuantizeLatency(%v) = %v inconsistent with quanta", s, q)
		}
		if diff := q - s; diff > DelayQuantumSeconds/2+1e-12 || diff < -DelayQuantumSeconds/2-1e-12 {
			t.Errorf("QuantizeLatency(%v) = %v off by more than half a quantum", s, q)
		}
	}
	if QuantizeLatency(-1) != 0 || LatencyQuanta(-1) != 0 {
		t.Error("negative latency must quantize to zero")
	}
	// Idempotence: quantizing a quantized value is a no-op.
	for _, s := range []float64{0.0087, 0.0461, 0.25} {
		if q := QuantizeLatency(s); QuantizeLatency(q) != q {
			t.Errorf("QuantizeLatency not idempotent at %v", s)
		}
	}
}
