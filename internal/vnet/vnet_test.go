package vnet

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"celestial/internal/netem"
	"celestial/internal/retry"
)

var simStart = time.Date(2022, 4, 14, 12, 0, 0, 0, time.UTC)

func TestSimOrdering(t *testing.T) {
	s := NewSim(simStart)
	var order []int
	add := func(d time.Duration, id int) {
		if err := s.After(d, func() { order = append(order, id) }); err != nil {
			t.Fatal(err)
		}
	}
	add(3*time.Second, 3)
	add(1*time.Second, 1)
	add(2*time.Second, 2)
	add(1*time.Second, 11) // same time as 1: FIFO order
	if err := s.RunUntil(simStart.Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 11, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if !s.Now().Equal(simStart.Add(10 * time.Second)) {
		t.Errorf("now = %v", s.Now())
	}
}

func TestSimRejectsPast(t *testing.T) {
	s := NewSim(simStart)
	if err := s.At(simStart.Add(-time.Second), func() {}); err == nil {
		t.Error("accepted past event")
	}
	if err := s.After(-time.Second, func() {}); err == nil {
		t.Error("accepted negative delay")
	}
	if err := s.RunUntil(simStart.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(simStart); err == nil {
		t.Error("RunUntil accepted past target")
	}
}

func TestSimEventsScheduleEvents(t *testing.T) {
	s := NewSim(simStart)
	hits := 0
	if err := s.After(time.Second, func() {
		hits++
		if err := s.After(time.Second, func() { hits++ }); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(simStart.Add(3 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if hits != 2 {
		t.Errorf("hits = %d", hits)
	}
}

func TestSimRunUntilBoundary(t *testing.T) {
	s := NewSim(simStart)
	ran := false
	if err := s.At(simStart.Add(5*time.Second), func() { ran = true }); err != nil {
		t.Fatal(err)
	}
	// Events exactly at the boundary run.
	if err := s.RunUntil(simStart.Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("boundary event did not run")
	}
}

func TestSimEvery(t *testing.T) {
	s := NewSim(simStart)
	count := 0
	err := s.Every(simStart.Add(time.Second), 2*time.Second, func() bool {
		count++
		return count < 4
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(simStart.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if count != 4 {
		t.Errorf("count = %d, want 4", count)
	}
	if err := s.Every(simStart.Add(2*time.Minute), 0, func() bool { return false }); err == nil {
		t.Error("accepted zero interval")
	}
}

func TestAddressing(t *testing.T) {
	ip, err := SatIP(0, 878)
	if err != nil {
		t.Fatal(err)
	}
	if !ip.Equal(net.IPv4(10, 1, 3, 110)) {
		t.Errorf("sat ip = %v", ip)
	}
	gip, err := GSTIP(2)
	if err != nil {
		t.Fatal(err)
	}
	if !gip.Equal(net.IPv4(10, 0, 0, 2)) {
		t.Errorf("gst ip = %v", gip)
	}
	if _, err := SatIP(-1, 0); err == nil {
		t.Error("accepted negative shell")
	}
	if _, err := SatIP(0, 70000); err == nil {
		t.Error("accepted oversized sat index")
	}
	if _, err := GSTIP(-1); err == nil {
		t.Error("accepted negative gst")
	}
}

func TestNames(t *testing.T) {
	if n := SatName(0, 878); n != "878.0.celestial" {
		t.Errorf("sat name = %q", n)
	}
	shell, sat, gst, err := ParseName("878.0.celestial")
	if err != nil || shell != 0 || sat != 878 || gst != "" {
		t.Errorf("ParseName = %d %d %q %v", shell, sat, gst, err)
	}
	shell, _, gst, err = ParseName("accra.gst.celestial.")
	if err != nil || shell != -1 || gst != "accra" {
		t.Errorf("ParseName gst = %d %q %v", shell, gst, err)
	}
	for _, bad := range []string{"celestial", "a.b.c.d", "878.0.example", "x.0.celestial", "878.y.celestial", ".gst.celestial"} {
		if _, _, _, err := ParseName(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

// twoNodeTopo wires nodes 0 and 1 with a fixed latency.
func twoNodeTopo(latencyS float64, bwKbps float64) StaticTopology {
	return StaticTopology{
		Latency: map[int]map[int]float64{
			0: {1: latencyS},
			1: {0: latencyS},
		},
		BandwidthKbps: bwKbps,
	}
}

func TestNetworkDelivery(t *testing.T) {
	s := NewSim(simStart)
	n := NewNetwork(s, twoNodeTopo(0.008, 0), 1)
	var got []Message
	n.Handle(1, func(m Message) { got = append(got, m) })

	if err := n.Send(0, 1, 1000, "hello"); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(simStart.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("delivered = %d", len(got))
	}
	m := got[0]
	if m.Payload != "hello" || m.From != 0 || m.To != 1 {
		t.Errorf("message = %+v", m)
	}
	if m.Latency() != 8*time.Millisecond {
		t.Errorf("latency = %v", m.Latency())
	}
	if d, dr := n.Stats(); d != 1 || dr != 0 {
		t.Errorf("stats = %d, %d", d, dr)
	}
}

func TestNetworkErrors(t *testing.T) {
	s := NewSim(simStart)
	topo := StaticTopology{
		Latency:  map[int]map[int]float64{0: {1: 0.001}},
		Inactive: map[int]bool{2: true},
	}
	n := NewNetwork(s, topo, 1)
	n.Handle(1, func(Message) {})
	n.Handle(3, func(Message) {})

	if err := n.Send(0, 0, 10, nil); err == nil {
		t.Error("accepted self-send")
	}
	if err := n.Send(0, 1, -1, nil); err == nil {
		t.Error("accepted negative size")
	}
	if err := n.Send(0, 3, 10, nil); !errors.Is(err, ErrUnreachable) {
		t.Errorf("unreachable error = %v", err)
	}
	if err := n.Send(0, 2, 10, nil); !errors.Is(err, ErrNoHandler) && !errors.Is(err, ErrSuspended) {
		t.Errorf("suspended error = %v", err)
	}
	topo.Inactive[2] = true
	n.Handle(2, func(Message) {})
	if err := n.Send(0, 2, 10, nil); !errors.Is(err, ErrSuspended) {
		t.Errorf("suspended error = %v", err)
	}
	// No handler registered for node 0.
	if err := n.Send(1, 0, 10, nil); !errors.Is(err, ErrNoHandler) {
		t.Errorf("no-handler error = %v", err)
	}
}

func TestNetworkBandwidthQueueing(t *testing.T) {
	s := NewSim(simStart)
	// 1000 kbps: a 1000-byte message serializes in 8 ms.
	n := NewNetwork(s, twoNodeTopo(0.001, 1000), 1)
	var arrivals []time.Duration
	n.Handle(1, func(m Message) { arrivals = append(arrivals, m.Latency()) })

	for i := 0; i < 3; i++ {
		if err := n.Send(0, 1, 1000, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RunUntil(simStart.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	want := []time.Duration{9 * time.Millisecond, 17 * time.Millisecond, 25 * time.Millisecond}
	for i, w := range want {
		if arrivals[i] != w {
			t.Errorf("arrival %d = %v, want %v", i, arrivals[i], w)
		}
	}
}

func TestNetworkTopologyUpdate(t *testing.T) {
	s := NewSim(simStart)
	n := NewNetwork(s, twoNodeTopo(0.010, 0), 1)
	latencies := map[string]time.Duration{}
	n.Handle(1, func(m Message) { latencies[m.Payload.(string)] = m.Latency() })

	if err := n.Send(0, 1, 10, "before"); err != nil {
		t.Fatal(err)
	}
	// The coordinator pushes a new topology with a shorter path. The
	// second message overtakes the first — expected packet reordering
	// when the constellation path shortens.
	n.topo = twoNodeTopo(0.002, 0)
	n.InvalidatePaths()
	if err := n.Send(0, 1, 10, "after"); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(simStart.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if latencies["before"] != 10*time.Millisecond || latencies["after"] != 2*time.Millisecond {
		t.Errorf("latencies = %v", latencies)
	}
}

func TestNetworkImpairments(t *testing.T) {
	s := NewSim(simStart)
	n := NewNetwork(s, twoNodeTopo(0.001, 0), 1)
	if err := n.SetImpairments(netem.Params{LossProb: 1}); err != nil {
		t.Fatal(err)
	}
	n.Handle(1, func(Message) { t.Error("lossy network delivered") })
	for i := 0; i < 10; i++ {
		if err := n.Send(0, 1, 10, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RunUntil(simStart.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, dropped := n.Stats(); dropped != 10 {
		t.Errorf("dropped = %d", dropped)
	}
	if err := n.SetImpairments(netem.Params{LossProb: 2}); err == nil {
		t.Error("accepted invalid impairments")
	}
}

func TestNetworkDeterminism(t *testing.T) {
	run := func() []time.Duration {
		s := NewSim(simStart)
		n := NewNetwork(s, twoNodeTopo(0.005, 0), 42)
		if err := n.SetImpairments(netem.Params{Jitter: time.Millisecond, LossProb: 0.2}); err != nil {
			t.Fatal(err)
		}
		var out []time.Duration
		n.Handle(1, func(m Message) { out = append(out, m.Latency()) })
		for i := 0; i < 50; i++ {
			if err := n.Send(0, 1, 100, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.RunUntil(simStart.Add(time.Second)); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestPairLossStreams: every directed pair draws its own loss stream, fixed
// by the network seed and the pair alone.
func TestPairLossStreams(t *testing.T) {
	// losses returns, per direction, which of 64 tagged sends were lost.
	losses := func() (fwd, back uint64) {
		s := NewSim(simStart)
		n := NewNetwork(s, twoNodeTopo(0.005, 0), 42)
		if err := n.SetImpairments(netem.Params{LossProb: 0.5}); err != nil {
			t.Fatal(err)
		}
		fwd, back = ^uint64(0), ^uint64(0)
		n.Handle(1, func(m Message) { fwd &^= 1 << m.Tag })
		n.Handle(0, func(m Message) { back &^= 1 << m.Tag })
		for i := uint64(0); i < 64; i++ {
			if err := n.SendTag(0, 1, 100, i); err != nil {
				t.Fatal(err)
			}
			if err := n.SendTag(1, 0, 100, i); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.RunUntil(simStart.Add(time.Second)); err != nil {
			t.Fatal(err)
		}
		return fwd, back
	}
	fwd, back := losses()
	if fwd == back {
		t.Errorf("0→1 and 1→0 lost the same sends %064b", fwd)
	}
	if fwd2, back2 := losses(); fwd2 != fwd || back2 != back {
		t.Errorf("same seed, different losses: %x/%x vs %x/%x", fwd, back, fwd2, back2)
	}
}

func BenchmarkNetworkSendDeliver(b *testing.B) {
	s := NewSim(simStart)
	n := NewNetwork(s, twoNodeTopo(0.001, 0), 1)
	n.Handle(1, func(Message) {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.Send(0, 1, 1000, nil); err != nil {
			b.Fatal(err)
		}
		if i%1000 == 999 {
			if err := s.RunUntil(s.Now().Add(time.Second)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestInvalidatePathsRefreshesCachedPairs pins the version-gated refresh
// contract: a pair's cached path survives in-place topology mutation until
// InvalidatePaths marks it stale.
func TestInvalidatePathsRefreshesCachedPairs(t *testing.T) {
	s := NewSim(simStart)
	topo := twoNodeTopo(0.010, 0)
	n := NewNetwork(s, topo, 1)
	latencies := map[string]time.Duration{}
	n.Handle(1, func(m Message) { latencies[m.Payload.(string)] = m.Latency() })

	if err := n.Send(0, 1, 10, "first"); err != nil {
		t.Fatal(err)
	}
	// Mutate the topology behind the network's back: the cached pair
	// keeps the old parameters...
	topo.Latency[0][1] = 0.002
	if err := n.Send(0, 1, 10, "stale"); err != nil {
		t.Fatal(err)
	}
	// ...until the paths are invalidated.
	n.InvalidatePaths()
	if err := n.Send(0, 1, 10, "fresh"); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(simStart.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if latencies["first"] != 10*time.Millisecond || latencies["stale"] != 10*time.Millisecond {
		t.Errorf("cached sends = %v", latencies)
	}
	if latencies["fresh"] != 2*time.Millisecond {
		t.Errorf("refreshed send = %v", latencies)
	}
}

// TestUnreachabilityCachedPerVersion checks that reachability is cached
// alongside the shaper parameters and re-read on invalidation.
func TestUnreachabilityCachedPerVersion(t *testing.T) {
	s := NewSim(simStart)
	topo := StaticTopology{Latency: map[int]map[int]float64{0: {}}}
	n := NewNetwork(s, topo, 1)
	n.Handle(1, func(Message) {})
	if err := n.Send(0, 1, 10, nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
	// The pair becomes reachable mid-version: still cached as down.
	topo.Latency[0][1] = 0.001
	if err := n.Send(0, 1, 10, nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("cached err = %v", err)
	}
	n.InvalidatePaths()
	if err := n.Send(0, 1, 10, nil); err != nil {
		t.Fatalf("after invalidate: %v", err)
	}
}

func TestParseSatRef(t *testing.T) {
	good := map[string][2]int{ // ref -> {sat, shell}
		"878.0": {878, 0},
		"0.4":   {0, 4},
		"10.2":  {10, 2},
	}
	for ref, want := range good {
		sat, shell, ok := ParseSatRef(ref)
		if !ok || sat != want[0] || shell != want[1] {
			t.Errorf("ParseSatRef(%q) = (%d, %d, %v), want (%d, %d, true)",
				ref, sat, shell, ok, want[0], want[1])
		}
	}
	bad := []string{
		"", ".", "878", "878.", ".0", "878.0.5", "878.0x", "x878.0",
		"-1.0", "0.-1", "+1.0", "1.+0", " 1.0", "1. 0", "1,0",
		"007.2", "1.00", "00.0", // leading zeros: one spelling per index
		"99999999999999999999.0", // overflows int
		"0.99999999999999999999", // overflow on the shell side too
		"1.0 ", "\t1.0", "1.0\n", // surrounding whitespace in any position
		"1..0", "1.0.", ".1.0", // stray separators
		"0x10.0", "1.0x2", // hex spellings are not indices
		"１.0", "1.０", // full-width digits (non-ASCII)
		"1e2.0", "1.2e1", // scientific notation
		"\x001.0", "1.0\x00", // embedded NULs
	}
	for _, ref := range bad {
		if _, _, ok := ParseSatRef(ref); ok {
			t.Errorf("ParseSatRef(%q) parsed, want rejection", ref)
		}
	}
}

// FuzzParseSatRef: the parser never panics, and whatever it accepts has
// two non-negative parts and exactly one spelling — the one the testbed
// prints — so no two strings name the same node.
func FuzzParseSatRef(f *testing.F) {
	for _, ref := range []string{"878.0", "0.4", "007.2", "1.+0", "-1.0", "1..0", "99999999999999999999.0", "１.0", ""} {
		f.Add(ref)
	}
	f.Fuzz(func(t *testing.T, ref string) {
		sat, shell, ok := ParseSatRef(ref)
		if !ok {
			return
		}
		if sat < 0 || shell < 0 {
			t.Fatalf("ParseSatRef(%q) = (%d, %d): negative index", ref, sat, shell)
		}
		if back := fmt.Sprintf("%d.%d", sat, shell); back != ref {
			t.Fatalf("ParseSatRef(%q) = (%d, %d), which spells %q", ref, sat, shell, back)
		}
	})
}

func TestShaperRetryRecoversInjectedFaults(t *testing.T) {
	s := NewSim(simStart)
	topo := StaticTopology{Latency: map[int]map[int]float64{
		0: {1: 0.01}, 1: {0: 0.01},
	}}
	n := NewNetwork(s, topo, 1)
	got := 0
	n.Handle(1, func(Message) { got++ })
	// Every programming attempt fails with p=0.6; 10 attempts make the
	// seeded outcome recover deterministically.
	n.ShaperOps().SetFaults(0.6, 5)
	n.ShaperOps().SetPolicy(retry.Policy{MaxAttempts: 10}, 5)
	if err := n.Send(0, 1, 100, "x"); err != nil {
		t.Fatalf("send with retried shaper faults: %v", err)
	}
	if err := s.RunUntil(simStart.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("delivered %d messages", got)
	}
	st := n.ShaperOps().Stats()
	if st.Ops != 1 || st.Retried != 1 || st.Recovered != 1 || st.GaveUp != 0 {
		t.Fatalf("retry stats = %+v", st)
	}
}

func TestShaperRetryGivesUpSurfacesError(t *testing.T) {
	s := NewSim(simStart)
	topo := StaticTopology{Latency: map[int]map[int]float64{0: {1: 0.01}}}
	n := NewNetwork(s, topo, 1)
	n.Handle(1, func(Message) {})
	n.ShaperOps().SetFaults(1.0, 5)
	n.ShaperOps().SetPolicy(retry.Policy{MaxAttempts: 3}, 5)
	err := n.Send(0, 1, 100, "x")
	if err == nil {
		t.Fatal("send with unrecoverable shaper faults returned nil")
	}
	if !retry.IsTransient(err) {
		t.Errorf("give-up error %v lost transient classification", err)
	}
	if st := n.ShaperOps().Stats(); st.GaveUp != 1 || st.Attempts != 3 {
		t.Fatalf("retry stats = %+v", st)
	}
	// The pair was left unprogrammed: a later fault-free send must
	// program it and deliver.
	n.ShaperOps().SetFaults(0, 5)
	if err := n.Send(0, 1, 100, "x"); err != nil {
		t.Fatalf("send after faults cleared: %v", err)
	}
}
