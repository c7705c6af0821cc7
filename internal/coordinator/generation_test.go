package coordinator

import (
	"testing"
	"time"

	"celestial/internal/config"
	"celestial/internal/hostlink"
)

// TestMachineAndHostLookups locks in the constant-time per-node lookup
// tables: every node resolves to the machine and host that actually hold
// it, and out-of-range IDs error instead of panicking. (HostOf used to
// linear-scan all hosts on every call despite the per-node table built in
// New — this is the regression test for the O(1) rewrite.)
func TestMachineAndHostLookups(t *testing.T) {
	c, err := New(testConfig(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range c.Constellation().Nodes() {
		m, err := c.Machine(node.ID)
		if err != nil {
			t.Fatalf("Machine(%d): %v", node.ID, err)
		}
		if m.ID() != node.ID {
			t.Fatalf("Machine(%d) = machine %d", node.ID, m.ID())
		}
		h, err := c.HostOf(node.ID)
		if err != nil {
			t.Fatalf("HostOf(%d): %v", node.ID, err)
		}
		// The returned host must be the one the machine was placed on.
		if got, ok := h.Machine(node.ID); !ok || got != m {
			t.Fatalf("HostOf(%d) = host %d, which does not hold the machine", node.ID, h.ID())
		}
	}
	for _, bad := range []int{-1, c.Constellation().NodeCount(), 1 << 30} {
		if _, err := c.Machine(bad); err == nil {
			t.Errorf("Machine(%d) did not error", bad)
		}
		if _, err := c.HostOf(bad); err == nil {
			t.Errorf("HostOf(%d) did not error", bad)
		}
	}
}

func TestGenerationAndDiffRing(t *testing.T) {
	c, err := New(testConfig(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Generation() != 0 || c.TopologyVersion() != 0 {
		t.Fatalf("pre-start generation = %d, topo = %d", c.Generation(), c.TopologyVersion())
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	// Start runs the first update: generation 1, whose Full diff is
	// non-empty and therefore also bumps the topology version.
	if c.Generation() != 1 || c.TopologyVersion() != 1 {
		t.Fatalf("post-start generation = %d, topo = %d", c.Generation(), c.TopologyVersion())
	}
	if err := c.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	gen := c.Generation()
	if gen != 6 {
		t.Fatalf("generation = %d after 10 s at 2 s resolution, want 6", gen)
	}

	// Every update is retained, in order, with the generation's diff.
	entries, from := c.DiffsFrom(0)
	if from != 0 || len(entries) != int(gen) {
		t.Fatalf("DiffsFrom(0) = %d entries after %d, want %d after 0", len(entries), from, gen)
	}
	for i, e := range entries {
		if e.Generation != uint64(i)+1 {
			t.Fatalf("entry %d has generation %d", i, e.Generation)
		}
		if i > 0 && entries[i].Diff.T <= entries[i-1].Diff.T {
			t.Fatalf("entry %d T %v not after entry %d T %v",
				i, entries[i].Diff.T, i-1, entries[i-1].Diff.T)
		}
	}
	if !entries[0].Diff.Full {
		t.Error("generation 1's record is not a Full diff")
	}
	// A cursor at the head yields nothing; a partial window only the
	// missing suffix.
	if got, from := c.DiffsFrom(gen); from != gen || len(got) != 0 {
		t.Errorf("DiffsFrom(head) = %d entries after %d", len(got), from)
	}
	if got, from := c.DiffsFrom(gen - 2); from != gen-2 || len(got) != 2 {
		t.Errorf("DiffsFrom(head-2) = %d entries after %d", len(got), from)
	}
}

// TestRetentionAndRingStats locks in the configurable retention: New
// refuses a negative one, the fan-out tier's Retention sizes the log the
// coordinator reports, and its length pins at capacity with each further
// tick evicting one generation.
func TestRetentionAndRingStats(t *testing.T) {
	cfg := testConfig(t)
	cfg.Resolution = time.Second
	cfg.Duration = 2 * time.Minute
	if err := config.Finalize(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := New(cfg, Options{Fanout: FanoutOptions{Options: hostlink.Options{Retention: -1}}}); err == nil {
		t.Error("a negative retention was accepted")
	}
	c, err := New(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rs := c.RingStats(); rs.Capacity != hostlink.DefaultRetention {
		t.Fatalf("default capacity = %d, want %d", rs.Capacity, hostlink.DefaultRetention)
	}
	const retention = 8
	c, err = New(cfg, Options{Fanout: FanoutOptions{Options: hostlink.Options{Retention: retention}}})
	if err != nil {
		t.Fatal(err)
	}
	if rs := c.RingStats(); rs != (hostlink.RingStats{Capacity: retention}) {
		t.Fatalf("pre-start ring stats = %+v", rs)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	// Before wrapping: every generation retained, no evictions.
	if err := c.Run((retention - 1) * time.Second); err != nil {
		t.Fatal(err)
	}
	if rs := c.RingStats(); rs.Length != int(c.Generation()) || rs.Evictions != 0 {
		t.Fatalf("ring stats before wrap = %+v at generation %d", rs, c.Generation())
	}
	if err := c.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	gen := c.Generation()
	rs := c.RingStats()
	if rs.Length != retention {
		t.Errorf("ring length = %d, want %d", rs.Length, retention)
	}
	if want := gen - retention; rs.Evictions != want {
		t.Errorf("evictions = %d, want %d (generation %d)", rs.Evictions, want, gen)
	}
	// The oldest retained generation is the window's first.
	if entries, from := c.DiffsFrom(0); from != gen-retention || len(entries) != retention {
		t.Errorf("DiffsFrom(0) = %d entries after %d, want %d after %d", len(entries), from, retention, gen-retention)
	}
}

// TestDiffsFromConcurrentWithUpdates races /diff-style mirrors against
// the update loop's log writes (meaningful under -race): every copied
// window must be gap-free and in order even while slots are recycled.
func TestDiffsFromConcurrentWithUpdates(t *testing.T) {
	cfg := testConfig(t)
	cfg.Resolution = time.Second
	cfg.Duration = 2 * time.Minute
	if err := config.Finalize(cfg); err != nil {
		t.Fatal(err)
	}
	c, err := New(cfg, Options{Fanout: FanoutOptions{Options: hostlink.Options{Retention: 8}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var cursor uint64
		for i := 0; i < 200; i++ {
			entries, from := c.DiffsFrom(cursor)
			for _, e := range entries {
				if e.Generation != from+1 {
					t.Errorf("replay gap: got generation %d after %d", e.Generation, from)
					return
				}
				from = e.Generation
			}
			cursor = from
		}
	}()
	if err := c.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	<-done
}

func TestLeaseStateGenPairsStateWithGeneration(t *testing.T) {
	c, err := New(testConfig(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, gen, release := c.LeaseStateGen()
	release()
	if st != nil || gen != 0 {
		t.Fatalf("pre-start lease = (%v, %d)", st, gen)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	st, gen, release = c.LeaseStateGen()
	defer release()
	if st == nil || gen != c.Generation() {
		t.Fatalf("lease = (%v, %d), coordinator at %d", st != nil, gen, c.Generation())
	}
	// The paired generation labels this snapshot: its offset matches the
	// retained diff record for the same generation.
	entries, _ := c.DiffsFrom(gen - 1)
	if len(entries) != 1 {
		t.Fatalf("DiffsFrom(gen-1) = %d entries", len(entries))
	}
	if entries[0].Diff.T != st.T {
		t.Errorf("generation %d record T %v != leased state T %v", gen, entries[0].Diff.T, st.T)
	}
}

func TestUpdateChanClosesOnUpdate(t *testing.T) {
	c := started(t)
	ch := c.UpdateChan()
	select {
	case <-ch:
		t.Fatal("notify channel closed before any further update")
	default:
	}
	if err := c.Run(c.Config().Resolution); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	default:
		t.Fatal("notify channel not closed by the update")
	}
	// The replacement channel is again open.
	select {
	case <-c.UpdateChan():
		t.Fatal("fresh notify channel already closed")
	default:
	}
}
