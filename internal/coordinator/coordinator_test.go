package coordinator

import (
	"errors"
	"testing"
	"time"

	"celestial/internal/bbox"
	"celestial/internal/config"
	"celestial/internal/constellation"
	"celestial/internal/faults"
	"celestial/internal/geom"
	"celestial/internal/machine"
	"celestial/internal/orbit"
	"celestial/internal/retry"
	"celestial/internal/supervise"
	"celestial/internal/vnet"
)

func testConfig(t testing.TB) *config.Config {
	t.Helper()
	cfg := &config.Config{
		Duration:   2 * time.Minute,
		Resolution: 2 * time.Second,
		Hosts:      3,
		Shells: []config.Shell{{
			ShellConfig: orbit.ShellConfig{
				Name: "shell", Planes: 24, SatsPerPlane: 22, AltitudeKm: 550,
				InclinationDeg: 53, ArcDeg: 360, PhasingFactor: 13, Model: orbit.ModelKepler,
			},
		}},
		GroundStations: []config.GroundStation{
			{Name: "accra", Location: geom.LatLon{LatDeg: 5.6037, LonDeg: -0.1870}},
			{Name: "johannesburg", Location: geom.LatLon{LatDeg: -26.2041, LonDeg: 28.0473}},
		},
	}
	cfg.Network.MinElevationDeg = 25
	if err := config.Finalize(cfg); err != nil {
		t.Fatal(err)
	}
	return cfg
}

func started(t testing.TB) *Coordinator {
	t.Helper()
	c, err := New(testConfig(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewBuildsMachinesOnHosts(t *testing.T) {
	c, err := New(testConfig(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Hosts()) != 3 {
		t.Fatalf("hosts = %d", len(c.Hosts()))
	}
	total := 0
	for _, h := range c.Hosts() {
		total += len(h.Machines())
	}
	if want := 24*22 + 2; total != want {
		t.Errorf("machines = %d, want %d", total, want)
	}
	// Ground stations are on host 0 (shared PTP clock per §4.1).
	accra, _ := c.Constellation().GSTNodeByName("accra")
	jbg, _ := c.Constellation().GSTNodeByName("johannesburg")
	for _, id := range []int{accra, jbg} {
		h, err := c.HostOf(id)
		if err != nil {
			t.Fatal(err)
		}
		if h.ID() != 0 {
			t.Errorf("gst %d on host %d", id, h.ID())
		}
	}
	// Satellites are spread across hosts.
	seen := map[int]bool{}
	for sat := 0; sat < 12; sat++ {
		h, err := c.HostOf(sat)
		if err != nil {
			t.Fatal(err)
		}
		seen[h.ID()] = true
	}
	if len(seen) != 3 {
		t.Errorf("first 12 sats on %d hosts, want 3", len(seen))
	}
	if _, err := c.Machine(99999); err == nil {
		t.Error("found machine for bogus node")
	}
	if _, err := c.HostOf(99999); err == nil {
		t.Error("found host for bogus node")
	}
}

func TestStartBootsAndUpdates(t *testing.T) {
	c := started(t)
	if c.State() == nil {
		t.Fatal("no state after Start")
	}
	if c.Generation() != 1 {
		t.Errorf("generation = %d", c.Generation())
	}
	// Run 10 seconds: 5 more updates at 2 s resolution.
	if err := c.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := c.Generation(); got != 6 {
		t.Errorf("generation after 10 s = %d, want 6", got)
	}
	if c.ElapsedSeconds() != 10 {
		t.Errorf("elapsed = %v", c.ElapsedSeconds())
	}
	// All machines active (default boot delay 0, whole-earth box).
	for _, h := range c.Hosts() {
		for _, m := range h.Machines() {
			if m.State() != machine.Active {
				t.Fatalf("machine %d state = %v", m.ID(), m.State())
			}
		}
	}
}

func TestUpdateLoopStopsAfterDuration(t *testing.T) {
	c := started(t)
	if err := c.Run(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	u := c.Generation()
	// Duration is 2 min at 2 s: at most ~62 updates even though we ran
	// 5 minutes.
	if u > 63 {
		t.Errorf("updates = %d, loop did not stop", u)
	}
	if u < 55 {
		t.Errorf("updates = %d, loop stopped early", u)
	}
}

func TestMessageDeliveryThroughNetwork(t *testing.T) {
	c := started(t)
	accra, _ := c.Constellation().GSTNodeByName("accra")
	jbg, _ := c.Constellation().GSTNodeByName("johannesburg")

	var got []vnet.Message
	c.Network().Handle(jbg, func(m vnet.Message) { got = append(got, m) })
	c.Network().Handle(accra, func(vnet.Message) {})

	if err := c.Network().Send(accra, jbg, 1000, "ping"); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("delivered = %d", len(got))
	}
	// Accra-Johannesburg is ~4500 km: latency must be tens of ms, far
	// below a second, and above the straight-line bound ~15 ms.
	lat := got[0].Latency()
	if lat < 15*time.Millisecond || lat > 100*time.Millisecond {
		t.Errorf("latency = %v", lat)
	}
}

func TestSuspendedDestinationRejects(t *testing.T) {
	cfg := testConfig(t)
	// Tiny box over West Africa: nearly all satellites suspended.
	cfg.BoundingBox = bbox.Box{LatMinDeg: 0, LonMinDeg: -10, LatMaxDeg: 10, LonMaxDeg: 10}
	c, err := New(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	// Run past one update cycle so the bounding box suspension is
	// applied to the booted machines.
	if err := c.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := c.State()
	// Find a suspended satellite.
	suspended := -1
	for id, node := range c.Constellation().Nodes() {
		if node.Kind == constellation.KindSatellite && !st.Active[id] {
			suspended = id
			break
		}
	}
	if suspended < 0 {
		t.Fatal("no suspended satellite with a tiny bounding box")
	}
	accra, _ := c.Constellation().GSTNodeByName("accra")
	c.Network().Handle(suspended, func(vnet.Message) {})
	c.Network().Handle(accra, func(vnet.Message) {})
	err = c.Network().Send(accra, suspended, 100, nil)
	if !errors.Is(err, vnet.ErrSuspended) {
		t.Errorf("send to suspended = %v", err)
	}
}

func TestTopologyTracksUpdates(t *testing.T) {
	c := started(t)
	accra, _ := c.Constellation().GSTNodeByName("accra")
	jbg, _ := c.Constellation().GSTNodeByName("johannesburg")
	var latencies []time.Duration
	c.Network().Handle(jbg, func(m vnet.Message) { latencies = append(latencies, m.Latency()) })
	c.Network().Handle(accra, func(vnet.Message) {})

	// Send one message every 10 s over 2 minutes; as satellites move,
	// latency must change between coordinator updates.
	if err := c.Sim().Every(c.Sim().Now(), 10*time.Second, func() bool {
		_ = c.Network().Send(accra, jbg, 100, nil)
		return len(latencies) < 12
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(119 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(latencies) < 10 {
		t.Fatalf("deliveries = %d", len(latencies))
	}
	distinct := map[time.Duration]bool{}
	for _, l := range latencies {
		distinct[l] = true
	}
	if len(distinct) < 3 {
		t.Errorf("only %d distinct latencies over 2 minutes", len(distinct))
	}
}

func TestInjectFaults(t *testing.T) {
	c := started(t)
	model := faults.SEUModel{
		RatePerHour:  60, // high rate for test speed
		ShutdownProb: 1,
		RebootAfter:  5 * time.Second,
	}
	if err := c.InjectFaults(model, 7); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	// With 528 sats at 1 SEU/min each over 2 min, crashes are certain.
	crashes := 0
	for _, h := range c.Hosts() {
		for _, m := range h.Machines() {
			for _, tr := range m.Transitions() {
				if tr.To == machine.Failed {
					crashes++
				}
			}
		}
	}
	if crashes == 0 {
		t.Error("no crashes despite fault injection")
	}
	if err := c.InjectFaults(faults.SEUModel{RatePerHour: -1}, 0); err == nil {
		t.Error("accepted invalid model")
	}
}

// TestInjectFaultsSurfaceInDiff locks the interaction between fault
// injection and the diff/repair pipeline: a satellite crashed by a
// radiation SEU must appear as a Deactivated flip in LastDiff() on the
// next tick (the health overlay folds machine state into snapshot
// activity), its reboot as an Activated flip (host-mediated boots actually
// complete), and the shortest-path cache must keep being carried or
// repaired across those fault ticks rather than silently dropped.
func TestInjectFaultsSurfaceInDiff(t *testing.T) {
	c := started(t)
	accra, _ := c.Constellation().GSTNodeByName("accra")
	jbg, _ := c.Constellation().GSTNodeByName("johannesburg")
	c.Network().Handle(jbg, func(vnet.Message) {})

	model := faults.SEUModel{
		RatePerHour:  30, // ~4.4 SEUs/tick across 528 sats
		ShutdownProb: 1,
		RebootAfter:  6 * time.Second,
	}
	if err := c.InjectFaults(model, 11); err != nil {
		t.Fatal(err)
	}

	activated, deactivated, preserved := 0, 0, 0
	for i := 0; i < 45; i++ {
		// Keep the accra-sourced path cache entry warm every tick.
		_ = c.Network().Send(accra, jbg, 100, nil)
		if err := c.Run(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		d := c.LastDiff()
		activated += d.Activated
		deactivated += d.Deactivated
		preserved += d.CarriedPaths + d.RepairedPaths + d.RepairFallbacks
		if d.Activated+d.Deactivated > 0 && d.Full {
			t.Fatalf("activity flips on a Full diff at tick %d: %+v", i, d)
		}
	}
	// The whole-earth bounding box of this config never flips activity,
	// so every flip is a machine-health transition.
	if deactivated == 0 {
		t.Fatal("no Deactivated flips despite certain SEU shutdowns")
	}
	if activated == 0 {
		t.Fatal("no Activated flips: SEU reboots never completed")
	}
	if preserved == 0 {
		t.Fatal("path cache never carried or repaired across fault ticks")
	}

	// The state agrees with the machines: any currently-failed satellite
	// reads inactive, and reachability from the ground is preserved.
	st := c.State()
	for _, node := range c.Constellation().Nodes() {
		if node.Kind != constellation.KindSatellite {
			continue
		}
		m, err := c.Machine(node.ID)
		if err != nil {
			t.Fatal(err)
		}
		if m.State() == machine.Failed && st.Active[node.ID] {
			t.Fatalf("failed machine %d still active in state", node.ID)
		}
	}
	if lat, err := st.Latency(accra, jbg); err != nil || lat <= 0 {
		t.Fatalf("ground stations unreachable after fault soak: lat=%v err=%v", lat, err)
	}
}

func TestRunRejectsNegative(t *testing.T) {
	c := started(t)
	if err := c.Run(-time.Second); err == nil {
		t.Error("accepted negative duration")
	}
}

func TestDeterministicRepetitions(t *testing.T) {
	// Three repetitions of the same experiment produce identical
	// latency series (the reproducibility claim of Fig. 6).
	run := func() []time.Duration {
		c := started(t)
		accra, _ := c.Constellation().GSTNodeByName("accra")
		jbg, _ := c.Constellation().GSTNodeByName("johannesburg")
		var out []time.Duration
		c.Network().Handle(jbg, func(m vnet.Message) { out = append(out, m.Latency()) })
		c.Network().Handle(accra, func(vnet.Message) {})
		if err := c.Sim().Every(c.Sim().Now(), 5*time.Second, func() bool {
			_ = c.Network().Send(accra, jbg, 100, nil)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if err := c.Run(time.Minute); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b, d := run(), run(), run()
	if len(a) == 0 || len(a) != len(b) || len(b) != len(d) {
		t.Fatalf("lengths: %d, %d, %d", len(a), len(b), len(d))
	}
	for i := range a {
		if a[i] != b[i] || b[i] != d[i] {
			t.Fatalf("runs diverged at %d: %v, %v, %v", i, a[i], b[i], d[i])
		}
	}
}

func BenchmarkUpdateCycle(b *testing.B) {
	c, err := New(testConfig(b), Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Start(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.update(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestLeaseStatePinsAgainstRecycling(t *testing.T) {
	c := started(t)
	st, release := c.LeaseState()
	if st == nil {
		t.Fatal("no state after Start")
	}
	leasedT := st.T
	accra, _ := c.Constellation().GSTNodeByName("accra")
	jbg, _ := c.Constellation().GSTNodeByName("johannesburg")
	before, err := st.Latency(accra, jbg)
	if err != nil {
		t.Fatal(err)
	}
	// Run many update ticks: without the lease the state from two
	// updates ago would be recycled and overwritten in place.
	if err := c.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if c.Generation() < 10 {
		t.Fatalf("only %d updates ran", c.Generation())
	}
	if st.T != leasedT {
		t.Fatalf("leased state overwritten: T %v -> %v", leasedT, st.T)
	}
	after, err := st.Latency(accra, jbg)
	if err != nil || after != before {
		t.Fatalf("leased state latency changed: %v -> %v (%v)", before, after, err)
	}
	release()
	release() // releasing twice is a safe no-op
	if err := c.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// A fresh lease observes the advanced simulation.
	st2, release2 := c.LeaseState()
	defer release2()
	if st2.T <= leasedT {
		t.Fatalf("state did not advance: T=%v", st2.T)
	}
}

func TestLeaseStateConcurrentWithUpdates(t *testing.T) {
	c := started(t)
	accra, _ := c.Constellation().GSTNodeByName("accra")
	jbg, _ := c.Constellation().GSTNodeByName("johannesburg")
	done := make(chan error, 4)
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			for {
				select {
				case <-stop:
					done <- nil
					return
				default:
				}
				st, release := c.LeaseState()
				if st == nil {
					release()
					continue
				}
				if _, err := st.Latency(accra, jbg); err != nil {
					release()
					done <- err
					return
				}
				if _, err := st.Path(jbg, accra); err != nil {
					release()
					done <- err
					return
				}
				release()
			}
		}()
	}
	// Drive the update loop hard while the readers hammer the states.
	var runErr error
	for i := 0; i < 20 && runErr == nil; i++ {
		runErr = c.Run(4 * time.Second)
	}
	close(stop)
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
}

func TestLastDiffTracksUpdates(t *testing.T) {
	c := started(t)
	first := c.LastDiff()
	if !first.Full {
		t.Fatalf("first update diff = %+v, want Full", first)
	}
	// Advance through several 2 s update ticks: every subsequent diff has
	// the previous tick as its base, and the steady state at this small
	// scale mixes empty and delta ticks.
	if err := c.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	d := c.LastDiff()
	if d.Full {
		t.Fatalf("steady-state diff = %+v, want a based diff", d)
	}
	if d.T <= d.BaseT {
		t.Fatalf("diff window = %v -> %v", d.BaseT, d.T)
	}
	if d.Empty && (d.Added+d.Removed+d.DelayChanged+d.Activated+d.Deactivated) != 0 {
		t.Fatalf("inconsistent stats: %+v", d)
	}
	if d.Empty && (d.RepairedPaths+d.RepairFallbacks) != 0 {
		t.Fatalf("empty diff reported path repairs: %+v", d)
	}
	if d.CarriedPaths != 0 && (d.Added+d.Removed+d.DelayChanged) != 0 {
		t.Fatalf("carried paths across changed links: %+v", d)
	}
}

// TestUpdatesRepairCachedPaths locks the coordinator into the incremental
// pipeline: once traffic has populated the path cache, subsequent updates
// with link deltas repair (or transplant) the queried sources instead of
// dropping them, and the repaired paths keep serving messages.
func TestUpdatesRepairCachedPaths(t *testing.T) {
	c := started(t)
	accra, _ := c.Constellation().GSTNodeByName("accra")
	jbg, _ := c.Constellation().GSTNodeByName("johannesburg")
	delivered := 0
	c.Network().Handle(jbg, func(vnet.Message) { delivered++ })
	repaired, preserved, structural := 0, 0, 0
	if err := c.Sim().Every(c.Sim().Now(), time.Second, func() bool {
		_ = c.Network().Send(accra, jbg, 100, nil)
		d := c.LastDiff()
		if !d.Full && !d.Empty {
			structural++
			repaired += d.RepairedPaths
			preserved += d.RepairedPaths + d.RepairFallbacks + d.CarriedPaths
		}
		return c.ElapsedSeconds() < 60
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(70 * time.Second); err != nil {
		t.Fatal(err)
	}
	if delivered == 0 {
		t.Fatal("no messages delivered")
	}
	if structural == 0 {
		t.Fatal("no structural updates over a minute of simulated time")
	}
	if preserved == 0 {
		t.Fatalf("no cached path survived %d structural updates", structural)
	}
	// The fast path specifically must fire — a suite where every entry
	// fell back to recompute (or rode an activity-only transplant) means
	// the repair is dead, not merely conservative.
	if repaired == 0 {
		t.Fatalf("no entry took the repair fast path across %d structural updates", structural)
	}
}

// TestDiffDrivenUpdatesPreserveDelivery locks in that version-gated shaper
// refresh plus empty-diff skipping does not change what the network
// delivers: messages keep flowing and track topology changes across many
// update ticks (the behavior asserted in detail by
// TestTopologyTracksUpdates; this adds the LastDiff linkage).
func TestDiffDrivenUpdatesPreserveDelivery(t *testing.T) {
	c := started(t)
	accra, _ := c.Constellation().GSTNodeByName("accra")
	jbg, _ := c.Constellation().GSTNodeByName("johannesburg")
	delivered := 0
	c.Network().Handle(jbg, func(vnet.Message) { delivered++ })
	c.Network().Handle(accra, func(vnet.Message) {})
	if err := c.Sim().Every(c.Sim().Now(), time.Second, func() bool {
		_ = c.Network().Send(accra, jbg, 100, nil)
		return delivered < 30
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(45 * time.Second); err != nil {
		t.Fatal(err)
	}
	if delivered < 30 {
		t.Fatalf("delivered = %d", delivered)
	}
	if c.LastDiff().T == 0 && c.LastDiff().Full {
		t.Fatalf("diff stats never advanced: %+v", c.LastDiff())
	}
}

func TestWatchdogWalksLadderAndRecordsDegradation(t *testing.T) {
	// A 1ns budget is impossible to meet, so every tick degrades: the
	// first escalates mid-tick to coalesce, later ones project over budget
	// at tick start and climb to activity-only. This drives the ladder
	// deterministically without depending on real pipeline cost.
	c, err := New(testConfig(t), Options{Watchdog: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	ws := c.Watchdog().Stats()
	if ws.Ticks == 0 || ws.DegradedTicks != ws.Ticks {
		t.Fatalf("watchdog stats = %+v", ws)
	}
	if ws.Coalesced == 0 || ws.ActivityOnly == 0 {
		t.Fatalf("ladder did not walk through coalesce and activity-only: %+v", ws)
	}
	if lvl := c.Watchdog().Level(); lvl != supervise.LevelActivityOnly {
		t.Fatalf("final level = %v", lvl)
	}
	// The degradation level rides on the retained diff records.
	entries, _ := c.DiffsFrom(0)
	if len(entries) == 0 {
		t.Fatal("no diff history")
	}
	degraded := 0
	for _, e := range entries {
		if e.Diff.Degraded > 0 {
			degraded++
		}
	}
	if degraded != len(entries) {
		t.Fatalf("only %d/%d diffs marked degraded", degraded, len(entries))
	}
	// Machines still booted: activity-only ticks keep applying activity,
	// so the fleet is not frozen by degradation.
	booted := 0
	for _, h := range c.Hosts() {
		for _, m := range h.Machines() {
			if m.State() == machine.Active {
				booted++
			}
		}
	}
	if booted == 0 {
		t.Fatal("no machine became active under permanent degradation")
	}
}

func TestWatchdogRecoversWhenBudgetAmple(t *testing.T) {
	// A huge budget is never exceeded: the pipeline must stay at full
	// fidelity and mark nothing degraded.
	c, err := New(testConfig(t), Options{Watchdog: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	ws := c.Watchdog().Stats()
	if ws.Ticks == 0 || ws.DegradedTicks != 0 || ws.Escalations != 0 {
		t.Fatalf("watchdog stats = %+v", ws)
	}
	if st := c.LastDiff(); st.Degraded != 0 {
		t.Fatalf("last diff degraded = %d", st.Degraded)
	}
}

func TestApplyErrorsDoNotAbortRun(t *testing.T) {
	c, err := New(testConfig(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every lifecycle attempt fails: the initial boot sweep and every
	// later activity sweep report errors, but the run must keep going.
	for _, h := range c.Hosts() {
		h.LifecycleOps().SetFaults(1.0, int64(h.ID())+1)
		h.LifecycleOps().SetPolicy(retry.Policy{MaxAttempts: 2}, int64(h.ID())+1)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n, last := c.Fanout().ApplyErrors(); n == 0 || last == nil {
		t.Fatalf("apply errors = %d, last %v", n, last)
	}
	var hs retry.Stats
	for _, h := range c.Hosts() {
		hs.Add(h.LifecycleOps().Stats())
	}
	if hs.GaveUp == 0 || hs.Ops == 0 {
		t.Fatalf("host retry stats = %+v", hs)
	}
	if c.Generation() < 5 {
		t.Fatalf("run stalled at %d updates", c.Generation())
	}
}
