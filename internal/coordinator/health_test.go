package coordinator

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"celestial/internal/constellation"
	"celestial/internal/faults"
	"celestial/internal/machine"
	"celestial/internal/rng"
)

// scanOverlay is the activity overlay as it was before the failed-node
// set: every node whose machine is Failed reads inactive, found by asking
// every machine. It is the reference the set must match.
func scanOverlay(c *Coordinator, active []bool) {
	for id, m := range c.byNode {
		if active[id] && m != nil && m.State() == machine.Failed {
			active[id] = false
		}
	}
}

// overlayProbe replaces c's activity overlay with the coordinator's own
// (failed-node set) behind a recorder: it keeps what the full scan makes of
// the same bounding-box activity at the same instant, and counts the
// machine-state reads the set makes. Install it before Start.
type overlayProbe struct {
	want  []bool
	reads int
}

func probeOverlay(c *Coordinator) *overlayProbe {
	p := &overlayProbe{}
	failed := func(id int) bool {
		p.reads++
		return c.nodeFailed(id)
	}
	c.pool.SetActivityOverlay(func(active []bool) {
		p.want = append(p.want[:0], active...)
		scanOverlay(c, p.want)
		c.failed.clear(active, failed)
	})
	return p
}

// TestFailedSetMatchesFullScan drives random crash sequences through both
// ways a machine fails — the SEU injector (InjectFaultsFor, whose reboots go
// through the host) and the scenario's scripted node-down/node-up (a bare
// Machine.Crash and Host.StartMachine) — and requires every tick's Active
// to be the bytes the full scan gives. The sequences crash, restart and
// crash one machine again within one interval, and script node-down on
// machines that are already down.
func TestFailedSetMatchesFullScan(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			c, err := New(testConfig(t), Options{})
			if err != nil {
				t.Fatal(err)
			}
			probe := probeOverlay(c)
			if err := c.Start(); err != nil {
				t.Fatal(err)
			}
			rnd := rng.New(seed)
			res := c.Config().Resolution
			var sats []int
			for _, n := range c.Constellation().Nodes() {
				if n.Kind == constellation.KindSatellite {
					sats = append(sats, n.ID)
				}
			}
			at := func(frac float64, fn func()) {
				if err := c.Sim().After(time.Duration(frac*float64(res)), fn); err != nil {
					t.Fatal(err)
				}
			}
			down := func(node int) func() {
				return func() { _ = c.byNode[node].Crash(c.Sim().Now(), "scenario: scripted outage") }
			}
			up := func(node int) func() {
				return func() { _ = c.hostOf[node].StartMachine(node) }
			}
			deactivated := 0
			for tick := 0; tick < 40; tick++ {
				if tick%10 == 0 {
					model := faults.SEUModel{RatePerHour: 20, ShutdownProb: 1, RebootAfter: res / 2}
					if err := c.InjectFaultsFor(model, rng.Derive(seed, uint64(tick)), 5*res); err != nil {
						t.Fatal(err)
					}
				}
				for i, n := 0, rnd.Intn(4); i < n; i++ {
					node := sats[rnd.Intn(len(sats))]
					switch rnd.Intn(3) {
					case 0: // crash, restart and crash again inside the interval
						at(0.1, down(node))
						at(0.3, up(node))
						at(0.6, down(node))
					case 1: // down now, and again while (probably) still down
						at(0.2, down(node))
						at(0.7, down(node))
					default:
						at(rnd.Float64(), up(node))
					}
				}
				if err := c.Run(res); err != nil {
					t.Fatal(err)
				}
				if got := c.State().Active; !slices.Equal(got, probe.want) {
					t.Fatalf("tick %d: Active differs from the full scan", tick)
				}
				deactivated += c.LastDiff().Deactivated
			}
			if deactivated == 0 {
				t.Fatal("no machine ever read inactive: the sequence tested nothing")
			}
		})
	}
}

// TestHealthyRunReadsNoMachineState pins the overlay's cost shape: on a run
// where no machine fails it reads no machine's state at all.
func TestHealthyRunReadsNoMachineState(t *testing.T) {
	c, err := New(testConfig(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	probe := probeOverlay(c)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(20 * c.Config().Resolution); err != nil {
		t.Fatal(err)
	}
	if probe.reads != 0 {
		t.Fatalf("overlay read %d machine states on a run without failures", probe.reads)
	}
	if !slices.Equal(c.State().Active, probe.want) {
		t.Fatal("Active differs from the full scan")
	}
}

// TestFailedSetUnderConcurrentCrashes crashes and restarts machines from
// several goroutines while the overlay runs: under -race it checks the
// set's locking, and once the goroutines are done one more overlay pass
// must agree with the full scan.
func TestFailedSetUnderConcurrentCrashes(t *testing.T) {
	c, err := New(testConfig(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := len(c.byNode)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rnd := rng.New(int64(w))
			now := time.Unix(0, 0)
			for i := 0; i < 2000; i++ {
				m := c.byNode[rnd.Intn(n)]
				if rnd.Intn(2) == 0 {
					_ = m.Crash(now, "test")
				} else {
					_ = m.Start(now)
				}
			}
		}(w)
	}
	active := make([]bool, n)
	for i := 0; i < 200; i++ {
		for j := range active {
			active[j] = true
		}
		c.failed.clear(active, c.nodeFailed)
	}
	wg.Wait()
	want := make([]bool, n)
	for j := range active {
		active[j], want[j] = true, true
	}
	c.failed.clear(active, c.nodeFailed)
	scanOverlay(c, want)
	if !slices.Equal(active, want) {
		t.Fatal("Active differs from the full scan after concurrent crashes")
	}
}
