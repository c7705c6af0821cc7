package coordinator

import (
	"bytes"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"celestial/internal/geom"
	"celestial/internal/hostlink"
)

// prefetchRunning reports whether a goroutine started by
// SnapshotPool.Prefetch is alive: its stack names its creator.
func prefetchRunning() bool {
	stacks := make([]byte, 1<<20)
	return bytes.Contains(stacks[:runtime.Stack(stacks, true)], []byte("SnapshotPool).Prefetch"))
}

// prefetchProbe is a loopback applier that only looks, from inside
// distribution, for a running prepare.
type prefetchProbe struct{ applies, found int }

func (p *prefetchProbe) look() error {
	p.applies++
	if prefetchRunning() {
		p.found++
	}
	return nil
}

func (p *prefetchProbe) ApplySnapshot(*hostlink.Snapshot) error { return p.look() }
func (p *prefetchProbe) ApplyDiff(*hostlink.DiffFrame) error    { return p.look() }

// TestNextPrepareLaunchedBeforeDistribution pins the order of the tick
// boundary: the prepare of generation k+1 is launched as soon as k is
// published, before the fan-out tier distributes k, so the two run beside
// each other. The tier's one shard applies through a probe that looks for
// the prepare's goroutine. At GOMAXPROCS 1 that goroutine cannot run
// before the update loop yields, so the probe finds it whenever it was
// launched before distribution, and never when it is launched after (the
// prepare Snapshot joined has exited by then). A GC assist or a preemption
// may yield on a tick, so the test asks for most ticks rather than all;
// it first waits out the prepares other tests left in flight.
func TestNextPrepareLaunchedBeforeDistribution(t *testing.T) {
	for deadline := time.Now().Add(10 * time.Second); prefetchRunning(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("a prepare of an earlier test is still running")
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c, err := New(testConfig(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	probe := &prefetchProbe{}
	c.fo, err = hostlink.New(hostlink.Config{
		Shards:   1,
		ShardOf:  func(int) int { return 0 },
		Machines: []int{len(c.byNode)},
		Appliers: []hostlink.Applier{probe},
		Now:      c.sim.Now,
		After:    c.sim.After,
		Snapshot: c.shardSnapshot,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(20 * c.Config().Resolution); err != nil {
		t.Fatal(err)
	}
	if probe.applies < 10 || 2*probe.found <= probe.applies {
		t.Fatalf("the next prepare was running on %d of %d distributions, want most (of at least 10)", probe.found, probe.applies)
	}
}

// TestLeaseStateAcrossTheBoundary takes leases as fast as it can while the
// update loop runs, so that some land just before the swap and are still
// held when the replaced state is recycled and the next prepare starts:
// a leased buffer must never be the one that prepare overwrites. Under
// -race an overwrite is a reported race besides a changed state.
func TestLeaseStateAcrossTheBoundary(t *testing.T) {
	c := started(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var pos []geom.Vec3
			for {
				select {
				case <-stop:
					return
				default:
				}
				st, _, release := c.LeaseState()
				T, links := st.T, st.LinkCount()
				pos = append(pos[:0], st.Positions...)
				runtime.Gosched()
				if st.T != T || st.LinkCount() != links || !slices.Equal(st.Positions, pos) {
					errs <- "a leased state changed while held"
					release()
					return
				}
				release()
			}
		}()
	}
	for i := 0; i < 40; i++ {
		if err := c.Run(c.Config().Resolution); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}
}
