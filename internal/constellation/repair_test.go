package constellation

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"celestial/internal/graph"
	"celestial/internal/orbit"
)

// idleSnapshots is how many states the path cache keeps an entry nobody
// reads (paths' eviction horizon), pinned here.
const idleSnapshots = 10

// plantTree reads src's whole tree on st, the way BestMeetingPoint does,
// so that st's cache holds a tree for it.
func plantTree(t *testing.T, st *State, src int) {
	t.Helper()
	if _, err := st.paths.Tree(src); err != nil {
		t.Fatal(err)
	}
}

// assertSPIdentical compares two single-source results bit for bit —
// distances and predecessors, the acceptance bar for repaired entries.
func assertSPIdentical(t *testing.T, label string, want, got graph.ShortestPaths) {
	t.Helper()
	if want.Source != got.Source || len(want.Dist) != len(got.Dist) {
		t.Fatalf("%s: shape %d/%d vs %d/%d", label, want.Source, len(want.Dist), got.Source, len(got.Dist))
	}
	for v := range want.Dist {
		wd, gd := want.Dist[v], got.Dist[v]
		if wd != gd && !(math.IsInf(wd, 1) && math.IsInf(gd, 1)) {
			t.Fatalf("%s: dist[%d] = %v, fresh %v", label, v, gd, wd)
		}
		if want.Prev[v] != got.Prev[v] {
			t.Fatalf("%s: prev[%d] = %d, fresh %d", label, v, got.Prev[v], want.Prev[v])
		}
	}
}

// TestRepairedPathsMatchFreshAcrossTicks is the repair differential
// property at test scale: across 120 one-second ticks — essentially all of
// which carry non-empty link diffs — every cache entry the pool repaired
// (or transplanted, or fell back to recompute on) is bit-identical,
// distances and predecessors, to a fresh Dijkstra on a from-scratch
// snapshot of the same epoch.
func TestRepairedPathsMatchFreshAcrossTicks(t *testing.T) {
	c := mustNew(t, testConfig(t, orbit.ModelKepler))
	fresh := mustNew(t, testConfig(t, orbit.ModelKepler))
	tp := &tickingPool{pool: c.NewSnapshotPool()}
	accra, _ := c.GSTNodeByName("accra")
	jbg, _ := c.GSTNodeByName("johannesburg")
	sources := []int{accra, jbg, 0, 137}

	repairedTotal, fallbackTotal, structuralTicks := 0, 0, 0
	for i := 0; i <= 120; i++ {
		offset := float64(i)
		st := tp.tick(t, offset)
		d := st.Diff()
		if i > 0 && !d.LinksUnchanged() {
			structuralTicks++
			// The previous tick's queried sources must arrive already
			// repaired — no lazy recompute hidden behind the query.
			if got := d.RepairedPaths + d.RepairFallbacks; got != len(sources) {
				t.Fatalf("tick %d: %d of %d sources pre-repaired on a structural tick", i, got, len(sources))
			}
		}
		repairedTotal += d.RepairedPaths
		fallbackTotal += d.RepairFallbacks

		ref, err := fresh.Snapshot(offset)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range sources {
			want, err1 := ref.paths.Tree(src)
			got, err2 := st.paths.Tree(src)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			assertSPIdentical(t, "tick", want, got)
		}
	}
	if structuralTicks == 0 {
		t.Fatal("no structural ticks over 120 s of satellite motion")
	}
	if repairedTotal == 0 {
		t.Fatalf("no entry took the repair fast path over %d structural ticks (fallbacks: %d)",
			structuralTicks, fallbackTotal)
	}
	t.Logf("structural ticks: %d, repaired entries: %d, fallbacks: %d",
		structuralTicks, repairedTotal, fallbackTotal)
}

// TestStarlinkP1RepairDifferential is the acceptance-scale differential: a
// multi-tick Starlink Phase 1 run at a 1 s step (every tick ships a link
// delta at this scale), with repaired ground-station and satellite trees
// compared bit for bit against from-scratch snapshots.
func TestStarlinkP1RepairDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("full Starlink phase 1 differential is slow")
	}
	c := mustNew(t, starlinkP1Config(t, orbit.ModelKepler))
	fresh := mustNew(t, starlinkP1Config(t, orbit.ModelKepler))
	tp := &tickingPool{pool: c.NewSnapshotPool()}
	accra, _ := c.GSTNodeByName("accra")
	berlin, _ := c.GSTNodeByName("berlin")
	hawaii, _ := c.GSTNodeByName("hawaii")
	sources := []int{accra, berlin, hawaii, 1000}

	repairedTotal := 0
	for i := 0; i <= 8; i++ {
		offset := float64(i)
		st := tp.tick(t, offset)
		repairedTotal += st.Diff().RepairedPaths
		ref, err := fresh.Snapshot(offset)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range sources {
			want, err1 := ref.paths.Tree(src)
			got, err2 := st.paths.Tree(src)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			assertSPIdentical(t, "p1", want, got)
		}
		if i > 0 && st.Diff().LinksUnchanged() {
			t.Errorf("tick %d: 1 s of Starlink motion produced no link delta", i)
		}
	}
	if repairedTotal == 0 {
		t.Fatal("no entry took the repair fast path across the Phase 1 run")
	}
}

// TestRepairUnderConcurrentQueries ticks the pool while readers hammer the
// previous (still published, leased-style) state — under -race this locks
// in that repair only ever copies leased entries, never mutates them.
func TestRepairUnderConcurrentQueries(t *testing.T) {
	c := mustNew(t, testConfig(t, orbit.ModelKepler))
	pool := c.NewSnapshotPool()
	n := c.NodeCount()

	var mu sync.Mutex
	cur, err := pool.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				st := cur
				if _, err := st.Latency((seed*31+i*17)%n, (seed*7+i*3)%n); err != nil {
					mu.Unlock()
					t.Error(err)
					return
				}
				mu.Unlock()
			}
		}(w)
	}
	var prev *State
	for i := 1; i <= 25; i++ {
		// 3 s steps make essentially every tick structural, driving the
		// repair path while the readers run.
		st, err := pool.Snapshot(float64(i) * 3)
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		prev, cur = cur, st
		mu.Unlock()
		pool.Recycle(prev)
	}
	close(stop)
	wg.Wait()
}

// TestPathBandwidthAndMeetingPointUnderDiffPipeline exercises
// State.PathBandwidth and State.BestMeetingPoint against the diff-driven
// update pipeline: values served from repaired or transplanted caches must
// match a from-scratch snapshot at every tick.
func TestPathBandwidthAndMeetingPointUnderDiffPipeline(t *testing.T) {
	for _, dt := range []float64{0.05, 4} { // carry-over and repair regimes
		c := mustNew(t, testConfig(t, orbit.ModelKepler))
		fresh := mustNew(t, testConfig(t, orbit.ModelKepler))
		tp := &tickingPool{pool: c.NewSnapshotPool()}
		accra, _ := c.GSTNodeByName("accra")
		abuja, _ := c.GSTNodeByName("abuja")
		jbg, _ := c.GSTNodeByName("johannesburg")
		clients := []int{accra, abuja, jbg}
		for i := 0; i < 15; i++ {
			offset := 50 + float64(i)*dt
			st := tp.tick(t, offset)
			ref, err := fresh.Snapshot(offset)
			if err != nil {
				t.Fatal(err)
			}
			for _, pair := range [][2]int{{accra, jbg}, {abuja, accra}, {0, jbg}} {
				wantBW, wantOK := ref.PathBandwidth(pair[0], pair[1])
				gotBW, gotOK := st.PathBandwidth(pair[0], pair[1])
				if wantBW != gotBW || wantOK != gotOK {
					t.Fatalf("dt=%v tick %d: PathBandwidth(%v) = %v/%v, fresh %v/%v",
						dt, i, pair, gotBW, gotOK, wantBW, wantOK)
				}
			}
			wantNode, wantLat, err1 := ref.BestMeetingPoint(clients)
			gotNode, gotLat, err2 := st.BestMeetingPoint(clients)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if wantNode != gotNode || wantLat != gotLat {
				t.Fatalf("dt=%v tick %d: BestMeetingPoint = %d/%v, fresh %d/%v",
					dt, i, gotNode, gotLat, wantNode, wantLat)
			}
		}
	}
}

// TestRepairDisabledRecomputesLazily pins the SetPathRepair(false) knob the
// benchmarks compare against: structural ticks stop pre-repairing entries
// and queries recompute from scratch — with identical results.
func TestRepairDisabledRecomputesLazily(t *testing.T) {
	c := mustNew(t, testConfig(t, orbit.ModelKepler))
	fresh := mustNew(t, testConfig(t, orbit.ModelKepler))
	tp := &tickingPool{pool: c.NewSnapshotPool()}
	tp.pool.SetPathRepair(false)
	accra, _ := c.GSTNodeByName("accra")
	jbg, _ := c.GSTNodeByName("johannesburg")
	structural := false
	for i := 0; i <= 10; i++ {
		st := tp.tick(t, float64(i)*5)
		d := st.Diff()
		if d.RepairedPaths != 0 || d.RepairFallbacks != 0 {
			t.Fatalf("tick %d: repair ran while disabled: %+v", i, d.Stats())
		}
		if i > 0 && !d.LinksUnchanged() {
			structural = true
		}
		ref, err := fresh.Snapshot(float64(i) * 5)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := ref.Latency(accra, jbg)
		got, err := st.Latency(accra, jbg)
		if err != nil || want != got {
			t.Fatalf("tick %d: latency %v (%v) vs fresh %v", i, got, err, want)
		}
	}
	if !structural {
		t.Fatal("no structural tick at 5 s steps")
	}
}

// TestRepairReusesRecycledArrays locks in the array reuse of spareTrees,
// which the benchmark's memory footprint depends on: when a recycled
// buffer's cache is rebuilt by repair, the repaired trees compute into the
// arrays the buffer's reset put back instead of into new ones. A sync.Pool
// may drop any of them (at random under -race, and at every second GC), so
// one reused array out of ten trees passes.
func TestRepairReusesRecycledArrays(t *testing.T) {
	c := mustNew(t, testConfig(t, orbit.ModelKepler))
	tp := &tickingPool{pool: c.NewSnapshotPool()}
	const trees = 10

	stA := tp.tick(t, 0) // buffer X
	recycled := map[*float64]bool{}
	for src := 0; src < trees; src++ {
		sp, err := stA.paths.Tree(src)
		if err != nil {
			t.Fatal(err)
		}
		recycled[&sp.Dist[0]] = true
	}
	// Buffer Y repairs X's trees into arrays of its own; X stays the
	// pool's diff base. Had no link changed, Y would share X's trees and
	// X's reset would keep them out of the pool.
	if tp.tick(t, 7.5).Diff().LinksUnchanged() {
		t.Skip("7.5 s tick produced no link delta (scenario-dependent)")
	}
	// Drain what earlier states put back, so the repairs below can only
	// draw X's arrays.
	runtime.GC()
	runtime.GC()
	// Structural tick into the recycled buffer X: its reset puts X's trees
	// back, and the repairs of Y's trees take them.
	stC := tp.tick(t, 15)
	if stC != stA {
		t.Skip("pool did not recycle the first buffer (unexpected scheduling)")
	}
	if stC.Diff().LinksUnchanged() {
		t.Skip("15 s tick produced no link delta (scenario-dependent)")
	}
	if d := stC.Diff(); d.RepairedPaths+d.RepairFallbacks != trees {
		t.Fatalf("diff %+v: the schedule no longer repairs every tree", d.Stats())
	}
	reused := 0
	for src := 0; src < trees; src++ {
		// The trees are held, so these reads compute nothing.
		if sp, err := stC.paths.Tree(src); err == nil && recycled[&sp.Dist[0]] {
			reused++
		}
	}
	if reused == 0 {
		t.Fatal("no repaired tree computed into a recycled array")
	}
}

// TestUnreadSourcesAreForgotten: a path source nobody reads leaves the
// cache idleSnapshots ticks after its last read, instead of costing a
// carry-over, a repair or a re-search on every later tick. One source is
// read every tick; six one-off sources are read once, on the first state,
// three as whole trees and three by a pair read. The ticks mix 5 ms steps,
// whose unchanged links share trees and pairs, with multi-second ones,
// which repair and re-search them.
func TestUnreadSourcesAreForgotten(t *testing.T) {
	c := mustNew(t, testConfig(t, orbit.ModelKepler))
	tp := &tickingPool{pool: c.NewSnapshotPool()}
	accra, _ := c.GSTNodeByName("accra")
	jbg, _ := c.GSTNodeByName("johannesburg")
	oneOff := []int{0, 50, 137, 300, 511, jbg}
	read := func(st *State, src int, whole bool) {
		t.Helper()
		var err error
		if whole {
			_, err = st.paths.Tree(src)
		} else {
			_, err = st.Latency(src, accra)
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	offset := 100.0
	st := tp.tick(t, offset)
	read(st, accra, true)
	for i, src := range oneOff {
		read(st, src, i%2 == 0)
	}
	shared, repaired := 0, 0
	for i := 1; i <= idleSnapshots+1; i++ {
		if i%2 == 0 {
			offset += 0.005
		} else {
			offset += 7.5
		}
		st = tp.tick(t, offset)
		d := st.Diff()
		shared += d.CarriedPaths
		repaired += d.RepairedPaths + d.RepairFallbacks
		want := 1 + len(oneOff)
		if i > idleSnapshots {
			want = 1
		}
		if got := d.CarriedPaths + d.RepairedPaths + d.RepairFallbacks; got != want {
			t.Fatalf("tick %d: %d sources carried or repaired, want %d", i, got, want)
		}
		read(st, accra, true)
	}
	if shared == 0 || repaired == 0 {
		t.Fatalf("schedule too tame: %d shared and %d repaired entries", shared, repaired)
	}
}

// TestLateReadReachesRepairedEntry: a read of the previous state after a
// Prefetch already repaired that source counts for the repaired entry's
// age, as it would had the whole snapshot run at the tick boundary: the
// source goes on for idleSnapshots states after the late read, and one
// state fewer had the read been lost.
func TestLateReadReachesRepairedEntry(t *testing.T) {
	c := mustNew(t, testConfig(t, orbit.ModelKepler))
	tp := &tickingPool{pool: c.NewSnapshotPool()}
	accra, _ := c.GSTNodeByName("accra")
	offset := 100.0
	st := tp.tick(t, offset) // state 0
	plantTree(t, st, accra)
	offset += 7.5
	st = tp.tick(t, offset) // state 1 repairs accra's tree; nobody reads it
	offset += 7.5
	tp.pool.Prefetch(offset)
	<-tp.pool.pre.done
	if _, err := st.Latency(accra, 0); err != nil { // a pair read reads the tree
		t.Fatal(err)
	}
	for k := 2; k <= idleSnapshots+2; k++ {
		d := tp.tick(t, offset).Diff()
		offset += 7.5
		want := 1
		if k > idleSnapshots+1 {
			want = 0
		}
		if got := d.CarriedPaths + d.RepairedPaths + d.RepairFallbacks; got != want {
			t.Fatalf("state %d: %d sources brought forward, want %d (last read on state 1)", k, got, want)
		}
	}
}
