package constellation

import (
	"math"
	"sync"
	"testing"

	"celestial/internal/graph"
	"celestial/internal/orbit"
)

// entryFor digs a state's cached tree for a source out of its shard, nil
// when the state holds none.
func entryFor(st *State, src int) *pathEntry {
	sh := &st.paths[src%pathShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s := sh.m[src]; s != nil {
		return s.tree
	}
	return nil
}

// pairFor digs a state's cached pair entry for (src, dst) out of its shard,
// nil when the state holds none.
func pairFor(st *State, src, dst int) *pairEntry {
	sh := &st.paths[src%pathShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s := sh.m[src]; s != nil {
		return s.pair(dst)
	}
	return nil
}

// plantTree reads src's whole tree on st, the way BestMeetingPoint does,
// so that st's cache holds a tree for it.
func plantTree(t *testing.T, st *State, src int) {
	t.Helper()
	if _, err := st.pathsFor(src); err != nil {
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
			for _, src := range sources {
				if e := entryFor(st, src); e == nil || !e.done.Load() {
					t.Fatalf("tick %d: source %d not pre-repaired on a structural tick", i, src)
				}
			}
		}
		repairedTotal += d.RepairedPaths
		fallbackTotal += d.RepairFallbacks

		ref, err := fresh.Snapshot(offset)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range sources {
			want, err1 := ref.pathsFor(src)
			got, err2 := st.pathsFor(src)
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
			want, err1 := ref.pathsFor(src)
			got, err2 := st.pathsFor(src)
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
			if e, pe := entryFor(st, accra), pairFor(st, accra, jbg); e != nil || pe != nil {
				t.Fatalf("tick %d: tree or pair pre-populated with repair disabled", i)
			}
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

// TestRepairReusesHarvestedEntries locks in the pathEntry spares pool: when
// a recycled buffer's cache is rebuilt by repair, the entry structs (not
// just their arrays) come from the buffer's own harvest instead of the
// heap.
func TestRepairReusesHarvestedEntries(t *testing.T) {
	c := mustNew(t, testConfig(t, orbit.ModelKepler))
	tp := &tickingPool{pool: c.NewSnapshotPool()}
	sources := []int{0, 1, 2, 3, 4}

	stA := tp.tick(t, 0) // buffer X
	harvestable := map[*pathEntry]bool{}
	for _, src := range sources {
		plantTree(t, stA, src)
		harvestable[entryFor(stA, src)] = true
	}
	tp.tick(t, 7.5) // buffer Y; X still the pool's diff base
	// Structural tick into the recycled buffer X: reset harvests X's old
	// entries, repairPaths must reuse them for the repaired cache.
	stC := tp.tick(t, 15)
	if stC != stA {
		t.Skip("pool did not recycle the first buffer (unexpected scheduling)")
	}
	if stC.Diff().LinksUnchanged() {
		t.Skip("7.5 s tick produced no link delta (scenario-dependent)")
	}
	reused := 0
	for _, src := range sources {
		e := entryFor(stC, src)
		if e == nil {
			continue // entry was lost to a repair error; recomputed lazily
		}
		if harvestable[e] {
			reused++
		}
	}
	if reused == 0 {
		t.Fatal("no repaired entry reused a harvested pathEntry struct")
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
			_, err = st.pathsFor(src)
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
		if e := entryFor(st, accra); e == nil || !e.done.Load() {
			t.Fatalf("tick %d: the source read every tick was not carried", i)
		}
		if i <= idleSnapshots && entryFor(st, jbg) == nil && pairFor(st, jbg, accra) == nil {
			t.Fatalf("tick %d: a one-off source read by a pair left the cache early", i)
		}
		read(st, accra, true)
	}
	if e := entryFor(st, 0); e != nil {
		t.Fatal("a one-off tree is still cached after idleSnapshots unread ticks")
	}
	if e, pe := entryFor(st, jbg), pairFor(st, jbg, accra); e != nil || pe != nil {
		t.Fatal("a one-off source read by a pair is still cached after idleSnapshots unread ticks")
	}
	if shared == 0 || repaired == 0 {
		t.Fatalf("schedule too tame: %d shared and %d repaired entries", shared, repaired)
	}
}

// TestLateReadReachesRepairedEntry: a read of the previous state after a
// Prefetch already repaired that source counts for the repaired entry's
// age, as it would had the whole snapshot run at the tick boundary.
func TestLateReadReachesRepairedEntry(t *testing.T) {
	c := mustNew(t, testConfig(t, orbit.ModelKepler))
	tp := &tickingPool{pool: c.NewSnapshotPool()}
	accra, _ := c.GSTNodeByName("accra")
	offset := 100.0
	st := tp.tick(t, offset)
	plantTree(t, st, accra)
	offset += 7.5
	st = tp.tick(t, offset) // repairs accra's tree; nobody reads it
	offset += 7.5
	tp.pool.Prefetch(offset)
	<-tp.pool.pre.done
	if _, err := st.Latency(accra, 0); err != nil { // a pair read reads the tree
		t.Fatal(err)
	}
	next := tp.tick(t, offset)
	if next.Diff().RepairedPaths+next.Diff().RepairFallbacks != 1 {
		t.Fatalf("diff %+v: the schedule no longer repairs the source", next.Diff().Stats())
	}
	if got := entryFor(next, accra).lastRead.Load(); got != st.seq {
		t.Fatalf("repaired entry last read at seq %d, want %d (the late read)", got, st.seq)
	}
}
