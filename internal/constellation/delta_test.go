package constellation

import (
	"math"
	"slices"
	"sync"
	"testing"

	"celestial/internal/graph"
	"celestial/internal/orbit"
	"celestial/internal/topo"
)

// tickingPool drives a pool with the coordinator's double-buffer
// discipline: the previous state is recycled only after the next one is
// computed, so every tick has a live diff base.
type tickingPool struct {
	pool *SnapshotPool
	prev *State
}

func (tp *tickingPool) tick(t *testing.T, offset float64) *State {
	t.Helper()
	st, err := tp.pool.Snapshot(offset)
	if err != nil {
		t.Fatal(err)
	}
	tp.pool.Recycle(tp.prev)
	tp.prev = st
	return st
}

// TestDiffPipelineMatchesFromScratch is the cross-tick equivalence
// property of the diff engine: advancing N ticks through the pool — diffs,
// recycled buffers, path-cache carry-over and all — yields at every tick a
// state identical to SnapshotSequential computed from scratch at the same
// epoch: positions, links, graph edges, uplinks, latencies and paths.
func TestDiffPipelineMatchesFromScratch(t *testing.T) {
	for _, dt := range []float64{0.05, 7.5} { // sub-quantum and structural ticks
		c := mustNew(t, testConfig(t, orbit.ModelKepler))
		tp := &tickingPool{pool: c.NewSnapshotPool()}
		accra, _ := c.GSTNodeByName("accra")
		jbg, _ := c.GSTNodeByName("johannesburg")
		emptySeen := false
		for i := 0; i < 12; i++ {
			offset := 100 + float64(i)*dt
			st := tp.tick(t, offset)
			fresh, err := c.SnapshotSequential(offset)
			if err != nil {
				t.Fatal(err)
			}
			assertStatesIdentical(t, fresh, st)
			// Latencies and paths must agree even when st's were
			// transplanted from the previous tick's cache rather than
			// recomputed.
			for _, src := range []int{accra, jbg, 0} {
				lf, err1 := fresh.Latency(src, jbg)
				lp, err2 := st.Latency(src, jbg)
				if err1 != nil || err2 != nil || lf != lp {
					t.Fatalf("dt=%v tick %d: latency %v (%v) vs %v (%v)", dt, i, lf, err1, lp, err2)
				}
				pf, _ := fresh.Path(src, accra)
				pp, _ := st.Path(src, accra)
				if len(pf) != len(pp) {
					t.Fatalf("dt=%v tick %d: path lengths %d vs %d", dt, i, len(pf), len(pp))
				}
				for k := range pf {
					if pf[k] != pp[k] {
						t.Fatalf("dt=%v tick %d: paths diverge at %d", dt, i, k)
					}
				}
			}
			if st.Diff().Empty() {
				emptySeen = true
				if i == 0 {
					t.Fatal("first pooled snapshot must be a Full diff")
				}
			}
		}
		if dt == 0.05 && !emptySeen {
			t.Error("no empty diff over 12 sub-quantum ticks")
		}
	}
}

// TestDiffCarryOverServesCachedPaths checks that an empty tick transplants
// previously computed path entries and that transplanted results stay
// readable after the donor state is recycled and overwritten.
func TestDiffCarryOverServesCachedPaths(t *testing.T) {
	c := mustNew(t, testConfig(t, orbit.ModelKepler))
	tp := &tickingPool{pool: c.NewSnapshotPool()}
	accra, _ := c.GSTNodeByName("accra")
	yaounde, _ := c.GSTNodeByName("yaounde")

	st := tp.tick(t, 200)
	if !st.Diff().Full {
		t.Fatal("first snapshot should be Full")
	}
	want, err := st.Latency(accra, yaounde)
	if err != nil {
		t.Fatal(err)
	}

	var carried *State
	carriedTotal := 0
	for i := 1; i <= 40 && carried == nil; i++ {
		st = tp.tick(t, 200+float64(i)*0.02)
		if st.Diff().Empty() {
			if st.Diff().CarriedPaths == 0 {
				t.Fatal("empty diff with a populated base carried no paths")
			}
			carriedTotal += st.Diff().CarriedPaths
			carried = st
		} else {
			// A structural tick invalidates the cache; repopulate.
			if _, err := st.Latency(accra, yaounde); err != nil {
				t.Fatal(err)
			}
		}
	}
	if carried == nil {
		t.Skip("no empty tick found at 20 ms steps (unexpected but scenario-dependent)")
	}
	// Force the donor's buffers to be reused, then read the carried entry.
	next := tp.tick(t, 9999)
	got, err := carried.Latency(accra, yaounde)
	if err != nil {
		t.Fatal(err)
	}
	// The carried graph was bit-identical, so the answer matches the
	// donor's (both ticks quantize to the same link delays).
	if got != want {
		t.Fatalf("carried latency %v != donor's %v", got, want)
	}
	stats := carried.Diff().Stats()
	if !stats.Empty || stats.CarriedPaths != carriedTotal {
		t.Fatalf("stats = %+v", stats)
	}
	_ = next
}

// TestCarriedEntriesExemptFromSpareHarvest guards the lease-safety of the
// path carry-over: a reader that obtained a shortest-path entry through
// the donor state must keep seeing stable results even after the
// recipient state is recycled, its buffers reused, and many new Dijkstra
// runs executed. Carried trees are shared between states and kept out of
// spareTrees, and pairs are never recycled, so their arrays must never be
// reused as scratch for later computations.
func TestCarriedEntriesExemptFromSpareHarvest(t *testing.T) {
	c := mustNew(t, testConfig(t, orbit.ModelKepler))
	tp := &tickingPool{pool: c.NewSnapshotPool()}
	accra, _ := c.GSTNodeByName("accra")
	abuja, _ := c.GSTNodeByName("abuja")

	donor := tp.tick(t, 300)
	plantTree(t, donor, accra)
	if _, err := donor.Latency(abuja, accra); err != nil {
		t.Fatal(err)
	}
	// The reader's view: the donor's cache entries — accra's tree, the
	// pair from abuja — as the cache hands them out, and a copy of their
	// results as computed.
	held := func(st *State) (graph.ShortestPaths, []int) {
		t.Helper()
		sp, err1 := st.paths.Tree(accra)
		_, path, err2 := st.paths.Route(abuja, accra, true)
		if err1 != nil || err2 != nil || path == nil {
			t.Fatalf("no tree for accra or path from abuja: %v, %v", err1, err2)
		}
		return sp, path
	}
	sp, path := held(donor)
	wantDist := append([]float64(nil), sp.Dist...)
	wantPath := append([]int(nil), path...)

	// Find an empty tick that carries the entry forward.
	var carried *State
	for i := 1; i <= 60 && carried == nil; i++ {
		st := tp.tick(t, 300+float64(i)*0.01)
		if st.Diff().Empty() && st.Diff().CarriedPaths > 0 {
			carried = st
		} else {
			// Structural tick: refresh the reader's view of the new
			// donor's entries.
			sp, path = held(st)
			wantDist = append(wantDist[:0], sp.Dist...)
			wantPath = append(wantPath[:0], path...)
		}
	}
	if carried == nil {
		t.Skip("no empty tick found at 10 ms steps")
	}

	// Recycle the recipient and force its buffer through a reset, then
	// run plenty of fresh Dijkstra computations that would consume any
	// (wrongly) harvested spare arrays.
	tp.tick(t, 9000)         // structural; recycles the carried state
	next := tp.tick(t, 9600) // reuses the carried state's buffers
	for src := 0; src < 40; src++ {
		plantTree(t, next, src)
		if _, err := next.Latency(src, abuja); err != nil {
			t.Fatal(err)
		}
		if _, err := next.Latency(abuja, src); err != nil {
			t.Fatal(err)
		}
	}
	for i, d := range sp.Dist {
		if d != wantDist[i] {
			t.Fatalf("held entry mutated at %d: %v != %v (arrays were recycled)", i, d, wantDist[i])
		}
	}
	if !slices.Equal(path, wantPath) {
		t.Fatalf("held pair path mutated: %v != %v (its array was recycled)", path, wantPath)
	}
}

// TestDiffDetectsStructuralChange verifies that a long jump produces a
// populated diff with consistent deltas.
func TestDiffDetectsStructuralChange(t *testing.T) {
	c := mustNew(t, testConfig(t, orbit.ModelKepler))
	tp := &tickingPool{pool: c.NewSnapshotPool()}
	tp.tick(t, 0)
	st := tp.tick(t, 120)
	d := st.Diff()
	if d.Full {
		t.Fatal("second pooled snapshot should have a base")
	}
	if d.BaseT != 0 || d.T != 120 {
		t.Fatalf("diff window = %v -> %v", d.BaseT, d.T)
	}
	if len(d.Added)+len(d.Removed)+len(d.DelayChanged) == 0 {
		t.Fatal("two minutes of satellite motion produced no link deltas")
	}
	for _, ld := range d.Added {
		if ld.OldQ != -1 || ld.NewQ < 0 {
			t.Fatalf("added delta %+v", ld)
		}
	}
	for _, ld := range d.Removed {
		if ld.NewQ != -1 || ld.OldQ < 0 {
			t.Fatalf("removed delta %+v", ld)
		}
	}
	for _, ld := range d.DelayChanged {
		if ld.OldQ == ld.NewQ || ld.OldQ < 0 || ld.NewQ < 0 {
			t.Fatalf("delay delta %+v", ld)
		}
	}
	if d.Empty() {
		t.Fatal("populated diff reports Empty")
	}
	if s := d.Stats(); s.Added != len(d.Added) || s.DelayChanged != len(d.DelayChanged) || s.Empty {
		t.Fatalf("stats = %+v", s)
	}
}

// TestDiffActivityChanges drives a bounding-box constellation far enough
// that satellites enter and leave the box.
func TestDiffActivityChanges(t *testing.T) {
	cfg := testConfig(t, orbit.ModelKepler)
	cfg.BoundingBox.LatMinDeg, cfg.BoundingBox.LatMaxDeg = -20, 30
	cfg.BoundingBox.LonMinDeg, cfg.BoundingBox.LonMaxDeg = -30, 40
	c := mustNew(t, cfg)
	tp := &tickingPool{pool: c.NewSnapshotPool()}
	tp.tick(t, 0)
	st := tp.tick(t, 60)
	d := st.Diff()
	if len(d.Activated) == 0 && len(d.Deactivated) == 0 {
		t.Fatal("no activity changes after 60 s under a small bounding box")
	}
	for _, id := range d.Activated {
		if !st.Active[id] {
			t.Fatalf("node %d reported activated but inactive", id)
		}
	}
	for _, id := range d.Deactivated {
		if st.Active[id] {
			t.Fatalf("node %d reported deactivated but active", id)
		}
	}
}

// TestSingleBufferedPoolMatchesDoubleBuffered: the pool keeps its diff base
// alive by itself, so a caller that recycles each state before taking the
// next gets the same states, diffs and path carry-over, bit for bit, as one
// that keeps two states in flight.
func TestSingleBufferedPoolMatchesDoubleBuffered(t *testing.T) {
	c := mustNew(t, testConfig(t, orbit.ModelKepler))
	single, double := c.NewSnapshotPool(), &tickingPool{pool: c.NewSnapshotPool()}
	accra, _ := c.GSTNodeByName("accra")
	jbg, _ := c.GSTNodeByName("johannesburg")
	offset, carried := 100.0, 0
	for i := 0; i < 8; i++ {
		offset += []float64{3, 0.005}[i%2] // structural and link-unchanged ticks
		got, err := single.Snapshot(offset)
		if err != nil {
			t.Fatal(err)
		}
		want := double.tick(t, offset)
		assertHintIdentical(t, i, want, got)
		d := got.Diff()
		if d.Full != (i == 0) {
			t.Fatalf("tick %d: Full = %v", i, d.Full)
		}
		carried += d.CarriedPaths + d.RepairedPaths
		// The same pair read on both sides, for the next tick to carry.
		for _, st := range []*State{want, got} {
			if _, err := st.Latency(accra, jbg); err != nil {
				t.Fatal(err)
			}
		}
		single.Recycle(got)
	}
	if carried == 0 {
		t.Fatal("no path carried over: the schedule gates nothing")
	}
}

// TestNonPooledSnapshotsAreFullDiffs pins the Diff contract for the plain
// Snapshot entry points.
func TestNonPooledSnapshotsAreFullDiffs(t *testing.T) {
	c := mustNew(t, testConfig(t, orbit.ModelKepler))
	st, err := c.Snapshot(5)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Diff().Full || !math.IsNaN(st.Diff().BaseT) {
		t.Fatalf("diff = %+v", st.Diff().Stats())
	}
	seq, err := c.SnapshotSequential(5)
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Diff().Full {
		t.Fatal("sequential snapshot diff not Full")
	}
}

// TestIndexedVisibilityMatchesBruteSnapshots is the whole-pipeline
// differential for the spatial index: every station's uplinks, from a
// freshly built index and from one updated incrementally by a pool, equal
// the exhaustive elevation scan over the snapshot's own positions.
func TestIndexedVisibilityMatchesBruteSnapshots(t *testing.T) {
	c := mustNew(t, testConfig(t, orbit.ModelKepler))
	tp := &tickingPool{pool: c.NewSnapshotPool()}
	var brute []topo.Uplink
	check := func(st *State) {
		t.Helper()
		for gi := range c.gst {
			for si, sh := range c.shells {
				shellPos := st.Positions[c.base[si] : c.base[si]+sh.Size()]
				brute = topo.VisibleSatsInto(c.gstPos[gi], shellPos,
					c.cfg.Shells[si].Network.MinElevationDeg, brute)
				got := st.uplinks[gi][si]
				if len(got) != len(brute) {
					t.Fatalf("t=%v station %d shell %d: %d uplinks, brute scan %d",
						st.T, gi, si, len(got), len(brute))
				}
				for i := range brute {
					if got[i] != brute[i] {
						t.Fatalf("t=%v station %d shell %d uplink %d: %+v, brute scan %+v",
							st.T, gi, si, i, got[i], brute[i])
					}
				}
			}
		}
	}
	for _, offset := range []float64{0, 42, 1800, 5000} {
		fresh, err := c.Snapshot(offset)
		if err != nil {
			t.Fatal(err)
		}
		check(fresh)
		for i := 0; i < 3; i++ {
			check(tp.tick(t, offset+float64(i)*7.5))
		}
	}
}

// TestDiffTicksUnderConcurrentQueries runs the update loop while reader
// goroutines hammer the current state's path API — the host HTTP server
// pattern — so -race covers diff computation and path transplant against
// concurrent queries on the donor state.
func TestDiffTicksUnderConcurrentQueries(t *testing.T) {
	c := mustNew(t, testConfig(t, orbit.ModelKepler))
	pool := c.NewSnapshotPool()
	n := c.NodeCount()

	var mu sync.Mutex // guards cur against the ticker swapping it
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
				a := (seed*31 + i*17) % n
				b := (seed*7 + i*3) % n
				if _, err := st.Latency(a, b); err != nil {
					mu.Unlock()
					t.Error(err)
					return
				}
				mu.Unlock()
			}
		}(w)
	}

	var prev *State
	for i := 1; i <= 30; i++ {
		st, err := pool.Snapshot(float64(i) * 0.05)
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		prev, cur = cur, st
		mu.Unlock()
		pool.Recycle(prevIfSafe(prev, i))
	}
	close(stop)
	wg.Wait()
}

// prevIfSafe returns prev; the indirection keeps the recycle call explicit
// in the test body. (Readers hold mu while querying, so a recycled state is
// never mid-read: the ticker swapped cur under the same lock first.)
func prevIfSafe(prev *State, _ int) *State { return prev }

// TestDiffGSLUsesRealizedLinks verifies the fingerprint honors the "one"
// connection type: only the realized (closest) uplink participates in the
// diff.
func TestDiffGSLUsesRealizedLinks(t *testing.T) {
	cfg := testConfig(t, orbit.ModelKepler)
	for i := range cfg.Shells {
		cfg.Shells[i].Network.GSTConnectionType = "one"
	}
	c := mustNew(t, cfg)
	tp := &tickingPool{pool: c.NewSnapshotPool()}
	tp.tick(t, 0)
	st := tp.tick(t, 0.01)
	gstBase := c.NodeCount() - len(cfg.GroundStations)
	gslDeltas := 0
	for _, ld := range append(append([]LinkDelta{}, st.Diff().Added...), st.Diff().Removed...) {
		if ld.A >= gstBase || ld.B >= gstBase {
			gslDeltas++
		}
	}
	// With one realized uplink per station, a 10 ms tick can at most
	// hand over each station once: bounded by 2 deltas per station.
	if gslDeltas > 2*len(cfg.GroundStations) {
		t.Fatalf("%d GSL deltas for %d single-dish stations", gslDeltas, len(cfg.GroundStations))
	}
	_ = topo.KindGSL
}
