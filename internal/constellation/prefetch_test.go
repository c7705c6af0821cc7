package constellation

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"celestial/internal/orbit"
	"celestial/internal/sgp4"
)

// cachedSources returns the sources whose trees st's path cache holds
// complete, sorted, and the pairs it holds complete, as "src>dst", sorted.
func cachedSources(st *State) (trees []int, pairs []string) {
	for i := range st.paths {
		sh := &st.paths[i]
		sh.mu.Lock()
		for a, src := range sh.m {
			if e := src.tree; e != nil && e.done.Load() && e.err == nil {
				trees = append(trees, a)
			}
			for _, pe := range src.pairs {
				if pe.done.Load() && pe.err == nil {
					pairs = append(pairs, fmt.Sprintf("%d>%d", a, pe.dst))
				}
			}
		}
		sh.mu.Unlock()
	}
	sort.Ints(trees)
	sort.Strings(pairs)
	return trees, pairs
}

// assertHintIdentical holds the prefetched side's state against the
// synchronous side's: everything a consumer can observe, and the path cache
// entry by entry without querying it (a query would plant what is missing).
func assertHintIdentical(t *testing.T, tick int, want, got *State) {
	t.Helper()
	assertStatesIdentical(t, want, got)
	wr, gr := want.Diff().AppendRecord(DiffRecord{}), got.Diff().AppendRecord(DiffRecord{})
	if w, g := AppendRecordWire(nil, uint64(tick), &wr), AppendRecordWire(nil, uint64(tick), &gr); !bytes.Equal(w, g) {
		t.Fatalf("tick %d: diff records differ:\n sync     %+v\n prefetch %+v", tick, want.Diff().Stats(), got.Diff().Stats())
	}
	// Stats adds the graph-patch counters the record leaves out (%v: BaseT
	// is NaN on a Full diff).
	if w, g := fmt.Sprintf("%+v", want.Diff().Stats()), fmt.Sprintf("%+v", got.Diff().Stats()); w != g {
		t.Fatalf("tick %d: diff stats differ:\n sync     %s\n prefetch %s", tick, w, g)
	}
	ws, wp := cachedSources(want)
	gs, gp := cachedSources(got)
	if fmt.Sprint(ws) != fmt.Sprint(gs) || fmt.Sprint(wp) != fmt.Sprint(gp) {
		t.Fatalf("tick %d: path caches hold different trees or pairs:\n sync     %v %v\n prefetch %v %v", tick, ws, wp, gs, gp)
	}
	for _, src := range ws {
		assertSPIdentical(t, fmt.Sprintf("tick %d cached source %d", tick, src), entryFor(want, src).sp, entryFor(got, src).sp)
	}
	for _, key := range wp {
		var src, dst int
		fmt.Sscanf(key, "%d>%d", &src, &dst)
		w, g := pairFor(want, src, dst), pairFor(got, src, dst)
		if math.Float64bits(w.dist) != math.Float64bits(g.dist) || !slices.Equal(w.path, g.path) {
			t.Fatalf("tick %d: cached pair %s: sync %v %v, prefetch %v %v", tick, key, w.dist, w.path, g.dist, g.path)
		}
	}
	for _, src := range []int{0, len(want.Positions) - 1} {
		w, err1 := want.Graph().Dijkstra(src)
		g, err2 := got.Graph().Dijkstra(src)
		if err1 != nil || err2 != nil {
			t.Fatalf("tick %d: dijkstra from %d: %v, %v", tick, src, err1, err2)
		}
		assertSPIdentical(t, fmt.Sprintf("tick %d dijkstra from %d", tick, src), w, g)
	}
}

// TestPrefetchIsAHint is the property Prefetch is defined by: the state
// Snapshot returns does not depend on whether, when or for which offset
// Prefetch was called. Two pools run the same ticks; one prefetches. On
// that side the inputs that move while a state is in effect move at seeded
// points around the prepare: path sources are planted on the published
// state before the Prefetch, by a second goroutine beside it, and after it
// has completed (so the catch-up pass has real work); the overlay flips
// nodes between Prefetch and Snapshot. Ticks mix 5 ms steps (links
// unchanged, trees shared) with multi-second ones (trees repaired), some
// prefetch a different offset than Snapshot then asks for, some none, and
// some recycle the diff base in between.
func TestPrefetchIsAHint(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { prefetchDifferential(t, seed) })
	}
}

func prefetchDifferential(t *testing.T, seed int64) {
	c := mustNew(t, testConfig(t, orbit.ModelKepler))
	rng := rand.New(rand.NewSource(seed))
	n := c.NodeCount()
	target, _ := c.GSTNodeByName("johannesburg")

	down := make([]atomic.Bool, n)
	overlay := func(active []bool) {
		for id := range active {
			if down[id].Load() {
				active[id] = false
			}
		}
	}
	// tickingPool.prev is the published state, recycled once its successor
	// exists.
	pre, ref := &tickingPool{pool: c.NewSnapshotPool()}, &tickingPool{pool: c.NewSnapshotPool()}
	pre.pool.SetActivityOverlay(overlay)
	ref.pool.SetActivityOverlay(overlay)

	// Even sources are read as whole trees, odd ones as a pair.
	plant := func(st *State, srcs []int) {
		for _, src := range srcs {
			var err error
			if src%2 == 0 {
				_, err = st.pathsFor(src)
			} else {
				_, err = st.Latency(src, target)
			}
			if err != nil {
				t.Errorf("planting source %d: %v", src, err)
			}
		}
	}

	offset := 300.0
	pre.tick(t, offset)
	ref.tick(t, offset)
	assertHintIdentical(t, 0, ref.prev, pre.prev)

	var lateTicks, sharedTicks, repairedTicks, flipTicks, discarded int
	for tick := 1; tick <= 40; tick++ {
		if rng.Intn(3) == 0 {
			offset += 0.005
		} else {
			offset += 1 + 6*rng.Float64()
		}
		srcs := make([]int, rng.Intn(6))
		for i := range srcs {
			srcs[i] = rng.Intn(n)
		}
		cut1 := rng.Intn(len(srcs) + 1)
		cut2 := cut1 + rng.Intn(len(srcs)-cut1+1)
		before, during, after := srcs[:cut1], srcs[cut1:cut2], srcs[cut2:]
		flips := make([]int, rng.Intn(4))
		for i := range flips {
			flips[i] = rng.Intn(n - len(c.gst))
		}
		mode := rng.Intn(8)
		spin := rng.Intn(200)

		// The prefetching side.
		plant(pre.prev, before)
		var wg sync.WaitGroup
		wg.Add(1)
		go func(st *State) {
			defer wg.Done()
			for i := 0; i < spin; i++ {
				runtime.Gosched()
			}
			plant(st, during)
		}(pre.prev)
		switch mode {
		case 0: // no hint at all
		case 1: // a hint for an offset nobody will ask for
			pre.pool.Prefetch(offset + 0.5)
			discarded++
		default:
			pre.pool.Prefetch(offset)
		}
		pf := pre.pool.pre
		wg.Wait()
		if pf != nil && len(after) > 0 {
			<-pf.done
			if mode > 2 {
				lateTicks++
			}
		}
		plant(pre.prev, after)
		for _, id := range flips {
			down[id].Store(!down[id].Load())
		}
		if mode == 2 { // the diff base goes back to the pool under the hint
			pre.pool.Recycle(pre.prev)
			pre.prev = nil
			discarded++
		}
		pre.tick(t, offset)

		// The synchronous side: same sources, same overlay, no Prefetch.
		plant(ref.prev, srcs)
		if mode == 2 {
			ref.pool.Recycle(ref.prev)
			ref.prev = nil
		}
		ref.tick(t, offset)

		assertHintIdentical(t, tick, ref.prev, pre.prev)
		d := ref.prev.Diff()
		if d.Full != (mode == 2) {
			t.Fatalf("tick %d: Full = %v with mode %d", tick, d.Full, mode)
		}
		if d.CarriedPaths > 0 {
			sharedTicks++
		}
		if d.RepairedPaths > 0 {
			repairedTicks++
		}
		if len(d.Activated)+len(d.Deactivated) > 0 {
			flipTicks++
		}
	}
	if lateTicks == 0 || sharedTicks == 0 || repairedTicks == 0 || flipTicks == 0 || discarded == 0 {
		t.Fatalf("schedule too tame to gate anything: %d late-planting, %d sharing, %d repairing, %d flipping ticks, %d discarded hints",
			lateTicks, sharedTicks, repairedTicks, flipTicks, discarded)
	}
}

// goroutineID reads the calling goroutine's id off its stack header
// ("goroutine 17 [running]:"); good enough to tell two goroutines apart.
func goroutineID() string {
	buf := make([]byte, 64)
	return string(bytes.Fields(buf[:runtime.Stack(buf, false)])[1])
}

// TestStageTimerRunsOnSnapshotGoroutine pins SetStageTimer's contract now
// that a stage may have been computed elsewhere: the three callbacks arrive
// once per Snapshot, in order, on the goroutine that called Snapshot —
// whether the state was prefetched (from this or another goroutine),
// prefetched for another offset, or not at all.
func TestStageTimerRunsOnSnapshotGoroutine(t *testing.T) {
	c := mustNew(t, testConfig(t, orbit.ModelKepler))
	tp := &tickingPool{pool: c.NewSnapshotPool()}
	var stages, ids []string
	tp.pool.SetStageTimer(func(stage string, d time.Duration) {
		stages = append(stages, stage)
		ids = append(ids, goroutineID())
		if d < 0 {
			t.Errorf("stage %s: negative duration %v", stage, d)
		}
	})
	check := func(label, caller string) {
		t.Helper()
		if fmt.Sprint(stages) != "[snapshot diff repair]" {
			t.Fatalf("%s: callbacks %v, want each stage once, in order", label, stages)
		}
		for i, id := range ids {
			if id != caller {
				t.Fatalf("%s: %s callback on goroutine %s, Snapshot was called on %s", label, stages[i], id, caller)
			}
		}
		stages, ids = stages[:0], ids[:0]
	}
	me := goroutineID()
	tp.tick(t, 100)
	check("cold start", me)
	for i, offset := range []float64{101, 102, 103, 104} {
		switch i {
		case 0:
			tp.pool.Prefetch(offset)
		case 1:
			tp.pool.Prefetch(offset + 0.25)
		case 2: // no hint
		case 3: // hinted here, obtained on another goroutine
			tp.pool.Prefetch(offset)
			var other string
			done := make(chan struct{})
			go func() {
				defer close(done)
				other = goroutineID()
				tp.tick(t, offset)
			}()
			<-done
			if other == me {
				t.Fatal("goroutine ids do not tell goroutines apart")
			}
			check("snapshot on another goroutine", other)
			continue
		}
		tp.tick(t, offset)
		check(fmt.Sprintf("offset %v", offset), me)
	}
}

// TestFailedPrepareLeavesPoolReusable: a propagation error — a real one, a
// shell whose satellites dip below the surface at perigee — comes out of
// the Snapshot that joins the failed prepare (or ran it inline), and costs
// the pool nothing: the buffer is back on the free list, the diff base is
// untouched, and the next Snapshot is an ordinary delta against it.
func TestFailedPrepareLeavesPoolReusable(t *testing.T) {
	cfg := testConfig(t, orbit.ModelKepler)
	c := mustNew(t, cfg)
	sound := c.shells[0]
	decaying := cfg.Shells[0].ShellConfig
	decaying.Model, decaying.AltitudeKm, decaying.Eccentricity = orbit.ModelSGP4, 200, 0.049
	doomed, err := orbit.NewShell(decaying, cfg.EpochJulian())
	if err != nil {
		t.Fatal(err)
	}

	tp := &tickingPool{pool: c.NewSnapshotPool()}
	tp.tick(t, 100)
	tp.pool.Prefetch(101)
	base := tp.tick(t, 101)
	src, _ := c.GSTNodeByName("accra")
	plantTree(t, base, src)

	for _, prefetch := range []bool{true, false} {
		// No prepare is in flight here: the last one was joined above.
		c.shells[0] = doomed
		if prefetch {
			tp.pool.Prefetch(102)
		}
		st, err := tp.pool.Snapshot(102)
		if st != nil || !errors.Is(err, sgp4.ErrDecayed) {
			t.Fatalf("prefetch=%v: Snapshot on a decayed shell = %v, %v; want sgp4.ErrDecayed", prefetch, st, err)
		}
		if tp.pool.last != base || tp.pool.pre != nil || len(tp.pool.free) != 1 {
			t.Fatalf("prefetch=%v: after the failure last is base: %v, prepare in flight: %v, free buffers: %d (want 1)",
				prefetch, tp.pool.last == base, tp.pool.pre != nil, len(tp.pool.free))
		}
		c.shells[0] = sound
	}

	st := tp.tick(t, 102)
	if d := st.Diff(); d.Full || d.BaseT != 101 || d.RepairedPaths+d.RepairFallbacks+d.CarriedPaths != 1 {
		t.Fatalf("snapshot after the failures is not a delta against the old base with its tree carried: %+v", d.Stats())
	}
	fresh, err := c.SnapshotSequential(102)
	if err != nil {
		t.Fatal(err)
	}
	assertStatesIdentical(t, fresh, st)
}
