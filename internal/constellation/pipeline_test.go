package constellation

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"celestial/internal/config"
	"celestial/internal/geom"
	"celestial/internal/graph"
	"celestial/internal/orbit"
	"celestial/internal/topo"
)

// SnapshotSequential is the single-threaded reference implementation of
// Snapshot, for differential testing: a fresh state has a cold visibility
// index and a graph rebuilt from its link list, so it is also the
// full-rebuild reference for the pool's incremental paths.
func (c *Constellation) SnapshotSequential(t float64) (*State, error) {
	return c.snapshotFresh(t, 1)
}

// sortEdges orders a CSR row canonically for set comparison.
func sortEdges(es []graph.Edge) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].To != es[j].To {
			return es[i].To < es[j].To
		}
		return es[i].Weight < es[j].Weight
	})
}

// starlinkP1Config builds the full phase I Starlink constellation (4,409
// satellites in five shells) with a few ground stations, the scale the
// paper's Fig. 1 and the ROADMAP's north star target.
func starlinkP1Config(t testing.TB, model orbit.Model) *config.Config {
	t.Helper()
	var shells []config.Shell
	for _, sc := range orbit.StarlinkPhase1(model) {
		shells = append(shells, config.Shell{ShellConfig: sc})
	}
	cfg := &config.Config{
		Shells: shells,
		GroundStations: []config.GroundStation{
			{Name: "accra", Location: geom.LatLon{LatDeg: 5.6037, LonDeg: -0.1870}},
			{Name: "berlin", Location: geom.LatLon{LatDeg: 52.5200, LonDeg: 13.4050}},
			{Name: "hawaii", Location: geom.LatLon{LatDeg: 21.3069, LonDeg: -157.8583}},
		},
	}
	cfg.Network.MinElevationDeg = 25
	if err := config.Finalize(cfg); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// assertStatesIdentical compares every observable component of two states
// bit for bit: positions, activity, links, bandwidths, graph adjacency and
// shortest-path results. This is the reproducibility property the paper
// relies on — parallelism must never change the computed state.
func assertStatesIdentical(t *testing.T, want, got *State) {
	t.Helper()
	if want.T != got.T {
		t.Fatalf("T: %v vs %v", want.T, got.T)
	}
	if len(want.Positions) != len(got.Positions) {
		t.Fatalf("position count: %d vs %d", len(want.Positions), len(got.Positions))
	}
	for i := range want.Positions {
		if want.Positions[i] != got.Positions[i] {
			t.Fatalf("position %d: %v vs %v", i, want.Positions[i], got.Positions[i])
		}
		if want.Active[i] != got.Active[i] {
			t.Fatalf("active %d: %v vs %v", i, want.Active[i], got.Active[i])
		}
	}
	if len(want.Links) != len(got.Links) {
		t.Fatalf("link count: %d vs %d", len(want.Links), len(got.Links))
	}
	for i := range want.Links {
		if want.Links[i] != got.Links[i] {
			t.Fatalf("link %d: %+v vs %+v", i, want.Links[i], got.Links[i])
		}
	}
	assertLinkBandwidths(t, want)
	assertLinkBandwidths(t, got)
	// The graph has one node per position. Rows are compared as sets via
	// the frozen CSR image: a pooled state's graph may have been
	// clone-and-patched (stale adjacency lists, rows reordered by
	// swap-removal), which is observationally identical.
	var wbuf, gbuf []graph.Edge
	for v := range want.Positions {
		wbuf = want.g.FrozenRow(v, wbuf[:0])
		gbuf = got.g.FrozenRow(v, gbuf[:0])
		if len(wbuf) != len(gbuf) {
			t.Fatalf("node %d degree: %d vs %d", v, len(wbuf), len(gbuf))
		}
		sortEdges(wbuf)
		sortEdges(gbuf)
		for i := range wbuf {
			if wbuf[i] != gbuf[i] {
				t.Fatalf("node %d row entry %d: %+v vs %+v", v, i, wbuf[i], gbuf[i])
			}
		}
	}
	for gi := range want.uplinks {
		for si := range want.uplinks[gi] {
			wu, gu := want.uplinks[gi][si], got.uplinks[gi][si]
			if len(wu) != len(gu) {
				t.Fatalf("uplinks %d/%d count: %d vs %d", gi, si, len(wu), len(gu))
			}
			for i := range wu {
				if wu[i] != gu[i] {
					t.Fatalf("uplink %d/%d/%d: %+v vs %+v", gi, si, i, wu[i], gu[i])
				}
			}
		}
	}
}

// assertLinkBandwidths checks the derived bandwidth lookup against the
// config: every link answers from either end with its satellite shell's
// ISL or GSL capacity.
func assertLinkBandwidths(t *testing.T, st *State) {
	t.Helper()
	for i, l := range st.Links {
		net := st.c.cfg.Shells[st.c.nodes[min(l.A, l.B)].Shell].Network
		want := net.BandwidthKbps
		if l.Kind == topo.KindGSL {
			want = net.GSTBandwidthKbps
		}
		for _, pair := range [2][2]int{{l.A, l.B}, {l.B, l.A}} {
			if kbps, ok := st.LinkBandwidth(pair[0], pair[1]); !ok || kbps != want {
				t.Fatalf("link %d (%v): LinkBandwidth(%d, %d) = %v, %v, config says %v",
					i, l.Kind, pair[0], pair[1], kbps, ok, want)
			}
		}
	}
}

func TestParallelSnapshotMatchesSequential(t *testing.T) {
	c := mustNew(t, testConfig(t, orbit.ModelKepler))
	for _, offset := range []float64{0, 42, 3600} {
		seq, err := c.SnapshotSequential(offset)
		if err != nil {
			t.Fatal(err)
		}
		parl, err := c.Snapshot(offset)
		if err != nil {
			t.Fatal(err)
		}
		assertStatesIdentical(t, seq, parl)

		// Shortest paths over identical graphs are identical too.
		a, _ := c.GSTNodeByName("accra")
		b, _ := c.GSTNodeByName("johannesburg")
		ls, err1 := seq.Latency(a, b)
		lp, err2 := parl.Latency(a, b)
		if err1 != nil || err2 != nil || ls != lp {
			t.Fatalf("latency: %v (%v) vs %v (%v)", ls, err1, lp, err2)
		}
		ps, _ := seq.Path(a, b)
		pp, _ := parl.Path(a, b)
		if fmt.Sprint(ps) != fmt.Sprint(pp) {
			t.Fatalf("path: %v vs %v", ps, pp)
		}
	}
}

func TestParallelSnapshotMatchesSequentialSGP4MultiShell(t *testing.T) {
	if testing.Short() {
		t.Skip("full Starlink phase 1 under SGP4 is slow")
	}
	c := mustNew(t, starlinkP1Config(t, orbit.ModelKepler))
	seq, err := c.SnapshotSequential(17)
	if err != nil {
		t.Fatal(err)
	}
	parl, err := c.Snapshot(17)
	if err != nil {
		t.Fatal(err)
	}
	assertStatesIdentical(t, seq, parl)
}

// TestPooledSnapshotMatchesFresh locks in that buffer reuse leaks no state
// between ticks: a recycled snapshot must equal a freshly allocated one.
func TestPooledSnapshotMatchesFresh(t *testing.T) {
	c := mustNew(t, testConfig(t, orbit.ModelKepler))
	pool := c.NewSnapshotPool()
	// Prime the pool with a different offset so every buffer holds
	// stale data, then recompute through recycling.
	st, err := pool.Snapshot(999)
	if err != nil {
		t.Fatal(err)
	}
	// Populate the path cache so the recycled state carries one.
	if _, err := st.Latency(0, c.NodeCount()-1); err != nil {
		t.Fatal(err)
	}
	pool.Recycle(st)
	for _, offset := range []float64{0, 300} {
		recycled, err := pool.Snapshot(offset)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := c.Snapshot(offset)
		if err != nil {
			t.Fatal(err)
		}
		assertStatesIdentical(t, fresh, recycled)
		a, _ := c.GSTNodeByName("accra")
		b, _ := c.GSTNodeByName("abuja")
		lr, _ := recycled.Latency(a, b)
		lf, _ := fresh.Latency(a, b)
		if lr != lf {
			t.Fatalf("offset %v: recycled latency %v != fresh %v", offset, lr, lf)
		}
		pool.Recycle(recycled)
	}
}

// TestStateConcurrentQueryStress hammers one snapshot's query API from
// many goroutines; run with -race it locks in the safety of the sharded
// singleflight path cache.
func TestStateConcurrentQueryStress(t *testing.T) {
	c := mustNew(t, testConfig(t, orbit.ModelKepler))
	st, err := c.Snapshot(11)
	if err != nil {
		t.Fatal(err)
	}
	n := c.NodeCount()
	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				a := (seed*131 + i*29) % n
				b := (seed*17 + i*73) % n
				if _, err := st.Latency(a, b); err != nil {
					errs <- err
					return
				}
				if _, err := st.RTT(b, a); err != nil {
					errs <- err
					return
				}
				if _, err := st.Path(a, b); err != nil {
					errs <- err
					return
				}
				st.PathBandwidth(a, b)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Identical sources must agree no matter which goroutine computed
	// them first.
	l1, _ := st.Latency(0, n-1)
	l2, _ := st.Latency(0, n-1)
	if l1 != l2 || math.IsNaN(l1) {
		t.Fatalf("unstable latency: %v vs %v", l1, l2)
	}
}

// benchSnapshot runs the given snapshot function with allocation
// reporting; the -family name keeps it greppable next to
// BenchmarkConstellationUpdateStarlinkP1 in the root bench harness.
func benchSnapshot(b *testing.B, cfg *config.Config, fn func(c *Constellation) func(t float64) (*State, error)) {
	c := mustNew(b, cfg)
	snap := fn(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snap(float64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotStarlinkPhase1(b *testing.B) {
	benchSnapshot(b, starlinkP1Config(b, orbit.ModelKepler), func(c *Constellation) func(float64) (*State, error) {
		return c.Snapshot
	})
}

func BenchmarkSnapshotStarlinkPhase1Sequential(b *testing.B) {
	benchSnapshot(b, starlinkP1Config(b, orbit.ModelKepler), func(c *Constellation) func(float64) (*State, error) {
		return c.SnapshotSequential
	})
}

func BenchmarkSnapshotStarlinkPhase1Pooled(b *testing.B) {
	benchSnapshot(b, starlinkP1Config(b, orbit.ModelKepler), func(c *Constellation) func(float64) (*State, error) {
		pool := c.NewSnapshotPool()
		return func(t float64) (*State, error) {
			st, err := pool.Snapshot(t)
			if err == nil {
				pool.Recycle(st)
			}
			return st, err
		}
	})
}

func BenchmarkSnapshotStarlinkPhase1SGP4(b *testing.B) {
	benchSnapshot(b, starlinkP1Config(b, orbit.ModelSGP4), func(c *Constellation) func(float64) (*State, error) {
		pool := c.NewSnapshotPool()
		return func(t float64) (*State, error) {
			st, err := pool.Snapshot(t)
			if err == nil {
				pool.Recycle(st)
			}
			return st, err
		}
	})
}
