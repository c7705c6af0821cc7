package constellation

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"celestial/internal/config"
	"celestial/internal/geom"
	"celestial/internal/graph"
	"celestial/internal/orbit"
)

// gen2TickAllocs bounds the allocations of one steady Gen2 tick: 10 %
// above the 57 the pipeline counts at GOMAXPROCS 1 to 8. A tick that
// allocates per satellite, per link or per station blows through it at
// once.
const gen2TickAllocs = 63

// gen2Config is the full Starlink Gen2 constellation (29,988 satellites in
// nine shells) with 100 ground stations on a golden-angle spiral, the scale
// the visibility index, in-place CSR patching and the snapshot arenas exist
// for.
func gen2Config(t testing.TB) *config.Config {
	t.Helper()
	var shells []config.Shell
	for _, sc := range orbit.StarlinkGen2(orbit.ModelKepler) {
		shells = append(shells, config.Shell{ShellConfig: sc})
	}
	const n = 100
	gsts := make([]config.GroundStation, n)
	for i := range gsts {
		gsts[i] = config.GroundStation{
			Name: fmt.Sprintf("gst%03d", i),
			Location: geom.LatLon{
				LatDeg: geom.Deg(math.Asin(2*(float64(i)+0.5)/n - 1)),
				LonDeg: math.Mod(float64(i)*137.50776405, 360) - 180,
			},
		}
	}
	cfg := &config.Config{Shells: shells, GroundStations: gsts}
	cfg.Network.MinElevationDeg = 25
	if err := config.Finalize(cfg); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestGen2SteadyTick holds the steady coordinator tick at Gen2 scale — a
// pooled snapshot one second on, a shortest-path query on it and the
// recycle of the state before — to gen2TickAllocs allocations, and its
// mean wall time to the paper's §3.1 real-time bound of one update per
// second. The warm-up ticks are not counted.
func TestGen2SteadyTick(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 29,988-satellite constellation")
	}
	c := mustNew(t, gen2Config(t))
	tp := &tickingPool{pool: c.NewSnapshotPool()}
	gst := c.NodeCount() - 1
	next := 0.0
	tick := func() {
		st := tp.tick(t, next)
		next++
		if _, err := st.Latency(gst, 0); err != nil {
			t.Fatal(err)
		}
	}
	// The cold tick and one steady tick on each of the two buffers grow
	// the arenas to their working size.
	for i := 0; i < 3; i++ {
		tick()
	}
	const runs = 5
	start := time.Now()
	allocs := testing.AllocsPerRun(runs, tick)
	mean := time.Since(start) / (runs + 1)
	t.Logf("%v allocs and %v per steady tick", allocs, mean)
	if allocs > gen2TickAllocs {
		t.Errorf("a steady Gen2 tick allocates %v, bound %d", allocs, gen2TickAllocs)
	}
	if mean > time.Second {
		t.Errorf("a steady Gen2 tick takes %v, over the 1 s real-time bound", mean)
	}
	if !tp.prev.Diff().GraphPatched {
		t.Error("the last tick rebuilt its graph instead of patching it")
	}
}

// TestGen2PairSettlesFewNodes pins what a pair read costs at Gen2 scale:
// between the stations of the gen2-steady benchmark's two rpc flows
// (gst010↔gst060, gst030↔gst080), both ways, the goal-directed search
// settles fewer than 5 % of the satellites (the transit nodes), where a
// repaired tree re-settles ~11 % of all nodes every tick and a full run all
// of them. The bound stands in for a per-layer settled-per-query metric.
// Every answer is checked against a full Dijkstra run.
func TestGen2PairSettlesFewNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 29,988-satellite constellation")
	}
	c := mustNew(t, gen2Config(t))
	st, err := c.Snapshot(30)
	if err != nil {
		t.Fatal(err)
	}
	sats := c.NodeCount() - len(c.gst)
	h := pairHeuristic(st)
	var ws graph.Workspace
	worst := 0
	for _, p := range [][2]int{{10, 60}, {60, 10}, {30, 80}, {80, 30}} {
		src, dst := sats+p[0], sats+p[1]
		got, err := st.g.ShortestPair(src, dst, c.transit, h, &ws, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := st.g.DijkstraTransit(src, c.transit)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Dist) != math.Float64bits(want.Dist[dst]) || !slices.Equal(got.Path, want.PathTo(dst)) {
			t.Fatalf("stations %v: pair %v %v, Dijkstra %v %v", p, got.Dist, got.Path, want.Dist[dst], want.PathTo(dst))
		}
		worst = max(worst, got.Settled)
		t.Logf("stations %v: %.0f ms, %d hops, %d nodes settled (%.2f %% of the satellites)",
			p, got.Dist*1000, len(got.Path)-1, got.Settled, 100*float64(got.Settled)/float64(sats))
	}
	if limit := sats / 20; worst >= limit {
		t.Fatalf("a pair search settled %d nodes, bound %d (5 %% of %d satellites)", worst, limit, sats)
	}
}

// pairHeuristic is a heuristic for the pair searches on st: the least ratio
// of a link's delay to the distance between its ends, through
// graph.HeuristicScale, as link assembly finds it for the path cache.
func pairHeuristic(st *State) graph.Heuristic {
	r := math.Inf(1)
	for l := range st.Links() {
		r = lessRatio(r, l.LatencyS, st.Positions[l.A].Distance(st.Positions[l.B]))
	}
	return graph.Heuristic{Pos: st.Positions, Scale: graph.HeuristicScale(r)}
}
