package graph

import (
	"math"
	"math/rand"
	"testing"
)

// buildGraph materializes an edge list, checking every edge.
func buildGraph(t testing.TB, n int, edges []testEdge) *Graph {
	t.Helper()
	l := edgeList{n: n}
	for _, e := range edges {
		if err := l.AddEdge(e.a, e.b, e.w); err != nil {
			t.Fatal(err)
		}
	}
	return l.Graph()
}

// mutateEdges derives a new edge list from old: each entry is kept,
// removed, or reweighted at random, and a few fresh edges are added. The
// returned deltas describe exactly the applied changes.
func mutateEdges(rng *rand.Rand, n int, old []testEdge, weight func() float64) (edges []testEdge, deltas []EdgeDelta) {
	for _, e := range old {
		switch rng.Intn(10) {
		case 0, 1: // remove
			deltas = append(deltas, EdgeDelta{A: e.a, B: e.b, OldW: e.w, NewW: -1})
		case 2, 3: // reweight
			nw := weight()
			edges = append(edges, testEdge{e.a, e.b, nw})
			if nw != e.w {
				deltas = append(deltas, EdgeDelta{A: e.a, B: e.b, OldW: e.w, NewW: nw})
			}
		default:
			edges = append(edges, e)
		}
	}
	for i := 0; i < 1+rng.Intn(5); i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		w := weight()
		edges = append(edges, testEdge{a, b, w})
		deltas = append(deltas, EdgeDelta{A: a, B: b, OldW: -1, NewW: w})
	}
	return edges, deltas
}

// assertRepairedExact runs the full repair differential for one
// (old graph, new graph, deltas, source) tuple: the repaired result must be
// bit-identical to a fresh run on the new graph, distances and
// predecessors both.
func assertRepairedExact(t *testing.T, g1, g2 *Graph, deltas []EdgeDelta, src int, transit func(int) bool, ws *Workspace) {
	t.Helper()
	old, err := g1.DijkstraTransit(src, transit)
	if err != nil {
		t.Fatal(err)
	}
	sp := ShortestPaths{
		Source: src,
		Dist:   append([]float64(nil), old.Dist...),
		Prev:   append([]int(nil), old.Prev...),
	}
	if _, err := g2.RepairSSSP(&sp, deltas, transit, ws); err != nil {
		t.Fatal(err)
	}
	want, err := g2.DijkstraTransit(src, transit)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want.Dist {
		if sp.Dist[v] != want.Dist[v] && !(math.IsInf(sp.Dist[v], 1) && math.IsInf(want.Dist[v], 1)) {
			t.Fatalf("src %d: dist[%d] = %v, fresh %v (deltas %v)", src, v, sp.Dist[v], want.Dist[v], deltas)
		}
		if sp.Prev[v] != want.Prev[v] {
			t.Fatalf("src %d: prev[%d] = %d, fresh %d (dist %v, deltas %v)",
				src, v, sp.Prev[v], want.Prev[v], want.Dist[v], deltas)
		}
	}
}

// TestRepairSSSPMatchesFreshRandom is the core differential property: over
// random graph pairs — continuous weights (ties rare) and quantized
// weights (ties everywhere, exercising the canonical tie-break) — repair
// equals recompute bit for bit, with and without a transit predicate.
func TestRepairSSSPMatchesFreshRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	weights := map[string]func() float64{
		"continuous": func() float64 { return 0.1 + rng.Float64()*10 },
		// Quantized like constellation latencies: small integer multiples
		// of 1e-4 collide constantly, so equal-distance ties are common.
		"quantized": func() float64 { return float64(1+rng.Intn(25)) * 1e-4 },
	}
	for name, weight := range weights {
		t.Run(name, func(t *testing.T) {
			var ws Workspace
			for trial := 0; trial < 60; trial++ {
				n := 8 + rng.Intn(40)
				var old []testEdge
				for i := 0; i < 3*n; i++ {
					a, b := rng.Intn(n), rng.Intn(n)
					if a != b {
						old = append(old, testEdge{a, b, weight()})
					}
				}
				edges, deltas := mutateEdges(rng, n, old, weight)
				g1 := buildGraph(t, n, old)
				g2 := buildGraph(t, n, edges)
				var transit func(int) bool
				if trial%2 == 1 {
					// Odd nodes cannot forward, like ground stations.
					transit = func(v int) bool { return v%2 == 0 }
				}
				for _, src := range []int{0, rng.Intn(n), n - 1} {
					assertRepairedExact(t, g1, g2, deltas, src, transit, &ws)
				}
			}
		})
	}
}

// TestRepairSSSPRedundantDeltas pins the documented tolerance for deltas
// that remove and re-add the same edge (the GSL handover wholesale form):
// the cone widens but the result stays exact.
func TestRepairSSSPRedundantDeltas(t *testing.T) {
	edges := []testEdge{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {0, 3, 5}}
	g1 := buildGraph(t, 4, edges)
	g2 := buildGraph(t, 4, edges)
	deltas := []EdgeDelta{
		{A: 1, B: 2, OldW: 1, NewW: -1},
		{A: 1, B: 2, OldW: -1, NewW: 1},
	}
	assertRepairedExact(t, g1, g2, deltas, 0, nil, nil)
}

// TestRepairSSSPFallbackThreshold drives a change that invalidates most of
// the tree: the repair must report fallback and still be exact.
func TestRepairSSSPFallbackThreshold(t *testing.T) {
	n := 50
	var edges []testEdge
	for i := 0; i+1 < n; i++ {
		edges = append(edges, testEdge{i, i + 1, 1})
	}
	g1 := buildGraph(t, n, edges)
	// Cutting the line right after the source orphans ~everything.
	g2 := buildGraph(t, n, edges[1:])
	deltas := []EdgeDelta{{A: 0, B: 1, OldW: 1, NewW: -1}}

	old, err := g1.Dijkstra(0)
	if err != nil {
		t.Fatal(err)
	}
	sp := ShortestPaths{Source: 0, Dist: old.Dist, Prev: old.Prev}
	repaired, err := g2.RepairSSSP(&sp, deltas, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if repaired {
		t.Error("repair of a 98%-affected tree did not fall back")
	}
	want, _ := g2.Dijkstra(0)
	for v := range want.Dist {
		if sp.Dist[v] != want.Dist[v] && !(math.IsInf(sp.Dist[v], 1) && math.IsInf(want.Dist[v], 1)) {
			t.Fatalf("dist[%d] = %v, want %v", v, sp.Dist[v], want.Dist[v])
		}
	}

	// A one-quantum bump of a leaf edge stays on the fast path.
	g3 := buildGraph(t, n, append(append([]testEdge(nil), edges[:n-2]...), testEdge{n - 2, n - 1, 2}))
	old, _ = g1.Dijkstra(0)
	sp = ShortestPaths{Source: 0, Dist: old.Dist, Prev: old.Prev}
	repaired, err = g3.RepairSSSP(&sp, []EdgeDelta{{A: n - 2, B: n - 1, OldW: 1, NewW: 2}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !repaired {
		t.Error("leaf-edge bump fell back to full recompute")
	}
	if sp.Dist[n-1] != float64(n-2)+2 {
		t.Errorf("repaired leaf dist = %v", sp.Dist[n-1])
	}
}

// TestRepairSSSPZeroWeightFallsBack: zero-weight edges void the canonical
// tie-break, so repair must recompute — and still be exact.
func TestRepairSSSPZeroWeightFallsBack(t *testing.T) {
	edges := []testEdge{{0, 1, 0}, {1, 2, 1}, {0, 2, 1}}
	g1 := buildGraph(t, 3, edges)
	g2 := buildGraph(t, 3, []testEdge{{0, 1, 0}, {1, 2, 2}, {0, 2, 1}})
	old, _ := g1.Dijkstra(0)
	sp := ShortestPaths{Source: 0, Dist: old.Dist, Prev: old.Prev}
	repaired, err := g2.RepairSSSP(&sp, []EdgeDelta{{A: 1, B: 2, OldW: 1, NewW: 2}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if repaired {
		t.Error("repair took the fast path on a zero-weight graph")
	}
	want, _ := g2.Dijkstra(0)
	for v := range want.Dist {
		if sp.Dist[v] != want.Dist[v] || sp.Prev[v] != want.Prev[v] {
			t.Fatalf("node %d: got %v/%d want %v/%d", v, sp.Dist[v], sp.Prev[v], want.Dist[v], want.Prev[v])
		}
	}
}

// TestRepairSSSPAbsorbedWeightFallsBack: a positive weight that vanishes in
// a sum acts as a zero one. Nodes 1 and 2 sit at distance 2, joined by a
// 1e-300 edge that supports each from the other, so under the canonical
// rule each is the other's predecessor. Removing their real supporters
// roots no cone — neither removed edge is a tree edge — and a fast-path
// repair would keep both at distance 2 instead of unreachable.
func TestRepairSSSPAbsorbedWeightFallsBack(t *testing.T) {
	edges := []testEdge{{0, 3, 1}, {0, 4, 1}, {3, 1, 1}, {4, 2, 1}, {1, 2, 1e-300}}
	g1 := buildGraph(t, 5, edges)
	old, _ := g1.Dijkstra(0)
	if old.Prev[1] != 2 || old.Prev[2] != 1 {
		t.Fatalf("predecessors %v: the case no longer builds its cycle", old.Prev)
	}
	deltas := []EdgeDelta{{A: 3, B: 1, OldW: 1, NewW: -1}, {A: 4, B: 2, OldW: 1, NewW: -1}}
	g2 := buildGraph(t, 5, []testEdge{{0, 3, 1}, {0, 4, 1}, {1, 2, 1e-300}})
	sp := ShortestPaths{Source: 0, Dist: old.Dist, Prev: old.Prev}
	repaired, err := g2.RepairSSSP(&sp, deltas, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if repaired {
		t.Error("repair took the fast path with a weight 2^-50 below the others")
	}
	want, _ := g2.Dijkstra(0)
	for v := range want.Dist {
		if sp.Dist[v] != want.Dist[v] || sp.Prev[v] != want.Prev[v] {
			t.Fatalf("node %d: got %v/%d want %v/%d", v, sp.Dist[v], sp.Prev[v], want.Dist[v], want.Prev[v])
		}
	}
}

// TestRepairSSSPValidation covers the error paths.
func TestRepairSSSPValidation(t *testing.T) {
	g := buildGraph(t, 3, []testEdge{{0, 1, 1}})
	sp := ShortestPaths{Source: 9, Dist: make([]float64, 3), Prev: make([]int, 3)}
	if _, err := g.RepairSSSP(&sp, nil, nil, nil); err == nil {
		t.Error("accepted out-of-range source")
	}
	if _, err := g.RepairSSSP(nil, nil, nil, nil); err == nil {
		t.Error("accepted nil result")
	}
	sp = ShortestPaths{Source: 0, Dist: make([]float64, 3), Prev: make([]int, 3)}
	if _, err := g.RepairSSSP(&sp, []EdgeDelta{{A: 0, B: 7}}, nil, nil); err == nil {
		t.Error("accepted out-of-range delta")
	}
	if _, err := g.RepairSSSP(&sp, []EdgeDelta{{A: 1, B: 1}}, nil, nil); err == nil {
		t.Error("accepted self-loop delta")
	}
	// Empty deltas are the no-op fast path.
	old, _ := g.Dijkstra(0)
	sp = ShortestPaths{Source: 0, Dist: old.Dist, Prev: old.Prev}
	if repaired, err := g.RepairSSSP(&sp, nil, nil, nil); err != nil || !repaired {
		t.Errorf("empty deltas: repaired=%v err=%v", repaired, err)
	}
	// A result sized for another graph is recomputed, not trusted.
	short := ShortestPaths{Source: 0, Dist: make([]float64, 1), Prev: make([]int, 1)}
	if repaired, err := g.RepairSSSP(&short, []EdgeDelta{{A: 0, B: 1, OldW: 1, NewW: 2}}, nil, nil); err != nil || repaired {
		t.Errorf("mis-sized result: repaired=%v err=%v", repaired, err)
	}
	if len(short.Dist) != 3 {
		t.Errorf("mis-sized result not recomputed: %v", short.Dist)
	}
}

// TestCanonicalTieBreak pins the deterministic-predecessor rule: among
// equal-cost parents the smaller node ID wins, no matter the settle order.
func TestCanonicalTieBreak(t *testing.T) {
	// 0 -1- 1 -1- 3 and 0 -1- 2 -1- 3: two cost-2 routes to node 3.
	g := buildGraph(t, 4, []testEdge{{0, 1, 1}, {0, 2, 1}, {1, 3, 1}, {2, 3, 1}})
	sp, err := g.Dijkstra(0)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Prev[3] != 1 {
		t.Errorf("prev[3] = %d, want canonical min parent 1", sp.Prev[3])
	}
	path := sp.PathTo(3)
	if len(path) != 3 || path[0] != 0 || path[1] != 1 || path[2] != 3 {
		t.Errorf("path = %v, want [0 1 3]", path)
	}
}

// BenchmarkRepairSSSPTorus measures the repair fast path against a full
// recompute on the +GRID-like torus after a handful of one-quantum weight
// bumps — the steady-state constellation tick shape.
func BenchmarkRepairSSSPTorus(b *testing.B) {
	w, h := 72, 22
	n := w * h
	var deltas []EdgeDelta
	rng := rand.New(rand.NewSource(9))
	bumped := map[[2]int]float64{}
	for i := 0; i < 8; i++ {
		x, y := rng.Intn(w), rng.Intn(h)
		bumped[[2]int{x*h + y, ((x+1)%w)*h + y}] = 2e-4
	}
	torusWith := func(bump bool) *Graph {
		var edges []testEdge
		for x := 0; x < w; x++ {
			for y := 0; y < h; y++ {
				id := x*h + y
				right := ((x+1)%w)*h + y
				up := x*h + (y+1)%h
				wr := 1e-4
				if nw, ok := bumped[[2]int{id, right}]; ok && bump {
					wr = nw
				}
				edges = append(edges, testEdge{id, right, wr}, testEdge{id, up, 1e-4})
			}
		}
		return build(n, edges)
	}
	g1, g2 := torusWith(false), torusWith(true)
	for k, nw := range bumped {
		deltas = append(deltas, EdgeDelta{A: k[0], B: k[1], OldW: 1e-4, NewW: nw})
	}
	base, err := g1.Dijkstra(0)
	if err != nil {
		b.Fatal(err)
	}
	var ws Workspace
	dist := make([]float64, n)
	prev := make([]int, n)
	b.Run("repair", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(dist, base.Dist)
			copy(prev, base.Prev)
			sp := ShortestPaths{Source: 0, Dist: dist, Prev: prev}
			if _, err := g2.RepairSSSP(&sp, deltas, nil, &ws); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := g2.DijkstraTransitInto(0, nil, dist, prev, &ws); err != nil {
				b.Fatal(err)
			}
		}
	})
}
