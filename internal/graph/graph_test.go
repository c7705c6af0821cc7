package graph

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// lineGraph builds 0-1-2-...-n-1 with unit weights.
func lineGraph(t testing.TB, n int) *Graph {
	l := edgeList{n: n}
	for i := 0; i+1 < n; i++ {
		if err := l.AddEdge(i, i+1, 1); err != nil {
			t.Fatal(err)
		}
	}
	return l.Graph()
}

func TestAddEdgeValidation(t *testing.T) {
	l := edgeList{n: 3}
	if err := l.AddEdge(-1, 0, 1); err == nil {
		t.Error("accepted negative node")
	}
	if err := l.AddEdge(0, 3, 1); err == nil {
		t.Error("accepted out-of-range node")
	}
	if err := l.AddEdge(1, 1, 1); err == nil {
		t.Error("accepted self loop")
	}
	if err := l.AddEdge(0, 1, -2); err == nil {
		t.Error("accepted negative weight")
	}
	if err := l.AddEdge(0, 1, math.NaN()); err == nil {
		t.Error("accepted NaN weight")
	}
	if err := l.AddEdge(0, 1, 5); err != nil {
		t.Errorf("rejected valid edge: %v", err)
	}
	g := l.Graph()
	if len(l.edges) != 1 || len(g.FrozenRow(0, nil)) != 1 || len(g.FrozenRow(1, nil)) != 1 {
		t.Error("edge bookkeeping wrong")
	}
}

func TestDijkstraLine(t *testing.T) {
	g := lineGraph(t, 5)
	sp, err := g.Dijkstra(0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1, 2, 3, 4}
	if !reflect.DeepEqual(sp.Dist, want) {
		t.Errorf("dist = %v", sp.Dist)
	}
	if got := sp.PathTo(4); !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4}) {
		t.Errorf("path = %v", got)
	}
	if got := sp.PathTo(0); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("path to self = %v", got)
	}
}

func TestDijkstraPrefersCheaperRoute(t *testing.T) {
	//    0 --10-- 1
	//    0 --1--- 2 --1-- 1
	g := buildGraph(t, 3, []testEdge{{0, 1, 10}, {0, 2, 1}, {2, 1, 1}})
	sp, err := g.Dijkstra(0)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Dist[1] != 2 {
		t.Errorf("dist[1] = %v, want 2", sp.Dist[1])
	}
	if got := sp.PathTo(1); !reflect.DeepEqual(got, []int{0, 2, 1}) {
		t.Errorf("path = %v", got)
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := buildGraph(t, 4, []testEdge{{0, 1, 1}})
	sp, err := g.Dijkstra(0)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(sp.Dist[2], 1) || !math.IsInf(sp.Dist[3], 1) {
		t.Errorf("dist = %v", sp.Dist)
	}
	if sp.PathTo(3) != nil {
		t.Error("path to unreachable node is non-nil")
	}
}

func TestDijkstraInvalidSource(t *testing.T) {
	g := buildGraph(t, 2, nil)
	if _, err := g.Dijkstra(5); err == nil {
		t.Error("accepted out-of-range source")
	}
}

func TestFloydWarshallMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(30)
		l := edgeList{n: n}
		for i := 0; i < 3*n; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			if err := l.AddEdge(a, b, float64(1+rng.Intn(100))); err != nil {
				t.Fatal(err)
			}
		}
		g := l.Graph()
		ap := g.FloydWarshall()
		for src := 0; src < n; src++ {
			sp, err := g.Dijkstra(src)
			if err != nil {
				t.Fatal(err)
			}
			for dst := 0; dst < n; dst++ {
				d1, d2 := sp.Dist[dst], ap.Dist(src, dst)
				if d1 != d2 && !(math.IsInf(d1, 1) && math.IsInf(d2, 1)) {
					t.Fatalf("trial %d: dist(%d,%d): dijkstra %v vs floyd %v",
						trial, src, dst, d1, d2)
				}
			}
		}
	}
}

func TestFloydWarshallPathValid(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 25
	l := edgeList{n: n}
	weights := map[[2]int]float64{}
	for i := 0; i < 4*n; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		w := float64(1 + rng.Intn(50))
		if err := l.AddEdge(a, b, w); err != nil {
			t.Fatal(err)
		}
		key := [2]int{min(a, b), max(a, b)}
		if old, ok := weights[key]; !ok || w < old {
			weights[key] = w
		}
	}
	ap := l.Graph().FloydWarshall()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			path := ap.Path(a, b)
			if math.IsInf(ap.Dist(a, b), 1) {
				if path != nil {
					t.Fatalf("path for unreachable pair (%d,%d)", a, b)
				}
				continue
			}
			if path[0] != a || path[len(path)-1] != b {
				t.Fatalf("path(%d,%d) endpoints: %v", a, b, path)
			}
			// Sum of edge weights along the path must equal the distance.
			total := 0.0
			for i := 0; i+1 < len(path); i++ {
				key := [2]int{min(path[i], path[i+1]), max(path[i], path[i+1])}
				w, ok := weights[key]
				if !ok {
					t.Fatalf("path(%d,%d) uses non-existent edge %v", a, b, key)
				}
				total += w
			}
			if math.Abs(total-ap.Dist(a, b)) > 1e-9 {
				t.Fatalf("path(%d,%d) weight %v != dist %v", a, b, total, ap.Dist(a, b))
			}
		}
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(15)
		l := edgeList{n: n}
		for i := 0; i < 2*n; i++ {
			a, b := r.Intn(n), r.Intn(n)
			if a != b {
				_ = l.AddEdge(a, b, float64(1+r.Intn(20)))
			}
		}
		ap := l.Graph().FloydWarshall()
		a, b, c := rng.Intn(n), rng.Intn(n), rng.Intn(n)
		ab, bc, ac := ap.Dist(a, b), ap.Dist(b, c), ap.Dist(a, c)
		if math.IsInf(ab, 1) || math.IsInf(bc, 1) {
			return true
		}
		return ac <= ab+bc+1e-9
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

func TestSymmetryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 20
	l := edgeList{n: n}
	for i := 0; i < 3*n; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			_ = l.AddEdge(a, b, rng.Float64()*10)
		}
	}
	ap := l.Graph().FloydWarshall()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if d1, d2 := ap.Dist(a, b), ap.Dist(b, a); d1 != d2 {
				t.Fatalf("asymmetric dist(%d,%d): %v vs %v", a, b, d1, d2)
			}
		}
	}
}

func TestParallelEdgesUseCheapest(t *testing.T) {
	g := buildGraph(t, 2, []testEdge{{0, 1, 10}, {0, 1, 3}})
	sp, err := g.Dijkstra(0)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Dist[1] != 3 {
		t.Errorf("dist = %v, want 3", sp.Dist[1])
	}
	if ap := g.FloydWarshall(); ap.Dist(0, 1) != 3 {
		t.Errorf("floyd dist = %v, want 3", ap.Dist(0, 1))
	}
}

// torus builds the +GRID-like 2D torus with w*h nodes, the topology shape
// of a constellation shell.
func torus(t testing.TB, w, h int) *Graph {
	l := edgeList{n: w * h}
	for x := 0; x < w; x++ {
		for y := 0; y < h; y++ {
			id := x*h + y
			right := ((x+1)%w)*h + y
			up := x*h + (y+1)%h
			if err := l.AddEdge(id, right, 1); err != nil {
				t.Fatal(err)
			}
			if err := l.AddEdge(id, up, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	return l.Graph()
}

func TestTorusDistances(t *testing.T) {
	g := torus(t, 8, 8)
	sp, err := g.Dijkstra(0)
	if err != nil {
		t.Fatal(err)
	}
	// On an 8x8 unit torus the farthest node is 4+4 = 8 hops away.
	maxDist := 0.0
	for _, d := range sp.Dist {
		if d > maxDist {
			maxDist = d
		}
	}
	if maxDist != 8 {
		t.Errorf("torus diameter from 0 = %v, want 8", maxDist)
	}
}

func BenchmarkDijkstraTorus1584(b *testing.B) {
	g := torus(b, 72, 22)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Dijkstra(i % g.n); err != nil {
			b.Fatal(err)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestDijkstraTransit(t *testing.T) {
	// 0 --1-- 1 --1-- 2 and a direct 0 --5-- 2. If node 1 cannot act as
	// transit, the direct edge must be used.
	g := buildGraph(t, 3, []testEdge{{0, 1, 1}, {1, 2, 1}, {0, 2, 5}})
	sp, err := g.DijkstraTransit(0, func(n int) bool { return n != 1 })
	if err != nil {
		t.Fatal(err)
	}
	if sp.Dist[2] != 5 {
		t.Errorf("dist with blocked transit = %v, want 5", sp.Dist[2])
	}
	// Node 1 itself remains reachable as an endpoint.
	if sp.Dist[1] != 1 {
		t.Errorf("dist to blocked node = %v, want 1", sp.Dist[1])
	}
	// The source is always expanded even if the predicate rejects it.
	sp, err = g.DijkstraTransit(1, func(n int) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if sp.Dist[0] != 1 || sp.Dist[2] != 1 {
		t.Errorf("source not expanded: %v", sp.Dist)
	}
}

func TestDijkstraTransitIntoMatchesAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := edgeList{n: 64}
	for i := 0; i < 200; i++ {
		a, b := rng.Intn(64), rng.Intn(64)
		if a == b {
			continue
		}
		if err := l.AddEdge(a, b, rng.Float64()*10); err != nil {
			t.Fatal(err)
		}
	}
	g := l.Graph()
	var ws Workspace
	dist := make([]float64, 64)
	prev := make([]int, 64)
	for src := 0; src < 64; src += 7 {
		want, err := g.DijkstraTransit(src, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := g.DijkstraTransitInto(src, nil, dist, prev, &ws)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Dist, got.Dist) || !reflect.DeepEqual(want.Prev, got.Prev) {
			t.Fatalf("src %d: buffer-reusing run diverges from allocating run", src)
		}
		// Sufficient capacity: the result is backed by the given
		// buffers, no reallocation.
		if &got.Dist[0] != &dist[0] || &got.Prev[0] != &prev[0] {
			t.Fatalf("src %d: result did not reuse the provided buffers", src)
		}
	}
	// Undersized buffers are replaced, not overrun.
	got, err := g.DijkstraTransitInto(0, nil, make([]float64, 3), make([]int, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Dist) != 64 || len(got.Prev) != 64 {
		t.Fatalf("undersized buffers: result sized %d/%d", len(got.Dist), len(got.Prev))
	}
	if _, err := g.DijkstraTransitInto(-1, nil, dist, prev, &ws); err == nil {
		t.Error("accepted invalid source")
	}
}

// TestBuildKeepsInsertionOrder: Build lists each row's entries in the
// order of the edges that insert them. Trees depend on that order where
// weights are zero — the canonical tie-break leaves zero-weight ties to the
// scan order — so the same edge list must always give the same tree.
func TestBuildKeepsInsertionOrder(t *testing.T) {
	edges := []testEdge{{0, 1, 0}, {0, 2, 0}, {2, 3, 0}, {1, 3, 0}, {2, 1, 1}}
	g := buildGraph(t, 4, edges)
	want := [][]Edge{
		{{1, 0}, {2, 0}},
		{{0, 0}, {3, 0}, {2, 1}},
		{{0, 0}, {3, 0}, {1, 1}},
		{{2, 0}, {1, 0}},
	}
	for v, row := range want {
		if got := g.FrozenRow(v, nil); !reflect.DeepEqual(got, row) {
			t.Errorf("row %d = %v, want %v", v, got, row)
		}
	}
	// Every node sits at distance 0 from node 0, and node 3 has two
	// zero-weight supporters, 1 and 2. Whichever settles first becomes
	// its predecessor, and that follows row 0's order, so reversing the
	// edge list changes the tree.
	sp, err := g.Dijkstra(0)
	if err != nil {
		t.Fatal(err)
	}
	rev := make([]testEdge, len(edges))
	for i, e := range edges {
		rev[len(edges)-1-i] = e
	}
	spRev, err := buildGraph(t, 4, rev).Dijkstra(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sp.Dist, spRev.Dist) {
		t.Fatalf("distances depend on edge order: %v vs %v", sp.Dist, spRev.Dist)
	}
	if reflect.DeepEqual(sp.Prev, spRev.Prev) {
		t.Errorf("zero-weight tree %v does not depend on edge order: the case no longer tells orders apart", sp.Prev)
	}
	again, err := buildGraph(t, 4, edges).Dijkstra(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sp.Prev, again.Prev) {
		t.Errorf("the same edge list gave trees %v and %v", sp.Prev, again.Prev)
	}
}
