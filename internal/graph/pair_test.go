package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"celestial/internal/geom"
)

// Shape bits of FuzzPairSearchMatchesDijkstra.
const (
	pairGrid    = 1 << iota // nodes on a plane lattice, edges between lattice neighbours: many equal-length routes
	pairExact               // weights are the scaled length itself, not rounded to a quantum
	pairTransit             // every third node does not forward
	pairFar                 // a few long edges across the box
)

// pairCase draws a random geometric graph: n nodes at integer coordinates
// in a small box (or on a lattice), edges between near nodes weighted by
// their length times a ratio near one, rounded to a quantum like the
// constellation's link delays (or left exact). Integer coordinates put many
// nodes in line with the target, where the heuristic is tight, and the
// quantum makes equal distances common, so predecessor ties sit exactly on
// the search's f ≤ d(t) bound.
func pairCase(seed int64, n int, shape uint8) (pos []geom.Vec3, edges []testEdge) {
	rng := rand.New(rand.NewSource(seed))
	pos = make([]geom.Vec3, n)
	side := 2 + rng.Intn(6)
	for i := range pos {
		if shape&pairGrid != 0 {
			pos[i] = geom.Vec3{X: float64(i % side), Y: float64(i / side)}
		} else {
			pos[i] = geom.Vec3{X: float64(rng.Intn(side)), Y: float64(rng.Intn(side)), Z: float64(rng.Intn(3))}
		}
	}
	ratio := []float64{1, 0.1, 1.0 / 3, 0.7, 3.3356409519815204e-06}[rng.Intn(5)] // the last is 1/c in s/km
	quantum := ratio * []float64{0.5, 0.25, 0.1, 1}[rng.Intn(4)]
	weight := func(a, b int) float64 {
		w := pos[a].Distance(pos[b]) * ratio
		if shape&pairExact == 0 {
			w = math.Round(w/quantum) * quantum
		}
		return w
	}
	add := func(a, b int) {
		if a != b {
			if w := weight(a, b); w > 0 {
				edges = append(edges, testEdge{a, b, w})
			}
		}
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			d := pos[a].Distance(pos[b])
			if shape&pairGrid != 0 && d == 1 && rng.Intn(8) != 0 {
				add(a, b)
			} else if shape&pairGrid == 0 && d <= 2 && rng.Intn(3) != 0 {
				add(a, b)
			}
		}
	}
	if shape&pairFar != 0 {
		for i := 0; i < 3; i++ {
			add(rng.Intn(n), rng.Intn(n))
		}
	}
	return pos, edges
}

// checkPair is the body of FuzzPairSearchMatchesDijkstra: every target of
// the drawn source, and the drawn pair once more through a reused
// workspace, must come out of ShortestPair bit-identical to
// DijkstraTransit and PathTo.
func checkPair(t *testing.T, seed int64, nodes, src, dst, shape uint8) {
	n := 2 + int(nodes)%62
	pos, edges := pairCase(seed, n, shape)
	g := build(n, edges)
	if !g.PairSearchable() {
		t.Skip("graph refused")
	}
	minRatio := math.Inf(1)
	for _, e := range edges {
		if l := pos[e.a].Distance(pos[e.b]); l > 0 {
			minRatio = math.Min(minRatio, e.w/l)
		}
	}
	h := Heuristic{Pos: pos, Scale: HeuristicScale(minRatio)}
	var transit func(int) bool
	if shape&pairTransit != 0 {
		transit = func(v int) bool { return v%3 != 2 }
	}
	s := int(src) % n
	want, err := g.DijkstraTransit(s, transit)
	if err != nil {
		t.Fatal(err)
	}
	var ws Workspace
	var buf []int
	for _, d := range append([]int{int(dst) % n}, rangeN(n)...) {
		p, err := g.ShortestPair(s, d, transit, h, &ws, buf)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(p.Dist) != math.Float64bits(want.Dist[d]) {
			t.Fatalf("pair (%d, %d): dist %v, Dijkstra %v", s, d, p.Dist, want.Dist[d])
		}
		if w := want.PathTo(d); !slices.Equal(p.Path, w) {
			t.Fatalf("pair (%d, %d): path %v, Dijkstra %v (dist %v)", s, d, p.Path, w, p.Dist)
		}
		if want := settledBound(want, h, d); p.Settled != want {
			t.Fatalf("pair (%d, %d): %d nodes settled, %d have f ≤ d(t) (dist %v)", s, d, p.Settled, want, p.Dist)
		}
		buf = p.Path
	}
}

// settledBound counts the nodes an exact search for dst settles: every
// reachable node whose f = d(u) + h(u), with sp's distances, is at most
// d(dst). Under a consistent heuristic the search expands nodes in f order,
// each once, and stops past d(dst) — the target itself included, since
// f(dst) = d(dst).
func settledBound(sp ShortestPaths, h Heuristic, dst int) int {
	k := 0
	for u, d := range sp.Dist {
		if !math.IsInf(d, 1) && d+h.Scale*h.Pos[u].Distance(h.Pos[dst]) <= sp.Dist[dst] {
			k++
		}
	}
	return k
}

// rangeN returns 0, 1, ..., n-1.
func rangeN(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// FuzzPairSearchMatchesDijkstra holds the goal-directed pair search to a
// full Dijkstra run on random geometric graphs: distances bit-equal and
// paths node for node, with some nodes that do not forward. The heuristic
// is the graph's own least weight-to-length ratio through HeuristicScale,
// so ties in distance land exactly on the search's inclusive bound and the
// rounding of f meets the margin.
func FuzzPairSearchMatchesDijkstra(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(0), uint8(19), uint8(0))
	f.Add(int64(2), uint8(36), uint8(0), uint8(35), uint8(pairGrid))
	f.Add(int64(3), uint8(36), uint8(5), uint8(30), uint8(pairGrid|pairExact))
	f.Add(int64(4), uint8(40), uint8(1), uint8(38), uint8(pairTransit))
	f.Add(int64(5), uint8(50), uint8(7), uint8(3), uint8(pairGrid|pairTransit|pairFar))
	f.Add(int64(6), uint8(60), uint8(2), uint8(59), uint8(pairExact|pairFar))
	f.Fuzz(checkPair)
}

// TestPairSearchMatchesDijkstraRandom runs the fuzz target's property over
// a fixed sweep of seeds and shapes in every plain test run.
func TestPairSearchMatchesDijkstraRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for i := 0; i < 300; i++ {
		seed, nodes := rng.Int63(), uint8(rng.Intn(64))
		src, dst, shape := uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(16))
		t.Run("", func(t *testing.T) { checkPair(t, seed, nodes, src, dst, shape) })
	}
}

// TestShortestPairRefuses: the pair search declines exactly where the tree
// repair does, and rejects endpoints out of range and a heuristic that
// does not cover the graph.
func TestShortestPairRefuses(t *testing.T) {
	pos := []geom.Vec3{{}, {X: 1}, {X: 2}}
	h := Heuristic{Pos: pos, Scale: 1}
	ok := build(3, []testEdge{{0, 1, 1}, {1, 2, 1}})
	zero := build(3, []testEdge{{0, 1, 0}, {1, 2, 1}})
	absorb := build(3, []testEdge{{0, 1, 1e-300}, {1, 2, 1}})
	if !ok.PairSearchable() || zero.PairSearchable() || absorb.PairSearchable() {
		t.Fatalf("PairSearchable: plain %v, zero weight %v, absorbable %v", ok.PairSearchable(), zero.PairSearchable(), absorb.PairSearchable())
	}
	for _, c := range []struct {
		g        *Graph
		src, dst int
		h        Heuristic
	}{
		{zero, 0, 2, h}, {absorb, 0, 2, h}, {ok, -1, 2, h}, {ok, 0, 3, h},
		{ok, 0, 2, Heuristic{Pos: pos[:2], Scale: 1}}, {ok, 0, 2, Heuristic{Pos: pos, Scale: math.NaN()}},
	} {
		if _, err := c.g.ShortestPair(c.src, c.dst, nil, c.h, nil, nil); err == nil {
			t.Errorf("ShortestPair(%d, %d) with %d positions, scale %v: no error", c.src, c.dst, len(c.h.Pos), c.h.Scale)
		}
	}
	p, err := ok.ShortestPair(0, 2, nil, h, nil, nil)
	if err != nil || p.Dist != 2 || !slices.Equal(p.Path, []int{0, 1, 2}) {
		t.Fatalf("ShortestPair(0, 2) on a line = %+v, %v", p, err)
	}
}
