package graph

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
)

// refItem and refHeap are the reference frontier: float distances ordered
// by container/heap, the queue shortest-path runs used before any radix
// queue, with no quantization at all.
type refItem struct {
	d float64
	v int
}

type refHeap []refItem

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// refDijkstra is a textbook Dijkstra over an edge list with runHeap's
// canonical relaxation rule: a strictly shorter distance takes the
// improving node as predecessor, an equal one over a positive weight the
// smaller node ID.
func refDijkstra(n int, edges []testEdge, src int, transit func(int) bool) ShortestPaths {
	adj := make([][]Edge, n)
	for _, e := range edges {
		adj[e.a] = append(adj[e.a], Edge{To: e.b, Weight: e.w})
		adj[e.b] = append(adj[e.b], Edge{To: e.a, Weight: e.w})
	}
	sp := ShortestPaths{Source: src, Dist: make([]float64, n), Prev: make([]int, n)}
	for i := range sp.Dist {
		sp.Dist[i], sp.Prev[i] = Inf, -1
	}
	sp.Dist[src] = 0
	h := &refHeap{{0, src}}
	for h.Len() > 0 {
		it := heap.Pop(h).(refItem)
		if it.d > sp.Dist[it.v] {
			continue
		}
		if transit != nil && it.v != src && !transit(it.v) {
			continue
		}
		for _, e := range adj[it.v] {
			nd := it.d + e.Weight
			if nd < sp.Dist[e.To] {
				sp.Dist[e.To], sp.Prev[e.To] = nd, it.v
				heap.Push(h, refItem{nd, e.To})
			} else if nd == sp.Dist[e.To] && e.Weight > 0 && it.v < sp.Prev[e.To] {
				sp.Prev[e.To] = it.v
			}
		}
	}
	return sp
}

// sameAsReference fails unless got's distances are bit-equal to the
// reference's and, when no weight is zero, so are its predecessors.
func sameAsReference(t *testing.T, ctx string, got, want ShortestPaths, zero bool) {
	t.Helper()
	for v := range want.Dist {
		if math.Float64bits(got.Dist[v]) != math.Float64bits(want.Dist[v]) {
			t.Fatalf("%s: dist[%d] = %v, reference %v", ctx, v, got.Dist[v], want.Dist[v])
		}
		if !zero && got.Prev[v] != want.Prev[v] {
			t.Fatalf("%s: prev[%d] = %d, reference %d (dist %v)", ctx, v, got.Prev[v], want.Prev[v], want.Dist[v])
		}
	}
}

// Shape bits of FuzzFrontierMatchesReference.
const (
	shapeZero      = 1 << iota // some weights are zero
	shapeSubnormal             // the least weight is subnormal
	shapeTransit               // odd nodes do not forward
	shapeTies                  // weights from a small set: equal distances everywhere
)

// frontierCase draws a graph of n nodes and about m edges: weights are a
// mantissa in [1, 10) times a power of ten within ±spread (or a few small
// integers under shapeTies), plus the zero and subnormal weights the shape
// asks for.
func frontierCase(seed int64, n, m, spread int, shape uint8) []testEdge {
	rng := rand.New(rand.NewSource(seed))
	weight := func() float64 {
		if shape&shapeTies != 0 {
			return float64(1 + rng.Intn(3))
		}
		e := 0
		if spread > 0 {
			e = rng.Intn(2*spread+1) - spread
		}
		return (1 + 9*rng.Float64()) * math.Pow(10, float64(e))
	}
	var edges []testEdge
	for i := 0; i < m; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		w := weight()
		switch {
		case shape&shapeZero != 0 && rng.Intn(5) == 0:
			w = 0
		case shape&shapeSubnormal != 0 && i == 0:
			w = 5e-324 * float64(1+rng.Intn(1000))
		}
		edges = append(edges, testEdge{a, b, w})
	}
	return edges
}

// FuzzFrontierMatchesReference holds the quantized frontier to a plain
// float Dijkstra, on fresh graphs and through a repair. Weights span up to
// 1e-300 to 1e300, so keys clamp at MaxKey and whole buckets are wider than
// a weight; the least weight may be subnormal, so the scale is capped; some
// weights may be zero, so buckets hold nodes that improve each other. The
// repair first removes the least edge from a patched copy, which leaves its
// wmin stale. Distances must be bit-equal throughout, and predecessors equal
// wherever no weight is zero (the canonical rule does not order zero-weight
// ties, so neither side's tree is canonical there).
func FuzzFrontierMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(30), uint8(0), uint8(0))
	f.Add(int64(2), uint8(40), uint8(120), uint8(3), uint8(shapeTransit))
	f.Add(int64(3), uint8(30), uint8(90), uint8(0), uint8(shapeTies))
	f.Add(int64(4), uint8(30), uint8(90), uint8(0), uint8(shapeTies|shapeTransit))
	f.Add(int64(5), uint8(25), uint8(80), uint8(255), uint8(0))
	f.Add(int64(6), uint8(25), uint8(80), uint8(255), uint8(shapeSubnormal))
	f.Add(int64(7), uint8(25), uint8(80), uint8(30), uint8(shapeZero))
	f.Add(int64(8), uint8(25), uint8(80), uint8(255), uint8(shapeZero|shapeSubnormal|shapeTransit))
	f.Add(int64(9), uint8(60), uint8(200), uint8(1), uint8(shapeSubnormal))
	f.Fuzz(checkFrontier)
}

// checkFrontier is the body of FuzzFrontierMatchesReference.
func checkFrontier(t *testing.T, seed int64, nodes, edgeCount, spread, shape uint8) {
	n := 2 + int(nodes)%62
	edges := frontierCase(seed, n, int(edgeCount), int(spread)*300/255, shape)
	var transit func(int) bool
	if shape&shapeTransit != 0 {
		transit = func(v int) bool { return v%2 == 0 }
	}
	zero := false
	least := -1
	for i, e := range edges {
		zero = zero || e.w == 0
		if e.w > 0 && (least < 0 || e.w < edges[least].w) {
			least = i
		}
	}
	g := buildGraph(t, n, edges)
	var ws Workspace
	srcs := []int{0, n / 2, n - 1}
	old := make([]ShortestPaths, len(srcs))
	for i, src := range srcs {
		sp, err := g.DijkstraTransitInto(src, transit, nil, nil, &ws)
		if err != nil {
			t.Fatal(err)
		}
		sameAsReference(t, "fresh", sp, refDijkstra(n, edges, src, transit), zero)
		old[i] = sp
	}
	if least < 0 {
		return
	}

	// Remove the least edge and reweight one other on a patched copy:
	// the copy's wmin is now below its least weight.
	removed := edges[least]
	next := append(append([]testEdge(nil), edges[:least]...), edges[least+1:]...)
	deltas := []EdgeDelta{{A: removed.a, B: removed.b, OldW: removed.w, NewW: -1}}
	if len(next) > 0 {
		i := int(uint64(seed) % uint64(len(next)))
		e := next[i]
		next[i].w = e.w*3 + 1e-300
		deltas = append(deltas, EdgeDelta{A: e.a, B: e.b, OldW: e.w, NewW: next[i].w})
	}
	g2 := new(Graph)
	if err := g2.CopyFrozenFrom(g); err != nil {
		t.Fatal(err)
	}
	if err := g2.PatchFrozen(deltas); err != nil {
		t.Fatal(err)
	}
	nextZero := false
	for _, e := range next {
		nextZero = nextZero || e.w == 0
	}
	for i, src := range srcs {
		want := refDijkstra(n, next, src, transit)
		sp := ShortestPaths{
			Source: src,
			Dist:   append([]float64(nil), old[i].Dist...),
			Prev:   append([]int(nil), old[i].Prev...),
		}
		if _, err := g2.RepairSSSP(&sp, deltas, transit, &ws); err != nil {
			t.Fatal(err)
		}
		sameAsReference(t, "repaired", sp, want, nextZero)
		fresh, err := g2.DijkstraTransitInto(src, transit, nil, nil, &ws)
		if err != nil {
			t.Fatal(err)
		}
		sameAsReference(t, "fresh after patch", fresh, want, nextZero)
	}
}

// TestFrontierMatchesReferenceRandom runs the fuzz target's property over a
// fixed sweep of seeds and shapes in every plain test run.
func TestFrontierMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 400; i++ {
		seed, nodes, m := rng.Int63(), uint8(rng.Intn(64)), uint8(rng.Intn(256))
		spread, shape := uint8(rng.Intn(256)), uint8(rng.Intn(16))
		t.Run("", func(t *testing.T) {
			checkFrontier(t, seed, nodes, m, spread, shape)
		})
	}
}
