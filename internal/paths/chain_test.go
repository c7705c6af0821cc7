package paths

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"celestial/internal/geom"
	"celestial/internal/graph"
)

// chain is a sequence of graphs on fixed node positions, each the one
// before with a batch of edge deltas patched in, the way a constellation's
// latency graph moves from tick to tick. Nodes from sats on are endpoints:
// they link only to nodes below sats and forward nothing, like ground
// stations. Every weight is at least the distance between its ends (times
// ratio), so one heuristic serves every graph of the chain.
type chain struct {
	pos    []geom.Vec3
	sats   int
	h      graph.Heuristic
	graphs []*graph.Graph
	// deltas[k] takes graphs[k-1] to graphs[k], canonical (A < B, one per
	// edge); an empty batch leaves the graph as it was.
	deltas [][]graph.EdgeDelta
	// edges[k] is graphs[k]'s edge set, for fresh builds.
	edges []map[[2]int]float64
	fresh map[[2]int]graph.ShortestPaths
}

// newChain draws a chain of steps+1 graphs on n nodes. Integer coordinates
// in a small square and weights rounded up to a quantum make equal distances
// common, so the canonical tie-break carries real weight. Every
// shareEvery-th batch is empty (none when shareEvery is 0).
func newChain(seed int64, n, steps, shareEvery int) *chain {
	rng := rand.New(rand.NewSource(seed))
	ch := &chain{pos: make([]geom.Vec3, n), sats: n - n/5, fresh: map[[2]int]graph.ShortestPaths{}}
	side := 2 + int(math.Sqrt(float64(n)))
	for i := range ch.pos {
		ch.pos[i] = geom.Vec3{X: float64(rng.Intn(side)), Y: float64(rng.Intn(side))}
	}
	const ratio = 3.3356409519815204e-06 // 1/c in s/km, as for link delays
	quantum := ratio * []float64{0.25, 0.5, 1}[rng.Intn(3)]
	ch.h = graph.Heuristic{Pos: ch.pos, Scale: graph.HeuristicScale(ratio)}
	// near lists the candidate links: endpoints link only to satellites,
	// no link has zero length.
	var near [][2]int
	for a := 0; a < ch.sats; a++ {
		for b := a + 1; b < n; b++ {
			if d := ch.pos[a].Distance(ch.pos[b]); d > 0 && d <= 2 {
				near = append(near, [2]int{a, b})
			}
		}
	}
	weight := func(e [2]int) float64 {
		d := ch.pos[e[0]].Distance(ch.pos[e[1]]) * ratio * (1 + float64(rng.Intn(3))/10)
		return math.Ceil(d/quantum) * quantum
	}
	edges := map[[2]int]float64{}
	for _, e := range near {
		if rng.Intn(3) != 0 {
			edges[e] = weight(e)
		}
	}
	g := buildGraph(n, edges)
	ch.graphs, ch.edges, ch.deltas = []*graph.Graph{g}, []map[[2]int]float64{edges}, [][]graph.EdgeDelta{nil}
	for k := 1; k <= steps; k++ {
		next := maps.Clone(edges)
		var batch []graph.EdgeDelta
		if shareEvery == 0 || k%shareEvery != 0 {
			picked := map[[2]int]bool{}
			for i := 0; i < 1+rng.Intn(6) && len(near) > 0; i++ {
				e := near[rng.Intn(len(near))]
				if picked[e] {
					continue
				}
				picked[e] = true
				oldW, ok := edges[e]
				newW := -1.0
				if !ok || rng.Intn(2) == 0 {
					newW = weight(e)
				}
				if !ok {
					oldW = -1
				}
				if oldW == newW {
					continue
				}
				batch = append(batch, graph.EdgeDelta{A: e[0], B: e[1], OldW: oldW, NewW: newW})
				if newW < 0 {
					delete(next, e)
				} else {
					next[e] = newW
				}
			}
		}
		pg := new(graph.Graph)
		if err := pg.CopyFrozenFrom(g); err != nil || pg.PatchFrozen(batch) != nil {
			pg = buildGraph(n, next)
		}
		ch.graphs, ch.edges, ch.deltas = append(ch.graphs, pg), append(ch.edges, next), append(ch.deltas, batch)
		g, edges = pg, next
	}
	return ch
}

// buildGraph builds a graph of n nodes from an edge set, in sorted order.
func buildGraph(n int, edges map[[2]int]float64) *graph.Graph {
	keys := make([][2]int, 0, len(edges))
	for e := range edges {
		keys = append(keys, e)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i][0] < keys[j][0] || keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1]
	})
	g := new(graph.Graph)
	g.Build(n, len(keys), func(i int) (int, int, float64) { return keys[i][0], keys[i][1], edges[keys[i]] })
	return g
}

func (ch *chain) transit(v int) bool { return v < ch.sats }

// reset empties c for graph k of the chain.
func (ch *chain) reset(c *Cache, k int) {
	c.Reset(ch.graphs[k], ch.transit, ch.h)
}

// tree returns a full Dijkstra run from src on a fresh build of graph k.
func (ch *chain) tree(t *testing.T, k, src int) graph.ShortestPaths {
	t.Helper()
	if sp, ok := ch.fresh[[2]int{k, src}]; ok {
		return sp
	}
	sp, err := buildGraph(len(ch.pos), ch.edges[k]).DijkstraTransit(src, ch.transit)
	if err != nil {
		t.Fatal(err)
	}
	ch.fresh[[2]int{k, src}] = sp
	return sp
}

// checkHeld compares every completed entry of c, on graph k, with a fresh
// run: trees bit for bit, pairs by distance bits and path.
func (ch *chain) checkHeld(t *testing.T, label string, k int, c *Cache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for a, src := range c.m {
		want := ch.tree(t, k, a)
		if e := src.tree; e != nil && e.done.Load() && e.err == nil {
			for v := range want.Dist {
				if math.Float64bits(e.sp.Dist[v]) != math.Float64bits(want.Dist[v]) || e.sp.Prev[v] != want.Prev[v] {
					t.Fatalf("%s: graph %d: held tree of %d at node %d: %v/%d, fresh %v/%d",
						label, k, a, v, e.sp.Dist[v], e.sp.Prev[v], want.Dist[v], want.Prev[v])
				}
			}
		}
		for _, pe := range src.pairs {
			if !pe.done.Load() || pe.err != nil {
				continue
			}
			if math.Float64bits(pe.dist) != math.Float64bits(want.Dist[pe.dst]) ||
				!math.IsInf(pe.dist, 1) && !slices.Equal(pe.path, want.PathTo(pe.dst)) {
				t.Fatalf("%s: graph %d: held pair %d>%d: %v %v, fresh %v %v",
					label, k, a, pe.dst, pe.dist, pe.path, want.Dist[pe.dst], want.PathTo(pe.dst))
			}
		}
	}
}

// read is one read of a cache: a pair read when dst is set, a whole-tree
// read otherwise.
type read struct {
	src, dst int
	pair     bool
}

// do reads c, on graph k, and checks the answer against a fresh run.
func (ch *chain) do(t *testing.T, k int, c *Cache, reads []read) {
	t.Helper()
	for _, r := range reads {
		want := ch.tree(t, k, r.src)
		if !r.pair {
			sp, err := c.Tree(r.src)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(sp.Prev, want.Prev) {
				t.Fatalf("graph %d: tree of %d differs from a fresh run", k, r.src)
			}
			continue
		}
		d, path, err := c.Route(r.src, r.dst, true)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(d) != math.Float64bits(want.Dist[r.dst]) || !slices.Equal(path, want.PathTo(r.dst)) {
			t.Fatalf("graph %d: route %d>%d = %v %v, fresh %v %v", k, r.src, r.dst, d, path, want.Dist[r.dst], want.PathTo(r.dst))
		}
	}
}

// held lists the completed entries of c: trees as "src", with whether a
// whole-tree read planted them, pairs as "src>dst", each with its read
// stamp, sorted.
func held(c *Cache) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for a, src := range c.m {
		if e := src.tree; e != nil && e.done.Load() && e.err == nil {
			out = append(out, fmt.Sprintf("%d@%d whole %v", a, e.lastRead.Load(), e.whole))
		}
		for _, pe := range src.pairs {
			if pe.done.Load() && pe.err == nil {
				out = append(out, fmt.Sprintf("%d>%d@%d", a, pe.dst, pe.lastRead.Load()))
			}
		}
	}
	sort.Strings(out)
	return out
}

// hasTree reports whether c holds a tree for src, and hasPair whether it
// holds a pair entry for src>dst.
func hasTree(c *Cache, src int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[src] != nil && c.m[src].tree != nil
}

func hasPair(c *Cache, src, dst int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[src] != nil && c.m[src].pair(dst) != nil
}
