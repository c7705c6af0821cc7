package graph

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// randomPatchGraph builds a connected random graph whose weights are drawn
// from a small quantized set, so that regenerated graphs share weights and
// weight-change deltas can name exact old values.
func randomPatchGraph(rng *rand.Rand, n int, extra int) (*Graph, map[[2]int]float64) {
	var list []testEdge
	edges := make(map[[2]int]float64)
	add := func(a, b int, w float64) {
		if a > b {
			a, b = b, a
		}
		if _, ok := edges[[2]int{a, b}]; ok {
			return
		}
		edges[[2]int{a, b}] = w
		list = append(list, testEdge{a, b, w})
	}
	for v := 1; v < n; v++ {
		add(rng.Intn(v), v, quantW(rng))
	}
	for i := 0; i < extra; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			add(a, b, quantW(rng))
		}
	}
	return build(n, list), edges
}

func quantW(rng *rand.Rand) float64 { return float64(1+rng.Intn(40)) * 0.25 }

// rebuildFromEdges builds a fresh graph holding exactly the given edge set
// — the from-scratch oracle a patched image must match.
func rebuildFromEdges(n int, edges map[[2]int]float64) *Graph {
	// Deterministic insertion order (sorted) — results must not depend on
	// it thanks to the canonical tie-break, but determinism keeps failures
	// reproducible.
	keys := sortedKeys(edges)
	list := make([]testEdge, len(keys))
	for i, k := range keys {
		list[i] = testEdge{k[0], k[1], edges[k]}
	}
	return build(n, list)
}

// sortedKeys returns the edge set's endpoint pairs in ascending order, so
// that walks over the set are reproducible.
func sortedKeys(edges map[[2]int]float64) [][2]int {
	keys := make([][2]int, 0, len(edges))
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	return keys
}

// assertSameSSSP asserts bit-identical Dijkstra results from every source.
func assertSameSSSP(t *testing.T, want, got *Graph, ctx string) {
	t.Helper()
	if want.n != got.n || liveEntries(want) != liveEntries(got) {
		t.Fatalf("%s: shape mismatch: %d/%d nodes, %d/%d entries", ctx, want.n, got.n, liveEntries(want), liveEntries(got))
	}
	for src := 0; src < want.n; src++ {
		a, err := want.Dijkstra(src)
		if err != nil {
			t.Fatal(err)
		}
		b, err := got.Dijkstra(src)
		if err != nil {
			t.Fatal(err)
		}
		for v := range a.Dist {
			if a.Dist[v] != b.Dist[v] || a.Prev[v] != b.Prev[v] {
				t.Fatalf("%s: src %d node %d: dist/prev (%v, %d) vs (%v, %d)",
					ctx, src, v, a.Dist[v], a.Prev[v], b.Dist[v], b.Prev[v])
			}
		}
	}
}

// rowSet collects a node's live CSR entries as a multiset for canonical
// comparison (patching reorders rows; the edge *set* must match exactly).
func rowSet(g *Graph, v int) map[Edge]int {
	set := make(map[Edge]int)
	for idx := g.rowStart[v]; idx < g.rowEnd[v]; idx++ {
		set[Edge{To: int(g.edgeTo[idx]), Weight: g.weight[idx]}]++
	}
	return set
}

// mutatePatch applies one random mutation to the edge map and returns the
// corresponding delta.
func mutatePatch(rng *rand.Rand, n int, edges map[[2]int]float64) (EdgeDelta, bool) {
	switch rng.Intn(3) {
	case 0: // add
		for tries := 0; tries < 32; tries++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			if _, ok := edges[[2]int{a, b}]; ok {
				continue
			}
			w := quantW(rng)
			edges[[2]int{a, b}] = w
			return EdgeDelta{A: a, B: b, OldW: -1, NewW: w}, true
		}
	case 1: // remove
		if keys := sortedKeys(edges); len(keys) > 0 {
			k := keys[rng.Intn(len(keys))]
			w := edges[k]
			delete(edges, k)
			return EdgeDelta{A: k[0], B: k[1], OldW: w, NewW: -1}, true
		}
	default: // reweight
		if keys := sortedKeys(edges); len(keys) > 0 {
			k := keys[rng.Intn(len(keys))]
			w, nw := edges[k], quantW(rng)
			if nw == w {
				nw += 0.25
			}
			edges[k] = nw
			return EdgeDelta{A: k[0], B: k[1], OldW: w, NewW: nw}, true
		}
	}
	return EdgeDelta{}, false
}

// TestPatchFrozenDifferential is the patch path's core invariant: an image
// maintained purely by CopyFrozenFrom + PatchFrozen over many random delta
// batches yields Dijkstra results bit-identical to a Build of the same
// edge set, and its live rows hold exactly the same edge multiset.
func TestPatchFrozenDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 60
	base, edges := randomPatchGraph(rng, n, 90)

	patched := new(Graph)
	if err := patched.CopyFrozenFrom(base); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 25; round++ {
		var deltas []EdgeDelta
		for k := 0; k < 1+rng.Intn(8); k++ {
			if d, ok := mutatePatch(rng, n, edges); ok {
				deltas = append(deltas, d)
			}
		}
		if err := patched.PatchFrozen(deltas); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		oracle := rebuildFromEdges(n, edges)
		assertSameSSSP(t, oracle, patched, "patched differential")
		for v := 0; v < n; v++ {
			want, got := rowSet(oracle, v), rowSet(patched, v)
			if len(want) != len(got) {
				t.Fatalf("round %d node %d: row sets differ: %v vs %v", round, v, want, got)
			}
			for e, c := range want {
				if got[e] != c {
					t.Fatalf("round %d node %d: entry %+v count %d vs %d", round, v, e, got[e], c)
				}
			}
		}
	}
}

// TestPatchFrozenHubStopsCompacting pins the slack rule on the shape that
// used to compact every tick: one hub row of ~90 entries — a ground station
// and its uplinks — whose degree moves by more than the fixed slack on
// every patch. Each patch clones the previous image, as the snapshot pool
// does, removes k of the hub's links and then adds k+Δ (or the reverse),
// with Δ the row's proportional share of its slack. No compaction may run, so
// neither image ever allocates csrScratch, and every query must equal a
// graph rebuilt from the same edge set.
func TestPatchFrozenHubStopsCompacting(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	const n, hubDegree = 240, 90
	const delta = hubDegree / 8
	var list []testEdge
	edges := make(map[[2]int]float64)
	link := func(a, b int, w float64) {
		list = append(list, testEdge{a, b, w})
		edges[[2]int{a, b}] = w
	}
	for v := 2; v < n; v++ {
		link(v-1, v, quantW(rng)) // a path keeps every leaf reachable
	}
	leaves := rng.Perm(n - 1)
	for i := range leaves {
		leaves[i]++
	}
	hub, spare := leaves[:hubDegree], leaves[hubDegree:]
	for _, v := range hub {
		link(0, v, quantW(rng))
	}

	images := [2]*Graph{build(n, list), new(Graph)}
	for round := 0; round < 40; round++ {
		prev, next := images[round%2], images[(round+1)%2]
		if err := next.CopyFrozenFrom(prev); err != nil {
			t.Fatal(err)
		}
		k := 5 + rng.Intn(20)
		drop, add := k, k+delta
		if round%2 == 1 {
			drop, add = k+delta, k
		}
		rng.Shuffle(len(hub), func(i, j int) { hub[i], hub[j] = hub[j], hub[i] })
		rng.Shuffle(len(spare), func(i, j int) { spare[i], spare[j] = spare[j], spare[i] })
		var deltas []EdgeDelta
		for _, v := range hub[:drop] {
			deltas = append(deltas, EdgeDelta{A: 0, B: v, OldW: edges[[2]int{0, v}], NewW: -1})
			delete(edges, [2]int{0, v})
		}
		for _, v := range spare[:add] {
			w := quantW(rng)
			deltas = append(deltas, EdgeDelta{A: 0, B: v, OldW: -1, NewW: w})
			edges[[2]int{0, v}] = w
		}
		if err := next.PatchFrozen(deltas); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		hub, spare = append(spare[:add:add], hub[drop:]...), append(hub[:drop:drop], spare[add:]...)
		if len(hub) != int(next.rowEnd[0]-next.rowStart[0]) {
			t.Fatalf("round %d: hub row holds %d entries, want %d", round, next.rowEnd[0]-next.rowStart[0], len(hub))
		}
		for i, im := range images {
			if im.csrScratch.edgeTo != nil {
				t.Fatalf("round %d: image %d compacted (hub degree %d)", round, i, len(hub))
			}
		}
		assertSameSSSP(t, rebuildFromEdges(n, edges), next, "hub patch")
	}
}

// TestPatchFrozenRepairSSSP checks the patched image under the incremental
// repair path: results repaired across a patch match a fresh run on a
// rebuilt graph exactly.
func TestPatchFrozenRepairSSSP(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 80
	base, edges := randomPatchGraph(rng, n, 140)
	patched := new(Graph)
	if err := patched.CopyFrozenFrom(base); err != nil {
		t.Fatal(err)
	}

	var ws Workspace
	sp, err := patched.DijkstraTransitInto(0, nil, nil, nil, &ws)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		var deltas []EdgeDelta
		for k := 0; k < 1+rng.Intn(4); k++ {
			if d, ok := mutatePatch(rng, n, edges); ok {
				deltas = append(deltas, d)
			}
		}
		if err := patched.PatchFrozen(deltas); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if _, err := patched.RepairSSSP(&sp, deltas, nil, &ws); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		oracle := rebuildFromEdges(n, edges)
		want, err := oracle.Dijkstra(0)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want.Dist {
			if want.Dist[v] != sp.Dist[v] || want.Prev[v] != sp.Prev[v] {
				t.Fatalf("round %d node %d: repaired (%v, %d) vs fresh (%v, %d)",
					round, v, sp.Dist[v], sp.Prev[v], want.Dist[v], want.Prev[v])
			}
		}
	}
}

// TestPatchFrozenSlackOverflow forces additions past the reserved slack so
// the compaction path runs, and checks results stay exact.
func TestPatchFrozenSlackOverflow(t *testing.T) {
	const n = 12
	edges := make(map[[2]int]float64)
	for v := 1; v < n; v++ {
		edges[[2]int{v - 1, v}] = 1
	}
	patched := new(Graph)
	if err := patched.CopyFrozenFrom(rebuildFromEdges(n, edges)); err != nil {
		t.Fatal(err)
	}
	var deltas []EdgeDelta
	for a := 0; a < n; a++ {
		for b := a + 2; b < n; b++ {
			w := float64(b-a) * 0.5
			deltas = append(deltas, EdgeDelta{A: a, B: b, OldW: -1, NewW: w})
			edges[[2]int{a, b}] = w
		}
	}
	if err := patched.PatchFrozen(deltas); err != nil {
		t.Fatal(err)
	}
	if patched.csrScratch.edgeTo == nil {
		t.Fatal("node 0 gained 10 entries past a slack of 2 without a compaction")
	}
	assertSameSSSP(t, rebuildFromEdges(n, edges), patched, "slack overflow")
}

// TestPatchFrozenErrors covers the unmatched-delta and misuse error paths.
func TestPatchFrozenErrors(t *testing.T) {
	var empty Graph
	if err := empty.PatchFrozen([]EdgeDelta{{A: 0, B: 1, OldW: -1, NewW: 1}}); err == nil {
		t.Fatal("the zero graph accepted an edge")
	}
	g := build(4, []testEdge{{0, 1, 1}, {1, 2, 1}})
	if err := g.PatchFrozen([]EdgeDelta{{A: 0, B: 4, OldW: -1, NewW: 1}}); err == nil {
		t.Fatal("out-of-range delta accepted")
	}
	if err := g.PatchFrozen([]EdgeDelta{{A: 0, B: 2, OldW: 1, NewW: -1}}); err == nil {
		t.Fatal("removal of absent edge accepted")
	}
	if err := g.PatchFrozen([]EdgeDelta{{A: 0, B: 1, OldW: 7, NewW: 3}}); err == nil {
		t.Fatal("reweight with wrong old weight accepted")
	}
	if err := empty.CopyFrozenFrom(g); err != nil {
		t.Fatalf("CopyFrozenFrom into the zero graph: %v", err)
	}
	if err := g.CopyFrozenFrom(g); err == nil {
		t.Fatal("CopyFrozenFrom self accepted")
	}
	if err := g.CopyFrozenFrom(nil); err == nil {
		t.Fatal("CopyFrozenFrom nil accepted")
	}
	// The zero graph is an empty one: copying it empties g.
	if err := g.CopyFrozenFrom(new(Graph)); err != nil || g.n != 0 {
		t.Fatalf("CopyFrozenFrom the zero graph: %d nodes, err %v", g.n, err)
	}
	if _, err := g.Dijkstra(0); err == nil {
		t.Fatal("a query on the empty graph succeeded")
	}
}

// TestPatchFrozenZeroWeight checks that patching in a zero-weight edge
// flags the graph so RepairSSSP refuses its fast path (falling back to an
// exact full recompute).
func TestPatchFrozenZeroWeight(t *testing.T) {
	g := build(5, []testEdge{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 4, 1}})
	p := new(Graph)
	if err := p.CopyFrozenFrom(g); err != nil {
		t.Fatal(err)
	}
	sp, err := p.Dijkstra(0)
	if err != nil {
		t.Fatal(err)
	}
	deltas := []EdgeDelta{{A: 0, B: 2, OldW: -1, NewW: 0}}
	if err := p.PatchFrozen(deltas); err != nil {
		t.Fatal(err)
	}
	repaired, err := p.RepairSSSP(&sp, deltas, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if repaired {
		t.Fatal("repair took the fast path on a zero-weight graph")
	}
	if sp.Dist[2] != 0 {
		t.Fatalf("zero-weight edge not applied: dist[2] = %v", sp.Dist[2])
	}
}

// sameImage fails unless got holds the image a fresh Build made: the same
// node count, row layout, live entries in the same order, and weight
// bookkeeping. Free slots are not compared; no scan reads them.
func sameImage(t *testing.T, ctx string, want, got *Graph) {
	t.Helper()
	if got.n != want.n || got.zeroW != want.zeroW ||
		math.Float64bits(got.wmin) != math.Float64bits(want.wmin) ||
		math.Float64bits(got.wmax) != math.Float64bits(want.wmax) {
		t.Fatalf("%s: n/zeroW/wmin/wmax %d/%v/%v/%v, fresh %d/%v/%v/%v", ctx,
			got.n, got.zeroW, got.wmin, got.wmax, want.n, want.zeroW, want.wmin, want.wmax)
	}
	if !reflect.DeepEqual(got.rowStart, want.rowStart) || !reflect.DeepEqual(got.rowEnd, want.rowEnd) {
		t.Fatalf("%s: row layout differs from a fresh Build", ctx)
	}
	for v := 0; v < want.n; v++ {
		if w, g := want.FrozenRow(v, nil), got.FrozenRow(v, nil); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: row %d = %v, fresh %v", ctx, v, g, w)
		}
	}
}

// TestBuildAfterPatchIsFresh: Build on a graph whose image was cloned,
// patched past its slack (so it compacted), given a zero weight and a new
// least weight yields exactly the image a Build on a new graph does,
// whether the node count grows, shrinks or stays.
func TestBuildAfterPatchIsFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var path []testEdge
	for v := 1; v < 30; v++ {
		path = append(path, testEdge{v - 1, v, quantW(rng)})
	}
	p := new(Graph)
	if err := p.CopyFrozenFrom(build(30, path)); err != nil {
		t.Fatal(err)
	}
	deltas := []EdgeDelta{{A: 0, B: 1, OldW: path[0].w, NewW: 0}, {A: 0, B: 2, OldW: -1, NewW: 1e-3}}
	for b := 3; b < 20; b++ {
		deltas = append(deltas, EdgeDelta{A: 0, B: b, OldW: -1, NewW: 1})
	}
	if err := p.PatchFrozen(deltas); err != nil {
		t.Fatal(err)
	}
	if p.csrScratch.edgeTo == nil || !p.zeroW || p.wmin != 1e-3 {
		t.Fatal("the patch did not compact, zero-weight and lower wmin the image")
	}
	for _, n := range []int{30, 50, 12} {
		var list []testEdge
		for v := 1; v < n; v++ {
			list = append(list, testEdge{rng.Intn(v), v, quantW(rng)})
		}
		p.Build(n, len(list), func(i int) (int, int, float64) { return list[i].a, list[i].b, list[i].w })
		fresh := build(n, list)
		sameImage(t, fmt.Sprintf("rebuilt with %d nodes", n), fresh, p)
		assertSameSSSP(t, fresh, p, "rebuilt")
	}
}

// FuzzPatchMatchesBuild drives a chain of patched images the way the
// snapshot pool does — each round clones the previous image and patches a
// random delta batch into the clone — and holds every image to a Build of
// the same edge set. A batch mixes removals and reweights with additions
// that pile onto one node past its free slots, forcing a compaction. After
// each batch Dijkstra on the patched image, and RepairSSSP of the previous
// round's trees, must give Dist and Prev bit-identical to Dijkstra on the
// built graph.
func FuzzPatchMatchesBuild(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(6), uint8(0), false)
	f.Add(int64(2), uint8(40), uint8(8), uint8(20), false)
	f.Add(int64(3), uint8(12), uint8(8), uint8(11), true)
	f.Add(int64(4), uint8(60), uint8(4), uint8(30), true)
	f.Fuzz(checkPatchMatchesBuild)
}

// checkPatchMatchesBuild is the body of FuzzPatchMatchesBuild.
func checkPatchMatchesBuild(t *testing.T, seed int64, nodes, rounds, burst uint8, transitOdd bool) {
	n := 4 + int(nodes)%60
	rng := rand.New(rand.NewSource(seed))
	base, edges := randomPatchGraph(rng, n, n)
	var transit func(int) bool
	if transitOdd {
		transit = func(v int) bool { return v%2 == 0 }
	}
	srcs := []int{0, n / 2, n - 1}
	trees := make([]ShortestPaths, len(srcs))
	for i, src := range srcs {
		sp, err := base.DijkstraTransit(src, transit)
		if err != nil {
			t.Fatal(err)
		}
		trees[i] = sp
	}
	var ws Workspace
	images := [2]*Graph{base, new(Graph)}
	for r := 0; r < 1+int(rounds)%12; r++ {
		prev, next := images[r%2], images[(r+1)%2]
		if err := next.CopyFrozenFrom(prev); err != nil {
			t.Fatal(err)
		}
		// The burst and the random mutations come in either order; each
		// delta names the edge set as the ones before it left it.
		var deltas []EdgeDelta
		mutate := func() {
			for k := rng.Intn(6); k >= 0; k-- {
				if d, ok := mutatePatch(rng, n, edges); ok {
					deltas = append(deltas, d)
				}
			}
		}
		burstFirst := rng.Intn(2) == 0
		if !burstFirst {
			mutate()
		}
		hub := rng.Intn(n)
		for k := 0; k < int(burst)%24; k++ {
			b := rng.Intn(n)
			key := [2]int{min(hub, b), max(hub, b)}
			if _, ok := edges[key]; ok || b == hub {
				continue
			}
			w := quantW(rng)
			edges[key] = w
			deltas = append(deltas, EdgeDelta{A: hub, B: b, OldW: -1, NewW: w})
		}
		if burstFirst {
			mutate()
		}
		if err := next.PatchFrozen(deltas); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		built := rebuildFromEdges(n, edges)
		for i, src := range srcs {
			want, err := built.DijkstraTransit(src, transit)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := next.DijkstraTransitInto(src, transit, nil, nil, &ws)
			if err != nil {
				t.Fatal(err)
			}
			sameAsReference(t, fmt.Sprintf("round %d src %d: patched", r, src), fresh, want, false)
			if _, err := next.RepairSSSP(&trees[i], deltas, transit, &ws); err != nil {
				t.Fatal(err)
			}
			sameAsReference(t, fmt.Sprintf("round %d src %d: repaired", r, src), trees[i], want, false)
		}
	}
}
