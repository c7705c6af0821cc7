package paths

import (
	"go/parser"
	"go/token"
	"math/rand"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"celestial/internal/graph"
)

// checkCarry is the body of FuzzCarryMatchesFresh. Three chains of caches
// follow one chain of graphs, each recycling three caches the way a
// snapshot pool recycles states:
//   - one carries in a single pass, after every read of the previous
//     cache;
//   - two carries in two passes, the first before the previous cache's late
//     reads and the second after them, as a prefetched snapshot does;
//   - beside, a second tenant on the same graphs, takes extra reads.
//
// Every answer and every entry a cache holds must be bit-equal to a fresh
// Dijkstra run on a fresh build of its graph; one and two must hold the
// same entries, with the same read stamps, and count the same; and the
// extra reads must not show in either.
func checkCarry(t *testing.T, seed int64, nodes, steps, shape uint8) {
	n := 8 + int(nodes)%56
	ch := newChain(seed, n, 1+int(steps)%10, int(shape)%4)
	rng := rand.New(rand.NewSource(seed + 1))
	// A few sources take most reads, so pairs pile up past treePays and
	// entries go unread long enough to be evicted.
	hot := []int{rng.Intn(n), rng.Intn(n), n - 1}
	draw := func(k int) []read {
		rs := make([]read, rng.Intn(k))
		for i := range rs {
			src := hot[rng.Intn(len(hot))]
			if rng.Intn(4) == 0 {
				src = rng.Intn(n)
			}
			rs[i] = read{src: src, dst: rng.Intn(n), pair: rng.Intn(5) != 0}
		}
		return rs
	}
	var one, two, beside [3]Cache
	for k := range ch.graphs {
		a, b, o := &one[k%3], &two[k%3], &beside[k%3]
		ch.reset(a, k)
		ch.reset(b, k)
		ch.reset(o, k)
		if k > 0 {
			pa, pb, po := &one[(k-1)%3], &two[(k-1)%3], &beside[(k-1)%3]
			deltas, share := ch.deltas[k], len(ch.deltas[k]) == 0
			b.Carry(pb, deltas, share)
			late := draw(4)
			ch.do(t, k-1, pa, late)
			ch.do(t, k-1, pb, late)
			ch.do(t, k-1, po, draw(4))
			got := b.Carry(pb, deltas, share)
			want := a.Carry(pa, deltas, share)
			o.Carry(po, deltas, share)
			if got != want {
				t.Fatalf("graph %d: two passes count %+v, one pass %+v", k, got, want)
			}
			if w, g := held(a), held(b); !slices.Equal(w, g) {
				t.Fatalf("graph %d: one pass holds %v, two passes %v", k, w, g)
			}
			ch.checkHeld(t, "one pass", k, a)
			ch.checkHeld(t, "beside", k, o)
		}
		reads := draw(8)
		ch.do(t, k, a, reads)
		ch.do(t, k, b, reads)
		ch.do(t, k, o, draw(8))
	}
}

// FuzzCarryMatchesFresh holds the path cache to fresh Dijkstra runs over
// chains of random geometric graphs with endpoint nodes that do not
// forward, patched by random edge deltas (see checkCarry): every answer
// and every carried entry bit for bit, a carry split around late reads
// against one made after them, and a second tenant's reads against none.
func FuzzCarryMatchesFresh(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(4), uint8(0))
	f.Add(int64(2), uint8(40), uint8(9), uint8(2))
	f.Add(int64(3), uint8(55), uint8(6), uint8(3))
	f.Add(int64(4), uint8(12), uint8(8), uint8(1))
	f.Add(int64(5), uint8(48), uint8(12), uint8(0))
	f.Fuzz(checkCarry)
}

// TestCarryMatchesFreshRandom runs the fuzz target's property over a fixed
// sweep of seeds and shapes in every plain test run.
func TestCarryMatchesFreshRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 100; i++ {
		seed, nodes, steps, shape := rng.Int63(), uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256))
		t.Run("", func(t *testing.T) { checkCarry(t, seed, nodes, steps, shape) })
	}
}

// TestReadsStayInTheirCache: two caches on the same graphs are two
// tenants. Reads on one — of the same pairs and trees as the other's, and
// of others — never add an entry to the other cache nor move the read
// stamp of one it holds, on a cache or on its successor.
func TestReadsStayInTheirCache(t *testing.T) {
	ch := newChain(7, 60, 2, 2)
	var scen, outside [3]Cache
	mine := []read{{src: 3, dst: 50, pair: true}, {src: 59, dst: 10, pair: true}, {src: 20}}
	theirs := append(slices.Clip(mine), read{src: 3, dst: 7, pair: true}, read{src: 41, dst: 2, pair: true}, read{src: 58})
	for k := range ch.graphs {
		s, o := &scen[k], &outside[k]
		ch.reset(s, k)
		ch.reset(o, k)
		if k > 0 {
			s.Carry(&scen[k-1], ch.deltas[k], len(ch.deltas[k]) == 0)
			o.Carry(&outside[k-1], ch.deltas[k], len(ch.deltas[k]) == 0)
		}
		if k < 2 {
			ch.do(t, k, s, mine)
		}
		before := [][]string{held(&scen[0]), held(s)}
		for i := 0; i < 3; i++ {
			ch.do(t, k, o, theirs)
		}
		if after := [][]string{held(&scen[0]), held(s)}; !slices.EqualFunc(before, after, slices.Equal) {
			t.Fatalf("graph %d: reads on the other cache moved this one's entries: %v, then %v", k, before, after)
		}
		if len(held(s)) == 0 {
			t.Fatalf("graph %d: the schedule leaves the cache empty", k)
		}
	}
}

// TestTreeOnlyWherePairsCostMore: a source whose pair searches on one cache
// settle more than graph.RepairFallbackFraction of the nodes gets a tree —
// planted by the read that crosses the line, and repaired by the next
// carry — while a source under the line keeps its pairs and no tree. Each
// source reads more and more targets; the settled counts come from
// searching the same pairs on the graph directly.
func TestTreeOnlyWherePairsCostMore(t *testing.T) {
	const n = 120
	ch := newChain(11, n, 1, 0)
	var c, next Cache
	ch.reset(&c, 0)
	g := ch.graphs[0]
	limit := graph.RepairFallbackFraction * n
	var ws graph.Workspace
	targets := map[int][]int{}
	trees, treeCount, under := map[int]bool{}, 0, 0
	for src := ch.sats; src < n; src++ {
		settled := 0
		for k := 1; k <= 4; k++ {
			dst := (src + 7*k) % n
			p, err := g.ShortestPair(src, dst, ch.transit, ch.h, &ws, nil)
			if err != nil {
				t.Fatal(err)
			}
			ch.do(t, 0, &c, []read{{src: src, dst: dst, pair: true}})
			targets[src] = append(targets[src], dst)
			if !trees[src] {
				settled += p.Settled
			}
			want := float64(settled) > limit
			if got := hasTree(&c, src); got != want {
				t.Fatalf("source %d after %d reads: %d nodes settled of a %v limit, tree %v", src, k, settled, limit, got)
			}
			trees[src] = want
			if !want {
				under++
			}
		}
		if trees[src] {
			treeCount++
		}
	}
	if treeCount == 0 || under == 0 {
		t.Fatalf("schedule too tame: %d reads under the line, trees %v", under, trees)
	}
	ch.reset(&next, 1)
	counts := next.Carry(&c, ch.deltas[1], false)
	for src, tree := range trees {
		if hasTree(&next, src) != tree {
			t.Fatalf("source %d: tree %v after the carry, %v before", src, !tree, tree)
		}
		for _, dst := range targets[src] {
			if !tree && !hasPair(&next, src, dst) {
				t.Fatalf("pair %d>%d was not re-searched", src, dst)
			}
		}
	}
	if counts.Repaired != len(trees) {
		t.Fatalf("%d sources repaired or re-searched, want %d (one per source)", counts.Repaired, len(trees))
	}
	ch.checkHeld(t, "after the carry", 1, &next)
}

// TestTreeInFlightLeavesTheSourceToItsPairs: a read of the previous cache
// whose pair search crossed the line plants the source's tree, and is
// still computing it when the next cache's first carry pass runs — on a
// busy host the reading goroutine can be descheduled in the middle of the
// full run. The source goes on by its pairs and counts once, as it would
// had the plant not started; otherwise how a run counts it would depend on
// the scheduler. Once complete, a tree that reaches a cache after the
// source's pairs did replaces them.
func TestTreeInFlightLeavesTheSourceToItsPairs(t *testing.T) {
	ch := newChain(5, 250, 2, 0)
	a, b := ch.sats, ch.sats+1
	var c0, c1, c2 Cache
	ch.reset(&c0, 0)
	ch.do(t, 0, &c0, []read{{src: a, dst: b, pair: true}})
	if hasTree(&c0, a) {
		t.Fatal("the source took a tree: the test needs a pair-served source")
	}
	planted := new(pathEntry) // planted, not filled: a fill in progress
	c0.m[a].tree = planted

	ch.reset(&c1, 1)
	c1.Carry(&c0, ch.deltas[1], false)
	c0.tree(a, false) // completes between the two passes
	if n := c1.Carry(&c0, ch.deltas[1], false); n.Repaired+n.Fallbacks != 1 {
		t.Fatalf("%+v sources brought forward, want 1", n)
	}
	if !hasTree(&c1, a) || hasPair(&c1, a, b) {
		t.Fatalf("next cache: tree %v, pair %v; want the completed tree alone", hasTree(&c1, a), hasPair(&c1, a, b))
	}

	// Never completed before the carry: the pair carries the source.
	ch.do(t, 1, &c1, []read{{src: b, dst: a, pair: true}})
	c1.m[b].tree = new(pathEntry)
	ch.reset(&c2, 2)
	if got := c2.Carry(&c1, ch.deltas[2], false).Repaired; got != 2 {
		t.Fatalf("%d sources brought forward, want 2 (a's tree, b's pair)", got)
	}
	if hasTree(&c2, b) || !hasPair(&c2, b, a) {
		t.Fatal("the source whose tree never completed did not go on by its pair")
	}
	ch.checkHeld(t, "after the carries", 2, &c2)
}

// TestLatePairReadSearchedInFinish: a pair read on the previous cache only
// after the next cache's first carry pass looked is searched by the second
// pass, and from then on by each first pass; a second pass whose reads all
// came before the first searches nothing.
func TestLatePairReadSearchedInFinish(t *testing.T) {
	const lateTick = 3
	ch := newChain(9, 250, 6, 0)
	a, b, c := ch.sats, ch.sats+1, ch.sats+2
	readPair := func(k int, cache *Cache, src, dst int) {
		t.Helper()
		ch.do(t, k, cache, []read{{src: src, dst: dst, pair: true}})
		if hasTree(cache, src) {
			t.Fatalf("source %d took a tree: the schedule needs pair-served sources", src)
		}
	}
	var caches [2]Cache
	prev := &caches[0]
	ch.reset(prev, 0)
	for k := 1; k <= 6; k++ {
		next := &caches[k%2]
		ch.reset(next, k)
		readPair(k-1, prev, a, b)
		next.Carry(prev, ch.deltas[k], false)
		prepared := len(held(next))
		if k > lateTick && !hasPair(next, b, c) {
			t.Fatalf("step %d: the first pass did not re-search the late pair", k)
		}
		if k == lateTick {
			readPair(k-1, prev, b, c)
		}
		next.Carry(prev, ch.deltas[k], false)
		want := 0
		if k == lateTick {
			want = 1
		}
		if searched := len(held(next)) - prepared; searched != want {
			t.Fatalf("step %d: the second pass searched %d entries, want %d", k, searched, want)
		}
		prev = next
	}
	if !hasPair(prev, b, c) || !hasPair(prev, a, b) {
		t.Fatal("a pair read every step or once late is no longer cached")
	}
}

// TestImportsOnlyGraphAndPar is the module's boundary: the path cache sees
// graphs, not constellations, so it imports the standard library, graph
// and par, and nothing else — no constellation, topo or orbit.
func TestImportsOnlyGraphAndPar(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{"celestial/internal/graph": true, "celestial/internal/par": true}
	fset := token.NewFileSet()
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			std := !strings.Contains(strings.Split(path, "/")[0], ".") && !strings.HasPrefix(path, "celestial/")
			if !std && !allowed[path] {
				t.Errorf("%s imports %s: the path cache may import only the standard library, graph and par", name, path)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no package files found")
	}
}
