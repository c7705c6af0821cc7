package constellation

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"celestial/internal/graph"
	"celestial/internal/orbit"
)

// cacheSize counts the completed trees and pairs st's path cache holds.
func cacheSize(st *State) int {
	trees, pairs := cachedSources(st)
	return len(trees) + len(pairs)
}

// TestPairReadsRejectBadEndpoints: every pair read checks both endpoints.
// A target past the last node used to index the source's tree out of range
// and panic.
func TestPairReadsRejectBadEndpoints(t *testing.T) {
	c := mustNew(t, testConfig(t, orbit.ModelKepler))
	st, err := c.Snapshot(100)
	if err != nil {
		t.Fatal(err)
	}
	n := c.NodeCount()
	for _, ends := range [][2]int{{-1, 0}, {n, 0}, {0, -1}, {0, n}, {n - 1, n + 7}} {
		a, b := ends[0], ends[1]
		t.Run(fmt.Sprintf("%d-%d", a, b), func(t *testing.T) {
			if _, err := st.Latency(a, b); err == nil {
				t.Error("Latency: no error")
			}
			if _, err := st.RTT(a, b); err == nil {
				t.Error("RTT: no error")
			}
			if p, err := st.Path(a, b); err == nil || p != nil {
				t.Errorf("Path = %v, %v; want an error", p, err)
			}
			if bw, ok := st.PathBandwidth(a, b); ok {
				t.Errorf("PathBandwidth = %v, ok", bw)
			}
		})
	}
}

// TestPairAnswersMatchTrees: over 60 pooled ticks, prefetched or not, with
// 5 ms steps (pairs shared) and multi-second ones (pairs re-searched, trees
// repaired), every pair read — Latency, Path, PathBandwidth — returns the
// bits a tree on a from-scratch snapshot of the same offset gives. Reads mix
// pair-served sources, a source read as a whole tree, and reads that land
// on the published state after its successor's prepare looked.
func TestPairAnswersMatchTrees(t *testing.T) {
	c := mustNew(t, testConfig(t, orbit.ModelKepler))
	fresh := mustNew(t, testConfig(t, orbit.ModelKepler))
	tp := &tickingPool{pool: c.NewSnapshotPool()}
	accra, _ := c.GSTNodeByName("accra")
	abuja, _ := c.GSTNodeByName("abuja")
	yaounde, _ := c.GSTNodeByName("yaounde")
	jbg, _ := c.GSTNodeByName("johannesburg")
	pairs := [][2]int{{accra, abuja}, {abuja, yaounde}, {yaounde, accra}, {0, jbg}, {137, 300}, {jbg, 1}}

	check := func(tick int, st *State, offset float64, reads [][2]int) {
		t.Helper()
		ref, err := fresh.Snapshot(offset)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range reads {
			tree, err := ref.pathsFor(p[0])
			if err != nil {
				t.Fatal(err)
			}
			lat, err1 := st.Latency(p[0], p[1])
			path, err2 := st.Path(p[0], p[1])
			bw, ok := st.PathBandwidth(p[0], p[1])
			wbw, wok := ref.PathBandwidth(p[0], p[1])
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if math.Float64bits(lat) != math.Float64bits(tree.Dist[p[1]]) || !slices.Equal(path, tree.PathTo(p[1])) || bw != wbw || ok != wok {
				t.Fatalf("tick %d pair %v: %v %v %v/%v, tree %v %v %v/%v",
					tick, p, lat, path, bw, ok, tree.Dist[p[1]], tree.PathTo(p[1]), wbw, wok)
			}
		}
	}

	offset := 100.0
	st := tp.tick(t, offset)
	check(0, st, offset, pairs)
	served := map[string]int{}
	for tick := 1; tick <= 60; tick++ {
		if tick%3 == 0 {
			offset += 0.005
		} else {
			offset += 1 + float64(tick%4)
		}
		if tick%10 == 5 {
			if _, _, err := st.BestMeetingPoint([]int{accra, jbg}); err != nil {
				t.Fatal(err)
			}
		}
		reads := pairs
		if tick%2 == 0 {
			tp.pool.Prefetch(offset)
			<-tp.pool.pre.done
			late := [2]int{pairs[tick%len(pairs)][0], 37 * tick % c.NodeCount()}
			if _, err := st.Latency(late[0], late[1]); err != nil {
				t.Fatal(err)
			}
			reads = append(slices.Clip(pairs), late)
		}
		st = tp.tick(t, offset)
		d := st.Diff()
		switch {
		case d.LinksUnchanged():
			served["shared"] += d.CarriedPaths
		default:
			served["recomputed"] += d.RepairedPaths
		}
		for _, p := range pairs {
			if entryFor(st, p[0]) != nil {
				served["tree"]++
			} else if pairFor(st, p[0], p[1]) != nil {
				served["pair"]++
			}
		}
		check(tick, st, offset, reads)
	}
	for _, k := range []string{"shared", "recomputed", "tree", "pair"} {
		if served[k] == 0 {
			t.Fatalf("schedule too tame: %v", served)
		}
	}
}

// TestLatePairReadSearchedInFinish: a pair read on the published state
// only after the Prefetch of its successor looked is searched by that
// successor's finish, and from then on by each prepare; a finish whose
// reads all came before the Prefetch searches nothing.
func TestLatePairReadSearchedInFinish(t *testing.T) {
	c := mustNew(t, testConfig(t, orbit.ModelKepler))
	tp := &tickingPool{pool: c.NewSnapshotPool()}
	accra, _ := c.GSTNodeByName("accra")
	abuja, _ := c.GSTNodeByName("abuja")
	yaounde, _ := c.GSTNodeByName("yaounde")
	read := func(st *State, a, b int) {
		t.Helper()
		if _, err := st.Latency(a, b); err != nil {
			t.Fatal(err)
		}
		if entryFor(st, a) != nil {
			t.Fatalf("source %d took a tree: the schedule needs pair-served sources", a)
		}
	}
	offset := 100.0
	st := tp.tick(t, offset)
	const lateTick = 3
	for tick := 1; tick <= 6; tick++ {
		offset += 2
		read(st, accra, abuja)
		tp.pool.Prefetch(offset)
		pf := tp.pool.pre
		<-pf.done
		prepared := cacheSize(pf.out)
		if tick > lateTick && pairFor(pf.out, abuja, yaounde) == nil {
			t.Fatalf("tick %d: the prepare did not re-search the late pair", tick)
		}
		if tick == lateTick {
			read(st, abuja, yaounde)
		}
		st = tp.tick(t, offset)
		if st.Diff().LinksUnchanged() {
			t.Fatalf("tick %d: 2 s step with unchanged links", tick)
		}
		searched := cacheSize(st) - prepared
		want := 0
		if tick == lateTick {
			want = 1
		}
		if searched != want {
			t.Fatalf("tick %d: finish searched %d entries, want %d", tick, searched, want)
		}
	}
	if pairFor(st, abuja, yaounde) == nil || pairFor(st, accra, abuja) == nil {
		t.Fatal("a pair read every tick or once late is no longer cached")
	}
}

// TestTreeOnlyWherePairsCostMore: a source whose pair searches on one state
// settle more than graph.RepairFallbackFraction of the nodes gets a tree —
// planted by the read that crosses the line, and repaired on the next
// state — while a source under the line keeps its pairs and no tree. Each
// station reads more and more targets; the settled counts come from
// searching the same pairs on the graph directly.
func TestTreeOnlyWherePairsCostMore(t *testing.T) {
	c := mustNew(t, testConfig(t, orbit.ModelKepler))
	tp := &tickingPool{pool: c.NewSnapshotPool()}
	st := tp.tick(t, 100)
	gstBase := c.NodeCount() - len(c.gst)
	limit := graph.RepairFallbackFraction * float64(c.NodeCount())
	var ws graph.Workspace
	h := graph.Heuristic{Pos: st.Positions, Scale: st.pairScale}
	targets := map[int][]int{}
	trees, treeCount, under := map[int]bool{}, 0, 0
	for gi := range c.gst {
		src := gstBase + gi
		settled := 0
		for k := 1; k <= 4; k++ {
			dst := (gstBase + gi + k) % c.NodeCount()
			p, err := st.g.ShortestPair(src, dst, st.transitFn, h, &ws, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Latency(src, dst); err != nil {
				t.Fatal(err)
			}
			targets[src] = append(targets[src], dst)
			if !trees[src] {
				settled += p.Settled
			}
			want := float64(settled) > limit
			if got := entryFor(st, src) != nil; got != want {
				t.Fatalf("station %d after %d reads: %d nodes settled of a %v limit, tree %v", gi, k, settled, limit, got)
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
	next := tp.tick(t, 102)
	if next.Diff().LinksUnchanged() {
		t.Fatal("2 s step with unchanged links")
	}
	for src, tree := range trees {
		e := entryFor(next, src)
		if tree != (e != nil) {
			t.Fatalf("source %d: tree %v on the next state, %v before", src, e != nil, tree)
		}
		for _, dst := range targets[src] {
			if pe := pairFor(next, src, dst); !tree && pe == nil {
				t.Fatalf("pair %d>%d was not re-searched", src, dst)
			}
		}
	}
	if got := next.Diff().RepairedPaths; got != len(trees) {
		t.Fatalf("%d sources repaired or re-searched, want %d (one per source)", got, len(trees))
	}
}

// TestTreeInFlightLeavesTheSourceToItsPairs: a read of the published state
// whose pair search crossed the line plants the source's tree, and is
// still computing it when the next state's snapshot runs — on a busy host
// the reading goroutine can be descheduled in the middle of the full run.
// The source goes on by its pairs and counts once, as it would had the
// plant not started; otherwise how a run counts it would depend on the
// scheduler. Once complete, a tree that reaches a state after the
// source's pairs did replaces them.
func TestTreeInFlightLeavesTheSourceToItsPairs(t *testing.T) {
	c := mustNew(t, testConfig(t, orbit.ModelKepler))
	tp := &tickingPool{pool: c.NewSnapshotPool()}
	accra, _ := c.GSTNodeByName("accra")
	abuja, _ := c.GSTNodeByName("abuja")
	st := tp.tick(t, 100)
	if _, err := st.Latency(accra, abuja); err != nil {
		t.Fatal(err)
	}
	if entryFor(st, accra) != nil {
		t.Fatal("accra took a tree: the test needs a pair-served source")
	}
	sh := &st.paths[accra%pathShards]
	sh.mu.Lock()
	planted := st.takeEntry()
	sh.m[accra].tree = planted // planted, not filled: a fill in progress
	sh.mu.Unlock()

	tp.pool.Prefetch(102)
	<-tp.pool.pre.done
	st.fillEntry(planted, accra) // completes between the two halves
	next := tp.tick(t, 102)
	if got := next.Diff().RepairedPaths + next.Diff().RepairFallbacks; got != 1 {
		t.Fatalf("%d sources brought forward, want 1", got)
	}
	if entryFor(next, accra) == nil || pairFor(next, accra, abuja) != nil {
		t.Fatalf("next state: tree %v, pair %v; want the completed tree alone", entryFor(next, accra) != nil, pairFor(next, accra, abuja) != nil)
	}

	// Never completed before the boundary: the pair carries the source.
	st = next
	sh = &st.paths[abuja%pathShards]
	if _, err := st.Latency(abuja, accra); err != nil {
		t.Fatal(err)
	}
	sh.mu.Lock()
	sh.m[abuja].tree = st.takeEntry()
	sh.mu.Unlock()
	next = tp.tick(t, 104)
	if got := next.Diff().RepairedPaths; got != 2 {
		t.Fatalf("%d sources brought forward, want 2 (accra's tree, abuja's pair)", got)
	}
	if entryFor(next, abuja) != nil || pairFor(next, abuja, accra) == nil {
		t.Fatal("the source whose tree never completed did not go on by its pair")
	}
}
