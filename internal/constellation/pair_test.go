package constellation

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"celestial/internal/orbit"
)

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
			tree, err := ref.paths.Tree(p[0])
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
		check(tick, st, offset, reads)
	}
	for _, k := range []string{"shared", "recomputed"} {
		if served[k] == 0 {
			t.Fatalf("schedule too tame: %v", served)
		}
	}
}
