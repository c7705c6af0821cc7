package graph

import (
	"math"
	"strings"
	"testing"
)

// The shortest-path queue is keyed on the IEEE 754 bits of a distance, which
// order like the distance only for non-negative, non-NaN values. These tests
// pin the weights at the edge of that domain.

// TestDeltasRejectNaN: a NaN side of an edge delta is refused by both delta
// consumers, as AddEdge refuses a NaN weight — NaN < 0 is false, so it
// would otherwise count as a present edge.
func TestDeltasRejectNaN(t *testing.T) {
	nan := math.NaN()
	for _, d := range []EdgeDelta{
		{A: 0, B: 1, OldW: 1, NewW: nan},
		{A: 0, B: 1, OldW: nan, NewW: 1},
		{A: 1, B: 2, OldW: -1, NewW: nan},
		{A: 1, B: 2, OldW: nan, NewW: -1},
	} {
		g := buildGraph(t, 3, []testEdge{{0, 1, 1}, {1, 2, 1}})
		sp, err := g.Dijkstra(0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.RepairSSSP(&sp, []EdgeDelta{d}, nil, nil); err == nil || !strings.Contains(err.Error(), "invalid edge delta") {
			t.Errorf("RepairSSSP(%+v): err = %v", d, err)
		}
		if err := g.PatchFrozen([]EdgeDelta{d}); err == nil || !strings.Contains(err.Error(), "invalid edge delta") {
			t.Errorf("PatchFrozen(%+v): err = %v", d, err)
		}
		// The refused delta left the image alone.
		if after, _ := g.Dijkstra(0); after.Dist[2] != 2 || liveEntries(g) != 4 {
			t.Errorf("PatchFrozen(%+v) changed the graph: dist %v, %d entries", d, after.Dist, liveEntries(g))
		}
	}
}

// TestNegativeZeroWeight: -0.0 is a zero weight like +0.0 — it marks the
// graph for RepairSSSP's fallback whichever way it arrives — and never
// turns a distance into -0.0, whose bits would not fit the queue.
func TestNegativeZeroWeight(t *testing.T) {
	negZero := math.Copysign(0, -1)
	g := buildGraph(t, 4, []testEdge{{0, 1, negZero}, {1, 2, 1}})
	if !g.zeroW {
		t.Error("Build with -0.0 did not mark the graph as holding a zero weight")
	}

	patched := new(Graph)
	if err := patched.CopyFrozenFrom(buildGraph(t, 4, []testEdge{{0, 1, 2}, {1, 2, 1}})); err != nil {
		t.Fatal(err)
	}
	deltas := []EdgeDelta{{A: 0, B: 1, OldW: 2, NewW: negZero}, {A: 2, B: 3, OldW: -1, NewW: negZero}}
	if err := patched.PatchFrozen(deltas); err != nil {
		t.Fatal(err)
	}
	if !patched.zeroW {
		t.Error("PatchFrozen(-0.0) did not mark the graph as holding a zero weight")
	}

	for name, g := range map[string]*Graph{"built": g, "patched": patched} {
		sp, err := g.Dijkstra(0)
		if err != nil {
			t.Fatal(err)
		}
		for v, d := range sp.Dist {
			if math.Signbit(d) {
				t.Errorf("%s: dist[%d] = %v carries a sign bit", name, v, d)
			}
		}
		if sp.Dist[1] != 0 || sp.Dist[2] != 1 {
			t.Errorf("%s: dist = %v", name, sp.Dist)
		}
		if fast, err := g.RepairSSSP(&sp, []EdgeDelta{{A: 1, B: 2, OldW: 1, NewW: 1}}, nil, nil); err != nil || fast {
			t.Errorf("%s: RepairSSSP on a zero-weight graph: fast path %v, err %v", name, fast, err)
		}
	}
}

// TestInfiniteWeight: an edge of weight +Inf is legal and carries nothing —
// what it alone connects stays unreachable, under a full run and under
// repair alike.
func TestInfiniteWeight(t *testing.T) {
	before := []testEdge{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}}
	after := []testEdge{{0, 1, 1}, {1, 2, Inf}, {2, 3, 1}, {0, 4, Inf}}
	g1, g2 := buildGraph(t, 5, before), buildGraph(t, 5, after)
	want, err := g2.Dijkstra(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{2, 3, 4} {
		if !math.IsInf(want.Dist[v], 1) || want.Prev[v] != -1 {
			t.Errorf("node %d behind an infinite edge: dist %v prev %d", v, want.Dist[v], want.Prev[v])
		}
	}
	deltas := []EdgeDelta{{A: 1, B: 2, OldW: 1, NewW: Inf}, {A: 0, B: 4, OldW: -1, NewW: Inf}}
	assertRepairedExact(t, g1, g2, deltas, 0, nil, nil)
	// And back: the infinite edge becomes finite again.
	back := []EdgeDelta{{A: 1, B: 2, OldW: Inf, NewW: 1}, {A: 0, B: 4, OldW: Inf, NewW: -1}}
	assertRepairedExact(t, g2, g1, back, 0, nil, nil)
}

// TestRepairSSSPDeltaSequence: a delta list may change one edge more than
// once (PatchFrozen applies such lists in order). An improvement that a
// later entry takes back must not be relaxed from the delta's own weight —
// the edge as g holds it is what counts.
func TestRepairSSSPDeltaSequence(t *testing.T) {
	base := []testEdge{{0, 1, 4}, {1, 2, 4}, {0, 3, 1}, {3, 2, 9}}
	for name, tc := range map[string]struct {
		after  []testEdge
		deltas []EdgeDelta
	}{
		"added then removed": {
			after: base,
			deltas: []EdgeDelta{
				{A: 0, B: 2, OldW: -1, NewW: 1},
				{A: 0, B: 2, OldW: 1, NewW: -1},
			},
		},
		"cheapened then made heavier": {
			after: []testEdge{{0, 1, 4}, {1, 2, 6}, {0, 3, 1}, {3, 2, 9}},
			deltas: []EdgeDelta{
				{A: 1, B: 2, OldW: 4, NewW: 1},
				{A: 1, B: 2, OldW: 1, NewW: 6},
			},
		},
		"added twice, the lighter one stays": {
			after: append(append([]testEdge(nil), base...), testEdge{0, 2, 2}),
			deltas: []EdgeDelta{
				{A: 0, B: 2, OldW: -1, NewW: 7},
				{A: 0, B: 2, OldW: 7, NewW: 2},
			},
		},
	} {
		t.Run(name, func(t *testing.T) {
			g1, g2 := buildGraph(t, 4, base), buildGraph(t, 4, tc.after)
			for src := 0; src < 4; src++ {
				assertRepairedExact(t, g1, g2, tc.deltas, src, nil, nil)
			}
		})
	}
}
