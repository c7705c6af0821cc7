package graph

import (
	"fmt"
	"math"

	"celestial/internal/geom"
)

// Heuristic is the goal-directed lower bound ShortestPair searches under:
// the distance from u to the target is at least Scale times the Euclidean
// distance between their positions, h(u) = Scale·|Pos[u] − Pos[t]|. Pos
// must hold a position for every node of the graph.
//
// The search is exact only when the bound is consistent, h(u) ≤ w(u, v) +
// h(v) over every edge. By the triangle inequality that holds when no edge
// weighs less than Scale times its length, so HeuristicScale derives Scale
// from the least weight-to-length ratio of the graph's edges.
type Heuristic struct {
	Pos   []geom.Vec3
	Scale float64
}

// heuristicMargin is how much HeuristicScale shrinks the least
// weight-to-length ratio: 2^-20, about one part in a million. A search
// compares f = d(u) + h(u) against the target's distance, and both sides
// are rounded float sums; the margin keeps every f of a node on a shortest
// path at or below the target's distance despite that rounding (see
// PairSearchable for the bound it relies on).
const heuristicMargin = 1.0 / (1 << 20)

// HeuristicScale returns the Scale of a consistent Heuristic for a graph
// whose least ratio of edge weight to edge length (the distance between
// the endpoints' positions) is minRatio: minRatio less heuristicMargin. A
// minRatio that is not a finite positive number yields 0, a bound of zero
// under which ShortestPair is Dijkstra stopped at the target.
func HeuristicScale(minRatio float64) float64 {
	if !(minRatio > 0) || math.IsInf(minRatio, 1) {
		return 0
	}
	return minRatio * (1 - heuristicMargin)
}

// PairSearchable reports whether ShortestPair searches this graph. It
// refuses where RepairSSSP refuses its fast path — a zero-weight edge, or
// weights so far apart that one may vanish in a sum (sumsMayAbsorb) — and
// where the rounding of a sum could exceed the heuristic's margin: a
// shortest distance is a sum of at most n weights of at most wmax, each
// addition rounding by 2^-53 of the sum, against a slack of at least
// heuristicMargin·wmin per edge, so the margin holds while
// n·wmax < 2^31·wmin (2^-53·2·n·wmax ≤ 2^-20·wmin with a factor two to
// spare). Constellation weights are 0.1 ms quanta below ~30 ms over fewer
// than 10^5 nodes, four orders of magnitude inside it.
func (g *Graph) PairSearchable() bool {
	return !g.zeroW && g.wmin*(1<<31) > float64(g.n)*g.wmax
}

// Pair is the result of ShortestPair.
type Pair struct {
	// Dist is the shortest distance from the source to the target, Inf if
	// unreachable.
	Dist float64
	// Path is the node sequence of the shortest path, inclusive of both
	// endpoints, nil if unreachable.
	Path []int
	// Settled counts the nodes the search expanded, the target included.
	Settled int
}

// pairNode is ShortestPair's per-node state in a Workspace, valid while
// seen is the workspace's current pair epoch: the tentative distance, the
// node's heuristic (computed when the node is first reached), its
// predecessor, and closed == seen once the node was expanded at its
// current distance.
type pairNode struct {
	dist, h      float64
	prev         int32
	seen, closed uint32
}

// pairScratch is the part of a Workspace ShortestPair uses: the per-node
// state, cleared in O(1) by bumping epoch, and a queue of its own, so a
// search of a few hundred nodes never resets a queue a full run grew.
type pairScratch struct {
	nodes []pairNode
	epoch uint32
	heap  frontier
}

// ShortestPair returns the shortest distance and path from src to dst
// under transit (see DijkstraTransit), bit-identical — distance and every
// node of the path — to DijkstraTransit(src, transit) followed by
// PathTo(dst), but from an A* search (Hart, Nilsson & Raphael 1968) that
// settles only the nodes whose f = d(src, u) + h(u) is at most d(src, dst).
// The inclusive bound is what makes it exact: every node that supports a
// shortest path to dst has f ≤ d(src, dst) under a consistent h, so the
// canonical predecessor rule of runHeap sees every candidate a full run
// sees. The queue is keyed by the IEEE 754 bits of f, so nodes are
// expanded in f order, and a node improved after its expansion is expanded
// again (label correction), which covers a rounding of f the margin did
// not.
//
// h must be consistent for g (HeuristicScale). path is the backing array
// of the returned Pair.Path when large enough. ws lends scratch and must
// not be shared between goroutines; nil allocates. It returns an error for
// an endpoint out of range, a graph PairSearchable refuses, or positions
// that do not cover the graph.
func (g *Graph) ShortestPair(src, dst int, transit func(node int) bool, h Heuristic, ws *Workspace, path []int) (Pair, error) {
	switch {
	case src < 0 || src >= g.n || dst < 0 || dst >= g.n:
		return Pair{}, fmt.Errorf("graph: pair (%d, %d) out of range [0, %d)", src, dst, g.n)
	case !g.PairSearchable():
		return Pair{}, fmt.Errorf("graph: pair search refused on this graph (zero or absorbable weights)")
	case len(h.Pos) < g.n || !(h.Scale >= 0):
		return Pair{}, fmt.Errorf("graph: heuristic covers %d of %d nodes with scale %v", len(h.Pos), g.n, h.Scale)
	}
	if ws == nil {
		ws = new(Workspace)
	}
	ps := &ws.pair
	if len(ps.nodes) < g.n {
		ps.nodes = make([]pairNode, g.n)
		ps.epoch = 0
	}
	ps.epoch++
	if ps.epoch == 0 {
		clear(ps.nodes)
		ps.epoch = 1
	}
	epoch, nodes := ps.epoch, ps.nodes[:g.n]
	goal := h.Pos[dst]
	reach := func(v int) *pairNode {
		nv := &nodes[v]
		if nv.seen != epoch {
			*nv = pairNode{dist: Inf, h: h.Scale * h.Pos[v].Distance(goal), prev: -1, seen: epoch}
		}
		return nv
	}
	s := reach(src)
	s.dist = 0
	q := &ps.heap
	q.Reset()
	q.Push(math.Float64bits(s.h), int32(src))

	rs, re, et, wt := g.rowStart, g.rowEnd, g.edgeTo, g.weight
	t := reach(dst)
	last, settled := uint64(0), 0
	for q.Len() > 0 {
		key, n := q.Pop()
		last = key
		if key > math.Float64bits(t.dist) {
			break // every f left is beyond the target's distance
		}
		u := int(n)
		nu := &nodes[u]
		if nu.closed == epoch || nu.dist+nu.h > t.dist {
			continue // expanded at this distance already, or off every shortest path
		}
		nu.closed = epoch
		settled++
		if u == dst || (transit != nil && u != src && !transit(u)) {
			continue // the goal, or reachable but not allowed to forward
		}
		du := nu.dist
		for idx := rs[u]; idx < re[u]; idx++ {
			v := int(et[idx])
			w := wt[idx]
			nv := reach(v)
			nd := du + w
			if nd < nv.dist {
				nv.dist = nd
				nv.prev = int32(u)
				nv.closed = 0
				key := math.Float64bits(nd + nv.h)
				if key < last {
					key = last // a rounding of f the margin did not cover
				}
				q.Push(key, int32(v))
			} else if nd == nv.dist && w > 0 && int32(u) < nv.prev {
				nv.prev = int32(u)
			}
		}
	}

	p := Pair{Dist: t.dist, Settled: settled}
	if math.IsInf(t.dist, 1) {
		return p, nil
	}
	hops := 0
	for v := int32(dst); v != -1; v = nodes[v].prev {
		hops++
	}
	if cap(path) < hops {
		path = make([]int, hops)
	}
	p.Path = path[:hops]
	for v, i := int32(dst), hops-1; v != -1; v, i = nodes[v].prev, i-1 {
		p.Path[i] = int(v)
	}
	return p, nil
}
