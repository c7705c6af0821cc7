package graph

import (
	"fmt"
	"math"
)

// EdgeDelta describes one undirected edge difference between the graph a
// ShortestPaths result was computed on (the "old" graph) and the graph it
// is being repaired for. OldW and NewW are the edge's weight on the old and
// the new side; a negative value marks a side on which the edge does not
// exist. A weight change is expressed with both sides set.
type EdgeDelta struct {
	A, B       int
	OldW, NewW float64
}

// check rejects a delta that does not join two distinct nodes of an n-node
// graph or carries a NaN side: NaN compares false with everything, so it
// would pass for a present edge and be patched in as a weight no distance
// survives.
func (d EdgeDelta) check(n int) error {
	if d.A < 0 || d.A >= n || d.B < 0 || d.B >= n || d.A == d.B || math.IsNaN(d.OldW) || math.IsNaN(d.NewW) {
		return fmt.Errorf("graph: invalid edge delta (%d, %d, %v -> %v) on %d nodes", d.A, d.B, d.OldW, d.NewW, n)
	}
	return nil
}

// RepairFallbackFraction is the dynamic-repair cutoff: when the affected
// cone (nodes whose shortest-path tree support was invalidated) exceeds
// this fraction of all nodes, re-settling it costs about as much as a full
// run plus the repair bookkeeping, so RepairSSSP abandons the repair and
// recomputes from scratch. It is also the most a kept tree costs per
// update, so a caller choosing between ShortestPair searches and a tree
// keeps a tree once the searches settle more nodes than this fraction.
const RepairFallbackFraction = 0.2

// RepairSSSP repairs sp — a single-source result computed on a graph that
// differs from g by deltas — into a result valid for g, in the spirit of
// Ramalingam–Reps dynamic shortest paths: only the cone of nodes whose old
// tree support broke is unsettled and re-settled from a priority queue
// seeded with its boundary and the endpoints an improved edge brought
// closer, so a small diff costs time proportional to the affected nodes
// and their edges instead of a full run over the graph. The repaired
// result is bit-identical — distances and predecessors — to a fresh run on
// g, because both sides resolve equal-distance ties with the canonical rule
// of runHeap.
//
// sp's Dist/Prev arrays are rewritten in place and must be exclusively
// owned by the caller; transit must be the same predicate the original run
// used. deltas must list every edge that differs between the two graphs
// (extra entries whose two sides are equal are ignored; listing an edge as
// removed and re-added is allowed and merely widens the cone). The
// returned repaired flag reports whether the incremental fast path was
// taken; it is false when the repair fell back to a full recompute — cone
// larger than RepairFallbackFraction of the graph, a zero-weight edge
// present (see runHeap), weights so far apart that one may vanish in a sum
// and act as a zero one (sumsMayAbsorb: its equal-distance endpoints could
// be each other's predecessors, a cycle no cone search enters), or a
// result sized for a different node count. Either way the resulting sp is
// exact.
func (g *Graph) RepairSSSP(sp *ShortestPaths, deltas []EdgeDelta, transit func(node int) bool, ws *Workspace) (repaired bool, err error) {
	if sp == nil || sp.Source < 0 || sp.Source >= g.n {
		src := -1
		if sp != nil {
			src = sp.Source
		}
		return false, fmt.Errorf("graph: repair source %d out of range [0, %d)", src, g.n)
	}
	for _, d := range deltas {
		if err := d.check(g.n); err != nil {
			return false, err
		}
	}
	if ws == nil {
		ws = new(Workspace)
	}
	full := func() (bool, error) {
		nsp, err := g.dijkstra(sp.Source, transit, sp.Dist, sp.Prev, &ws.heap)
		if err != nil {
			return false, err
		}
		*sp = nsp
		return false, nil
	}
	if g.zeroW || g.sumsMayAbsorb() || len(sp.Dist) != g.n || len(sp.Prev) != g.n {
		return full()
	}
	if len(deltas) == 0 {
		return true, nil
	}

	// Phase 1: roots of the affected cone — nodes whose tree edge to
	// their predecessor was removed or became heavier. Edges that were
	// not part of the old tree cannot worsen any distance, and (because
	// predecessors are canonical minima) cannot have been a recorded
	// predecessor either.
	cone := ws.prepareRepair(g.n)
	stamp := ws.stamp
	queue := ws.queue[:0]
	for _, d := range deltas {
		worse := d.NewW < 0 || (d.OldW >= 0 && d.NewW > d.OldW)
		if !worse {
			continue
		}
		if sp.Prev[d.B] == d.A && stamp[d.B] != cone {
			stamp[d.B] = cone
			queue = append(queue, int32(d.B))
		}
		if sp.Prev[d.A] == d.B && stamp[d.A] != cone {
			stamp[d.A] = cone
			queue = append(queue, int32(d.A))
		}
	}

	// Past the fallback threshold — checked on the roots too, since a
	// handover storm can root more leaf stations than phase 2 would ever
	// append — re-settling stops being cheaper than recomputing.
	limit := int(RepairFallbackFraction * float64(g.n))
	if len(queue) > limit {
		ws.queue = queue
		return full()
	}

	// Phase 2: grow the cone to all old-tree descendants of the roots.
	// Tree edges still present are found by scanning the new CSR; tree
	// edges that were themselves removed rooted their child directly in
	// phase 1.
	rs, re, et := g.rowStart, g.rowEnd, g.edgeTo
	for i := 0; i < len(queue); i++ {
		u := int(queue[i])
		for idx := rs[u]; idx < re[u]; idx++ {
			v := int(et[idx])
			if sp.Prev[v] == u && stamp[v] != cone {
				stamp[v] = cone
				queue = append(queue, int32(v))
				if len(queue) > limit {
					ws.queue = queue
					return full()
				}
			}
		}
	}
	ws.queue = queue

	// Phase 3: unsettle the cone, then seed the queue with (a) each cone
	// node's lexicographically best candidate among its settled
	// neighbors — queue traffic stays proportional to the cone, not to
	// its (much larger) boundary — and (b) whichever endpoint of an added
	// or cheapened edge that edge brings closer, whose rescan propagates
	// the improvement. The seed scan considers every settled supporter of
	// a cone node, and cone-internal supporters relax it when they
	// settle, so the final predecessors are the same canonical minima a
	// full run computes. All seeds are pushed before the first pop, so
	// the queue sees monotone keys whatever order they come in.
	for _, v := range queue {
		sp.Dist[v] = Inf
		sp.Prev[v] = -1
	}
	h := &ws.heap
	h.Reset()
	src := sp.Source
	wts := g.weight
	scale := frontierScale(g.wmin)
	for _, u := range queue {
		b := int(u)
		bd, bp := Inf, -1
		for idx := rs[b]; idx < re[b]; idx++ {
			v := int(et[idx])
			if stamp[v] == cone {
				continue // unsettled alongside b
			}
			dv := sp.Dist[v]
			if math.IsInf(dv, 1) || (transit != nil && v != src && !transit(v)) {
				continue
			}
			w := wts[idx]
			if cand := dv + w; cand < bd || (cand == bd && w > 0 && v < bp) {
				bd, bp = cand, v
			}
		}
		if bp >= 0 {
			sp.Dist[b] = bd
			sp.Prev[b] = bp
			h.Push(frontierKey(bd, scale), u)
		}
	}
	// An improved edge outside the cone is relaxed on the spot, in both
	// directions, under runHeap's own rule: most such edges improve
	// nothing, and pushing their endpoints would rescan two rows to find
	// that out. The weight is read from g, not from the delta, so a delta
	// list that changes an edge twice costs nothing but the repeated
	// look-up in the shorter of the two rows. With an endpoint inside the
	// cone there is nothing to do — its seed scan above already read the
	// edge from the new CSR, and it relaxes the other endpoint when it
	// settles.
	relax := func(u, v int, w float64) {
		du := sp.Dist[u]
		if math.IsInf(du, 1) || (transit != nil && u != src && !transit(u)) {
			return
		}
		if nd := du + w; nd < sp.Dist[v] {
			sp.Dist[v] = nd
			sp.Prev[v] = u
			h.Push(frontierKey(nd, scale), int32(v))
		} else if nd == sp.Dist[v] && w > 0 && u < sp.Prev[v] {
			sp.Prev[v] = u
		}
	}
	for _, d := range deltas {
		improved := d.NewW >= 0 && (d.OldW < 0 || d.NewW < d.OldW)
		if !improved || stamp[d.A] == cone || stamp[d.B] == cone {
			continue
		}
		u, v := d.A, d.B
		if re[v]-rs[v] < re[u]-rs[u] {
			u, v = v, u
		}
		for idx := rs[u]; idx < re[u]; idx++ {
			if int(et[idx]) == v {
				relax(u, v, wts[idx])
				relax(v, u, wts[idx])
			}
		}
	}
	g.runHeap(sp, transit, h)
	return true, nil
}
