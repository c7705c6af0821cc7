// Package graph provides the shortest-path machinery of the Constellation
// Calculation: a compact weighted undirected graph held as one
// compressed-sparse-row image, Dijkstra's algorithm over a monotone radix
// queue (internal/monoq, shared with the event engine of internal/vnet) and
// incremental repair of single-source results under edge diffs
// (RepairSSSP). The paper uses efficient implementations of these to
// compute shortest network paths within the constellation and their
// end-to-end latency (§3.1).
package graph

import (
	"fmt"
	"math"

	"celestial/internal/monoq"
)

// Inf marks an unreachable node in distance results.
var Inf = math.Inf(1)

// Graph is a weighted undirected graph over nodes 0..N-1, held as one
// compressed-sparse-row (CSR) image: flat edgeTo / weight / rowStart arrays
// that the Dijkstra inner loop scans without chasing per-node slice
// headers. Build lays the image out from an edge list; CopyFrozenFrom
// clones another graph's image and PatchFrozen applies per-link edge
// deltas to it in place (weight changes written through, additions into
// the free slots each row keeps after its live entries, removals by
// swapping with the row's last live entry). The latter pair is the
// steady-state path of the constellation update loop, which thereby skips
// the O(N+M) build once per tick. A patched image serves shortest-path
// queries exactly like a built one — the canonical tie-break of runHeap
// makes results independent of row order.
//
// Queries only read the image, so any number may run concurrently between
// two Build or PatchFrozen calls. The zero value is an empty graph.
type Graph struct {
	n int

	// The directed entries of node v live at indices
	// [rowStart[v], rowEnd[v]) of edgeTo and weight, with
	// [rowEnd[v], rowStart[v+1]) free slots for in-place additions.
	// int32 halves the per-entry footprint of the hot scan (12 bytes vs
	// the 16 of Edge); node and directed-edge counts must stay below
	// 2^31, far beyond any constellation.
	rowStart []int32
	rowEnd   []int32
	edgeTo   []int32
	weight   []float64

	// csrScratch holds the swap arrays of compactFrozen so periodic
	// compactions allocate nothing once warm.
	csrScratch struct {
		rowStart []int32
		rowEnd   []int32
		edgeTo   []int32
		weight   []float64
	}

	// zeroW records whether any zero-weight edge was inserted. The
	// canonical tie-break rule (see runHeap) cannot order predecessors
	// across zero-weight ties, so RepairSSSP refuses its fast path on
	// such graphs.
	zeroW bool

	// wmin is at most the least positive weight of the image (+Inf when
	// it has none), the width the frontier's keys are cut from (see
	// frontier), and wmax at least its greatest finite weight. Build
	// computes both exactly; PatchFrozen only ever widens them, since a
	// removal leaving a stale wmin merely makes the keys finer, and a stale
	// pair merely makes RepairSSSP's absorption test more cautious.
	wmin, wmax float64
}

// Edge is an outgoing adjacency entry.
type Edge struct {
	To     int
	Weight float64
}

// Build replaces the graph with n nodes and the m undirected edges that
// edge(i) returns for i in [0, m). Each row lists its entries in the order
// of the edges that insert them — a counting sort, O(N+M) — so a tree on a
// graph with zero-weight edges, which the canonical tie-break does not
// order, is still a function of the edge list. Edges are not checked: the
// caller validates them once (the constellation's plan edges are validated
// when it is built, and a tick inserts tens of thousands of them). An
// endpoint out of range panics. Build reuses the image's arrays, so
// rebuilding a graph of similar shape allocates nothing.
func (g *Graph) Build(n, m int, edge func(i int) (a, b int, w float64)) {
	g.n = n
	g.zeroW = false
	g.wmin, g.wmax = Inf, 0
	g.rowStart = resizeSlice(g.rowStart, n+1)
	g.rowEnd = resizeSlice(g.rowEnd, n)
	clear(g.rowEnd)
	for i := 0; i < m; i++ {
		a, b, w := edge(i)
		g.rowEnd[a]++
		g.rowEnd[b]++
		g.widenWeights(w)
		if w == 0 {
			g.zeroW = true
		}
	}
	dir := layoutRows(g.rowStart, g.rowEnd)
	g.edgeTo = resizeSlice(g.edgeTo, dir)
	g.weight = resizeSlice(g.weight, dir)
	for i := 0; i < m; i++ {
		a, b, w := edge(i)
		g.appendDirected(a, b, w)
		g.appendDirected(b, a, w)
	}
}

// appendDirected writes the entry a -> b into the free slot after row a's
// live entries. The row must have one.
func (g *Graph) appendDirected(a, b int, w float64) {
	at := g.rowEnd[a]
	g.edgeTo[at] = int32(b)
	g.weight[at] = w
	g.rowEnd[a] = at + 1
}

// minRowSlack is the fixed part of the free slots every row keeps after its
// live entries (rowSlack). It covers a satellite row, which gains at most a
// couple of uplinks per tick.
const minRowSlack = 2

// rowSlack is the number of free slots Build and compactFrozen leave after
// a row of degree live: minRowSlack plus one eighth of the degree. A
// ground-station row cannot live on the fixed part: on Starlink Gen2 a
// station holds ~90 uplinks and its count moves by more than two in most
// ticks, so the part in proportion to the degree is what keeps PatchFrozen
// from compacting the whole image. Slack changes no query result — scans
// cover only the live range [rowStart[v], rowEnd[v]).
func rowSlack(live int32) int32 {
	return minRowSlack + live/8
}

// layoutRows is the row layout Build and compactFrozen share. It takes each
// row's live entry count in rowEnd and lays the rows out back to back, each
// followed by its rowSlack free slots: rowStart receives the row offsets
// (len(rowEnd)+1 of them) and rowEnd is reset to rowStart, an empty row
// the caller fills. It returns the number of slots the image needs.
func layoutRows(rowStart, rowEnd []int32) int {
	off := int32(0)
	for v, live := range rowEnd {
		rowStart[v] = off
		rowEnd[v] = off
		off += live + rowSlack(live)
	}
	rowStart[len(rowEnd)] = off
	return int(off)
}

// widenWeights folds one edge weight into wmin and wmax.
func (g *Graph) widenWeights(w float64) {
	if w > 0 && w < g.wmin {
		g.wmin = w
	}
	if w > g.wmax && !math.IsInf(w, 1) {
		g.wmax = w
	}
}

// sumsMayAbsorb reports whether adding a positive weight to a distance may
// leave the distance unchanged: fl(d+w) == d needs w ≤ 2^-53·d, and no
// finite shortest distance exceeds n·wmax (a simple path; the 2^-50 bound
// leaves room for its rounding). Such a weight acts as a zero one.
func (g *Graph) sumsMayAbsorb() bool {
	return g.wmin*(1<<50) <= float64(g.n)*g.wmax
}

// CopyFrozenFrom clones src's CSR image into g, reusing g's backing
// arrays. It is the cheap half of the steady-state graph path: four flat
// array copies replace a Build from the link list, and PatchFrozen then
// applies the tick's link deltas on top. src is only read, so a published
// snapshot's graph can be cloned while concurrent readers query it; g and
// src must be distinct.
func (g *Graph) CopyFrozenFrom(src *Graph) error {
	if src == nil {
		return fmt.Errorf("graph: CopyFrozenFrom a nil graph")
	}
	if src == g {
		return fmt.Errorf("graph: CopyFrozenFrom from itself")
	}
	g.n = src.n
	g.zeroW = src.zeroW
	g.wmin, g.wmax = src.wmin, src.wmax
	g.rowStart = resizeSlice(g.rowStart, len(src.rowStart))
	copy(g.rowStart, src.rowStart)
	g.rowEnd = resizeSlice(g.rowEnd, len(src.rowEnd))
	copy(g.rowEnd, src.rowEnd)
	g.edgeTo = resizeSlice(g.edgeTo, len(src.edgeTo))
	copy(g.edgeTo, src.edgeTo)
	g.weight = resizeSlice(g.weight, len(src.weight))
	copy(g.weight, src.weight)
	return nil
}

// PatchFrozen applies per-link edge deltas to the CSR image in place:
// weight changes are written on both directed entries, removals swap the
// entry with its row's last live one (shrinking the live range and
// returning the slot to the row's free slots), and additions fill a free
// slot — forcing a compaction that re-spreads every row with fresh slack
// when the row is full. Deltas follow the EdgeDelta convention of
// RepairSSSP: a negative side marks absence, and every (A, B, OldW) of a
// removal or weight change must name exactly the live entry the image
// holds (the per-link merged deltas of a constellation diff do).
//
// A row keeps rowSlack free slots from the last Build or compaction, and a
// compaction rebuilds the whole image. A list that puts its removals
// before its additions (as the constellation's does) keeps each row at or
// below the larger of its old and new degree, so a row overflows only when
// its degree outgrows that slack.
//
// Because the canonical tie-break of runHeap makes shortest paths
// independent of row order, a patched image yields bit-identical Dijkstra
// and RepairSSSP results to a Build of the same edge set.
//
// On an unmatched delta the image is left partially patched and an error is
// returned; the caller must Build from scratch (the constellation pool
// falls back to building from the link list).
func (g *Graph) PatchFrozen(deltas []EdgeDelta) error {
	for _, d := range deltas {
		if err := d.check(g.n); err != nil {
			return err
		}
		if d.OldW < 0 && d.NewW < 0 {
			continue // absent on both sides: nothing to do
		}
		g.widenWeights(d.NewW)
		switch {
		case d.OldW < 0:
			// Addition into the free slots of both rows.
			if d.NewW == 0 {
				g.zeroW = true
			}
			g.addDirected(d.A, d.B, d.NewW)
			g.addDirected(d.B, d.A, d.NewW)
		case d.NewW < 0:
			// Removal: swap with the last live entry of each row.
			if err := g.removeDirected(d.A, d.B, d.OldW); err != nil {
				return err
			}
			if err := g.removeDirected(d.B, d.A, d.OldW); err != nil {
				return err
			}
		default:
			if d.NewW == 0 {
				g.zeroW = true
			}
			if err := g.reweightDirected(d.A, d.B, d.OldW, d.NewW); err != nil {
				return err
			}
			if err := g.reweightDirected(d.B, d.A, d.OldW, d.NewW); err != nil {
				return err
			}
		}
	}
	return nil
}

// addDirected appends a directed CSR entry into row a's free slots,
// compacting the whole image first when the row is full.
func (g *Graph) addDirected(a, b int, w float64) {
	if g.rowEnd[a] == g.rowStart[a+1] {
		g.compactFrozen()
	}
	g.appendDirected(a, b, w)
}

// removeDirected deletes the directed entry (a -> b, weight w) by swapping
// the row's last live entry into its place.
func (g *Graph) removeDirected(a, b int, w float64) error {
	for idx := g.rowStart[a]; idx < g.rowEnd[a]; idx++ {
		if g.edgeTo[idx] == int32(b) && g.weight[idx] == w {
			last := g.rowEnd[a] - 1
			g.edgeTo[idx] = g.edgeTo[last]
			g.weight[idx] = g.weight[last]
			g.rowEnd[a] = last
			return nil
		}
	}
	return fmt.Errorf("graph: patch removal (%d, %d, %v): no such edge", a, b, w)
}

// reweightDirected rewrites the weight of the directed entry (a -> b,
// weight oldW) in place.
func (g *Graph) reweightDirected(a, b int, oldW, newW float64) error {
	for idx := g.rowStart[a]; idx < g.rowEnd[a]; idx++ {
		if g.edgeTo[idx] == int32(b) && g.weight[idx] == oldW {
			g.weight[idx] = newW
			return nil
		}
	}
	return fmt.Errorf("graph: patch reweight (%d, %d, %v): no such edge", a, b, oldW)
}

// compactFrozen re-spreads the CSR image so every row gets rowSlack free
// slots again, using the scratch arrays kept on the graph (the periodic
// compaction of a long patch chain allocates nothing once warm). Live
// entries keep their order, so compaction never changes a query result.
func (g *Graph) compactFrozen() {
	s := &g.csrScratch
	s.rowStart = resizeSlice(s.rowStart, g.n+1)
	s.rowEnd = resizeSlice(s.rowEnd, g.n)
	for v := range s.rowEnd {
		s.rowEnd[v] = g.rowEnd[v] - g.rowStart[v]
	}
	dir := layoutRows(s.rowStart, s.rowEnd)
	s.edgeTo = resizeSlice(s.edgeTo, dir)
	s.weight = resizeSlice(s.weight, dir)
	for v := range s.rowEnd {
		at := s.rowEnd[v]
		k := int32(copy(s.edgeTo[at:], g.edgeTo[g.rowStart[v]:g.rowEnd[v]]))
		copy(s.weight[at:], g.weight[g.rowStart[v]:g.rowEnd[v]])
		s.rowEnd[v] = at + k
	}
	g.rowStart, s.rowStart = s.rowStart, g.rowStart
	g.rowEnd, s.rowEnd = s.rowEnd, g.rowEnd
	g.edgeTo, s.edgeTo = s.edgeTo, g.edgeTo
	g.weight, s.weight = s.weight, g.weight
}

// resizeSlice returns s with length n, reusing its backing array when large
// enough.
func resizeSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// FrozenRow appends node v's live entries from the CSR image to buf and
// returns it, so differential tests can compare a patched image against a
// built one. Entry order within a row is unspecified (patching reorders
// rows), so callers should compare rows as sets. It returns buf unchanged
// when v is out of range.
func (g *Graph) FrozenRow(v int, buf []Edge) []Edge {
	if v < 0 || v >= g.n {
		return buf
	}
	for idx := g.rowStart[v]; idx < g.rowEnd[v]; idx++ {
		buf = append(buf, Edge{To: int(g.edgeTo[idx]), Weight: g.weight[idx]})
	}
	return buf
}

// FrozenHasEdge reports whether node a's live row holds an entry to b; it
// is false when a node is out of range.
func (g *Graph) FrozenHasEdge(a, b int) bool {
	if a < 0 || a >= g.n || b < 0 || b >= g.n {
		return false
	}
	for idx := g.rowStart[a]; idx < g.rowEnd[a]; idx++ {
		if g.edgeTo[idx] == int32(b) {
			return true
		}
	}
	return false
}

// ShortestPaths is the result of a single-source Dijkstra run.
type ShortestPaths struct {
	Source int
	// Dist[v] is the shortest distance from the source to v, Inf if
	// unreachable.
	Dist []float64
	// Prev[v] is the predecessor of v on a shortest path, -1 for the
	// source and unreachable nodes.
	Prev []int
}

// frontier is the priority queue of a shortest-path run over node indices,
// keyed by tentative distance in quanta of half the graph's least positive
// weight: key(d) = floor(d · 2/wmin) (see frontierKey). This is Dial's
// bucketing on the radix queue. Two distances in one bucket differ by less
// than any edge weight, so neither node can improve the other, and a node
// popped is already final — the exact order of its bucket does not matter,
// and the canonical tie-break of runHeap makes predecessors independent of
// it. Quantum keys share their high bits far more than the IEEE 754 bits of
// the distances do, so the queue moves entries between buckets less.
//
// Where a bucket is wider than that — keys clamped at monoq.MaxKey, a scale
// capped because wmin is subnormal, a graph whose only weights are zero —
// the run stays exact by label correction: a node improved after it was
// popped is pushed again, and every node is scanned with its final
// distance. key is monotone in d and a relaxed distance is never below the
// settled one, so runHeap never pushes below the key it just popped, which
// is the queue's one requirement.
type frontier = monoq.Queue[int32]

// frontierScale returns the factor frontierKey multiplies distances by:
// 2/wmin, kept finite when wmin is subnormal, and 0 — every key 0 — when the
// graph has no positive weight.
func frontierScale(wmin float64) float64 {
	if math.IsInf(wmin, 1) {
		return 0
	}
	return math.Min(2/wmin, math.MaxFloat64)
}

// frontierKey maps a non-negative distance to its frontier key, clamped to
// monoq.MaxKey. The float conversion of MaxKey is 2^63, the first value the
// clamp must catch.
func frontierKey(d, scale float64) uint64 {
	if k := d * scale; k < float64(monoq.MaxKey) {
		return uint64(k)
	}
	return monoq.MaxKey
}

// Workspace holds a Dijkstra run's queue scratch — plus the stamp array and
// cone queue of RepairSSSP, and ShortestPair's per-node state and queue —
// so that repeated runs on graphs of similar size reallocate nothing; pair it with DijkstraTransitInto and recycled
// dist/prev arrays to make a run allocation-free. A Workspace is not safe
// for concurrent use; give each goroutine its own. The zero value is ready
// to use.
type Workspace struct {
	heap frontier
	// stamp is the epoch-stamped visited array of RepairSSSP's cone search
	// (stamp == epoch): bumping the epoch clears it in O(1).
	stamp []int32
	epoch int32
	queue []int32
	pair  pairScratch
}

// prepareRepair sizes the stamp array for n nodes and returns a fresh epoch
// value for the affected-cone mark.
func (ws *Workspace) prepareRepair(n int) int32 {
	if len(ws.stamp) < n || ws.epoch == math.MaxInt32 {
		ws.stamp = make([]int32, n)
		ws.epoch = 0
	}
	ws.epoch++
	return ws.epoch
}

// Dijkstra computes single-source shortest paths from src. The priority
// queue is a monotone radix queue over distance quanta (see frontier and
// internal/monoq): O(M + N·B) for B the number of bits in which two queued
// keys can differ — at most 63, a handful in practice — rather than a
// binary heap's O((N+M) log N).
func (g *Graph) Dijkstra(src int) (ShortestPaths, error) {
	return g.DijkstraTransit(src, nil)
}

// DijkstraTransit computes single-source shortest paths like Dijkstra, but
// only expands intermediate nodes for which transit returns true (the
// source is always expanded). Nodes failing the predicate can terminate a
// path but not forward traffic — e.g. ground stations, which are endpoints
// of the satellite network rather than routers. A nil predicate allows all
// nodes.
func (g *Graph) DijkstraTransit(src int, transit func(node int) bool) (ShortestPaths, error) {
	return g.dijkstra(src, transit, nil, nil, nil)
}

// DijkstraTransitInto is DijkstraTransit writing into caller-owned result
// buffers: dist and prev back the returned ShortestPaths when they have
// sufficient capacity and are reallocated otherwise; either way the caller
// owns the result. A non-nil ws lends only its queue scratch. This is the
// entry point of the snapshot path cache, which recycles result arrays
// from the previous tick.
func (g *Graph) DijkstraTransitInto(src int, transit func(node int) bool, dist []float64, prev []int, ws *Workspace) (ShortestPaths, error) {
	var h *frontier
	if ws != nil {
		h = &ws.heap
	}
	return g.dijkstra(src, transit, dist, prev, h)
}

// dijkstra is the shared Dijkstra core: dist and prev are used as result
// backing when large enough, h as queue scratch when non-nil.
func (g *Graph) dijkstra(src int, transit func(node int) bool, dist []float64, prev []int, h *frontier) (ShortestPaths, error) {
	sp := ShortestPaths{Source: src}
	if src < 0 || src >= g.n {
		return sp, fmt.Errorf("graph: source %d out of range [0, %d)", src, g.n)
	}
	if cap(dist) < g.n {
		dist = make([]float64, g.n)
	}
	if cap(prev) < g.n {
		prev = make([]int, g.n)
	}
	sp.Dist = dist[:g.n]
	sp.Prev = prev[:g.n]
	for i := range sp.Dist {
		sp.Dist[i] = Inf
		sp.Prev[i] = -1
	}
	sp.Dist[src] = 0

	if h == nil {
		h = new(frontier)
	}
	h.Reset()
	h.Push(0, int32(src))
	g.runHeap(&sp, transit, h)
	return sp, nil
}

// runHeap drains h, settling nodes over the CSR arrays. It is the
// shared engine of full Dijkstra runs (queue seeded with the source) and
// RepairSSSP (queue seeded with the affected cone's boundary).
//
// Relaxation is canonical: on a strictly shorter distance the predecessor
// follows the improving edge as usual; on an exactly equal distance over a
// positive-weight edge the smaller predecessor node ID wins. The final
// predecessor of every node is therefore min over its settled neighbors
// that support its final distance — a pure function of the graph,
// independent of settle order, and so of how the frontier buckets
// distances. That is what lets an incremental repair reproduce a
// from-scratch run bit for bit, predecessors included.
// Zero-weight ties are excluded from the rule (they could order two
// equal-distance endpoints into a predecessor cycle); graphs containing
// zero-weight edges keep a deterministic but order-dependent tree, which is
// why RepairSSSP refuses its fast path on them.
func (g *Graph) runHeap(sp *ShortestPaths, transit func(node int) bool, h *frontier) {
	rs, re, et, wt := g.rowStart, g.rowEnd, g.edgeTo, g.weight
	src := sp.Source
	scale := frontierScale(g.wmin)
	for h.Len() > 0 {
		key, n := h.Pop()
		node := int(n)
		dist := sp.Dist[node]
		if frontierKey(dist, scale) < key {
			continue // stale entry: the node was pushed again, closer
		}
		if transit != nil && node != src && !transit(node) {
			continue // reachable, but not allowed to forward
		}
		for idx := rs[node]; idx < re[node]; idx++ {
			to := int(et[idx])
			w := wt[idx]
			nd := dist + w
			if nd < sp.Dist[to] {
				sp.Dist[to] = nd
				sp.Prev[to] = node
				h.Push(frontierKey(nd, scale), et[idx])
			} else if nd == sp.Dist[to] && w > 0 && node < sp.Prev[to] {
				sp.Prev[to] = node
			}
		}
	}
}

// PathTo reconstructs the shortest path from the source to dst, inclusive
// of both endpoints. It returns nil if dst is unreachable.
func (sp ShortestPaths) PathTo(dst int) []int {
	if dst < 0 || dst >= len(sp.Dist) || math.IsInf(sp.Dist[dst], 1) {
		return nil
	}
	var rev []int
	for v := dst; v != -1; v = sp.Prev[v] {
		rev = append(rev, v)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
