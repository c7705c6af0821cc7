// Package paths is the shortest-path cache of one constellation state: the
// part of the paper's Constellation Calculation (§3.1) that recomputes the
// shortest paths between nodes on every update. A Cache answers pair reads
// (Route) and whole-tree reads (Tree) on one latency graph, computing each
// answer at most once, and Carry brings what readers still use over to the
// cache of the next state: shared while the graph is unchanged, repaired or
// searched again under the graph's edge deltas otherwise.
//
// The package sees only the graph. Whoever owns the caches passes in the
// graph, the forwarding predicate and the pair searches' heuristic (Reset)
// and the edge deltas between two graphs (Carry).
package paths

import (
	"math"
	"sync"
	"sync/atomic"

	"celestial/internal/graph"
)

// Cache is the shortest-path cache of one graph: per source a tree or the
// pairs read from it. Its reads are safe for concurrent use; Reset and
// Carry belong to the cache's owner, who calls them before anyone reads.
type Cache struct {
	// mu guards m and the source records in it. It is held for map
	// lookups and Carry's serial scan, never for a search.
	mu sync.Mutex
	m  map[int]*pathSource

	g       *graph.Graph
	transit func(node int) bool
	h       graph.Heuristic

	// seq is the cache's position in its chain of caches, one more than
	// the cache it last carried from; entries age by it.
	seq uint64

	// counts are what the carries since the last Reset brought; jobs is
	// Carry's scratch, reused across Resets.
	counts Counts
	jobs   []carryJob
}

// cacheEntry is what every cache entry has: singleflight semantics — the
// first caller computes under the entry's mutex; concurrent callers for the
// same entry block on it instead of on the cache's lock — and the
// bookkeeping that carries it across caches. done flips after the
// computation completes (double-checked by lock-free readers), letting a
// carry share or recompute finished entries without waiting on in-flight
// ones. lastRead is the seq of the latest cache the entry was read on (see
// idleSnapshots).
type cacheEntry struct {
	mu       sync.Mutex
	done     atomic.Bool
	lastRead atomic.Uint64
	err      error
}

// pathEntry is one cached single-source Dijkstra result, a tree. whole
// marks a tree planted by a whole-tree read (Tree) rather than for a
// source's pair reads; only those count a repair that fell back
// (Counts.Fallbacks). shared marks a tree held by more than one cache (set
// under the previous cache's lock during a carry, read during Reset, which
// the owner orders after any carry into the cache): its arrays never go
// back to spareTrees, since a reader may still hold them through another
// cache.
type pathEntry struct {
	cacheEntry
	whole  bool
	shared bool
	sp     graph.ShortestPaths
}

// spareTrees recycles tree arrays across caches, process wide: Reset puts
// back every finished tree only its cache held, emptied but for its
// sp.Dist and sp.Prev, and fills and repairs compute into them.
var spareTrees = sync.Pool{New: func() any { return new(pathEntry) }}

// dijkstraWorkspaces pools queue scratch across fills and carries; the
// result arrays come from spareTrees, the queue from here.
var dijkstraWorkspaces = sync.Pool{New: func() any { return new(graph.Workspace) }}

// pairEntry is one cached pair read: the shortest distance and path from a
// source to dst (graph.ShortestPair). path is the entry's own; callers of
// Route must not modify it.
type pairEntry struct {
	cacheEntry
	dst  int
	dist float64
	path []int
}

// pathSource is one source's record in a cache, guarded by the cache's
// lock. A source read as a whole tree, or whose pair searches on one cache
// settled more nodes than a repair would re-settle (treePays), holds a
// tree, and every pair read of it reads the tree. Any other source holds
// one pairEntry per target read. settled counts the nodes this cache's
// pair searches from the source settled. The record itself belongs to one
// cache; its entries may be shared with others.
type pathSource struct {
	tree    *pathEntry
	pairs   []*pairEntry
	settled int
}

// setTree makes e the source's tree. The pairs it held answer nothing
// from now on and are dropped, as if the tree had been there first: a tree
// that reaches the next cache in a carry's second pass, after its pairs
// did in the first, leaves the cache it would have after one pass.
func (s *pathSource) setTree(e *pathEntry) {
	s.tree, s.pairs, s.settled = e, nil, 0
}

// pair returns the source's entry for dst, nil when it holds none.
func (s *pathSource) pair(dst int) *pairEntry {
	for _, pe := range s.pairs {
		if pe.dst == dst {
			return pe
		}
	}
	return nil
}

// idleSnapshots is how many caches an entry outlives its last read: a
// carry brings a completed entry of the previous cache only if the entry
// was read on one of the idleSnapshots caches before it. Repair re-settles
// ~10 % of the nodes per tick (8 % on Starlink P1, 11 % on Gen2), so ten
// repairs of a tree nobody reads cost about the full Dijkstra its next read
// would pay after an eviction, and a pair re-search costs less than its
// first search. Carrying an unread entry longer than that cannot save more
// than it costs, and evicting it sooner risks paying the full run for a
// reader that comes back every few ticks. Every flow of a checked-in
// workload reads its pairs every tick.
const idleSnapshots = 10

// markRead records a read of the entry on the cache at position seq.
// lastRead only grows, so a reader still holding an older cache cannot
// make a later read look stale.
func (e *cacheEntry) markRead(seq uint64) {
	for {
		old := e.lastRead.Load()
		if old >= seq || e.lastRead.CompareAndSwap(old, seq) {
			return
		}
	}
}

// carries reports whether the entry goes on to the cache at position seq:
// it is complete and was read within idleSnapshots caches of it.
func (e *cacheEntry) carries(seq uint64) bool {
	return e.done.Load() && e.err == nil && e.lastRead.Load()+idleSnapshots >= seq
}

// fill runs search, with pooled queue scratch, under the entry's
// singleflight mutex unless the entry is done, and returns what search
// returns (0 when it did not run). Like a sync.Once, the entry latches done
// even if search panics (deferred, before the mutex releases), so a
// recovered panic — e.g. inside an HTTP handler — cannot leave later
// callers blocked on the entry forever.
func (e *cacheEntry) fill(search func(ws *graph.Workspace) int) int {
	if e.done.Load() {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done.Load() {
		return 0
	}
	defer e.done.Store(true)
	ws := dijkstraWorkspaces.Get().(*graph.Workspace)
	defer dijkstraWorkspaces.Put(ws)
	return search(ws)
}

// Reset empties the cache for a graph whose shortest paths run through the
// nodes transit lets forward, with h the pair searches' heuristic (its
// Pos covers every node). g is first read by a Route, Tree or Carry, so
// the caller may still be building it. Finished trees only this cache held
// go back to spareTrees.
func (c *Cache) Reset(g *graph.Graph, transit func(node int) bool, h graph.Heuristic) {
	c.g, c.transit, c.h, c.seq, c.counts = g, transit, h, 0, Counts{}
	if c.m == nil {
		c.m = map[int]*pathSource{}
		return
	}
	for _, src := range c.m {
		if e := src.tree; e != nil && e.done.Load() && e.err == nil && !e.shared {
			*e = pathEntry{sp: graph.ShortestPaths{Dist: e.sp.Dist, Prev: e.sp.Prev}}
			spareTrees.Put(e)
		}
	}
	clear(c.m)
}

// source returns the record for a, adding an empty one. The caller holds
// the cache's lock or owns the cache.
func (c *Cache) source(a int) *pathSource {
	s := c.m[a]
	if s == nil {
		s = new(pathSource)
		c.m[a] = s
	}
	return s
}

// treePays reports whether pair searches that settled this many nodes on
// one cache cost more than keeping a tree: a repair re-settles up to
// graph.RepairFallbackFraction of the nodes before it gives up.
func (c *Cache) treePays(settled int) bool {
	return float64(settled) > graph.RepairFallbackFraction*float64(len(c.h.Pos))
}

// Tree returns the shortest paths from node a to every node, a whole-tree
// read: it plants a tree for the source when the cache holds none. The
// arrays are the cache's; callers must not modify them.
func (c *Cache) Tree(a int) (graph.ShortestPaths, error) {
	e := c.tree(a, true)
	return e.sp, e.err
}

// tree returns source a's tree, planting it when the cache holds none;
// whole marks a plant by a whole-tree read. Each entry is computed at most
// once: concurrent callers for the same source wait on that entry only.
func (c *Cache) tree(a int, whole bool) *pathEntry {
	c.mu.Lock()
	src := c.source(a)
	e := src.tree
	if e == nil {
		e = spareTrees.Get().(*pathEntry)
		e.whole = whole
		src.tree = e
	}
	c.mu.Unlock()
	e.markRead(c.seq)
	e.fill(func(ws *graph.Workspace) int {
		e.sp, e.err = c.g.DijkstraTransitInto(a, c.transit, e.sp.Dist, e.sp.Prev, ws)
		return 0
	})
	return e
}

// Route answers a pair read between nodes a and b: the shortest distance
// and, with withPath, the path, nil when b is unreachable. The path is the
// cache's; callers must not modify it. A source that holds a tree answers
// from it. Any other source answers from its pair entry for b, an exact
// goal-directed search (graph.ShortestPair) run on the pair's first read
// and carried to later caches like a tree; if this cache's searches from a
// settle more nodes than a repair would re-settle (treePays), the read that
// crosses the line plants a tree for a, and a's later reads and caches read
// the tree. A graph the pair search refuses (graph.Graph.PairSearchable) is
// read through trees only.
func (c *Cache) Route(a, b int, withPath bool) (float64, []int, error) {
	if c.g.PairSearchable() {
		c.mu.Lock()
		src := c.source(a)
		if src.tree == nil {
			pe := src.pair(b)
			if pe == nil {
				pe = &pairEntry{dst: b}
				src.pairs = append(src.pairs, pe)
			}
			c.mu.Unlock()
			pe.markRead(c.seq)
			c.fillPair(src, pe, a)
			if math.IsInf(pe.dist, 1) {
				return pe.dist, nil, pe.err
			}
			return pe.dist, pe.path, pe.err
		}
		c.mu.Unlock()
	}
	e := c.tree(a, false)
	if e.err != nil {
		return 0, nil, e.err
	}
	if withPath {
		return e.sp.Dist[b], e.sp.PathTo(b), nil
	}
	return e.sp.Dist[b], nil, nil
}

// fillPair searches pair entry pe of source a unless it is done, and adds
// the nodes the search settled to the source's count, planting the source's tree
// when the count crosses treePays.
func (c *Cache) fillPair(src *pathSource, pe *pairEntry, a int) {
	settled := pe.fill(func(ws *graph.Workspace) int { return c.searchPair(pe, a, ws) })
	if settled == 0 {
		return
	}
	c.mu.Lock()
	src.settled += settled
	plant := src.tree == nil && c.treePays(src.settled)
	c.mu.Unlock()
	if plant {
		c.tree(a, false)
	}
}

// searchPair fills pe with the shortest path from a to pe.dst, reusing the
// entry's path array, and returns the number of nodes the search settled.
func (c *Cache) searchPair(pe *pairEntry, a int, ws *graph.Workspace) int {
	p, err := c.g.ShortestPair(a, pe.dst, c.transit, c.h, ws, pe.path[:0])
	pe.dist, pe.err = p.Dist, err
	if p.Path != nil {
		pe.path = p.Path
	}
	return p.Settled
}
