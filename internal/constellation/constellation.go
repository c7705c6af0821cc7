// Package constellation implements Celestial's Constellation Calculation
// component: it periodically computes the state of the satellite network —
// positions of satellites and ground stations, network link distances and
// delays, and shortest paths between nodes with their end-to-end latency
// (§3.1 of the paper).
//
// A Constellation is built once from a validated configuration; Snapshot
// then produces an immutable State for any offset since the epoch. States
// are pure functions of the configuration and the time offset, which is
// what makes Celestial runs repeatable ("users can provide an arbitrary
// but firm starting point for their testbed emulation").
package constellation

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"celestial/internal/bbox"
	"celestial/internal/config"
	"celestial/internal/geom"
	"celestial/internal/graph"
	"celestial/internal/netem"
	"celestial/internal/orbit"
	"celestial/internal/par"
	"celestial/internal/topo"
	"celestial/internal/vnet"
)

// NodeKind distinguishes satellites from ground stations in the
// constellation-wide node numbering.
type NodeKind int

const (
	// KindSatellite is a satellite server node.
	KindSatellite NodeKind = iota + 1
	// KindGroundStation is a ground-station server node.
	KindGroundStation
)

// String implements fmt.Stringer.
func (k NodeKind) String() string {
	switch k {
	case KindSatellite:
		return "sat"
	case KindGroundStation:
		return "gst"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Node identifies one server in the constellation-wide numbering: all
// satellites of shell 0 first, then shell 1, ..., then ground stations.
type Node struct {
	// ID is the constellation-wide node index.
	ID   int
	Kind NodeKind
	// Shell and Sat identify a satellite (flat in-shell index); for
	// ground stations Shell is -1 and Sat is the station index.
	Shell int
	Sat   int
	// Name is the DNS-style identity: "<sat>.<shell>" for satellites
	// (e.g. "878.0"), the configured name for ground stations.
	Name string
}

// planEdge is one +GRID ISL precomputed in the constellation-wide node
// numbering. The plan is static; only line-of-sight feasibility and the
// link distance vary per tick.
type planEdge struct {
	a, b int
}

// Constellation precomputes everything that does not change over time:
// shells, the ISL plans flattened to constellation-wide edge arrays,
// ground-station positions and the node numbering.
type Constellation struct {
	cfg    *config.Config
	shells []*orbit.Shell
	edges  [][]planEdge // per-shell +GRID edges in global node IDs
	base   []int        // node index base per shell
	gstPos []geom.Vec3
	gst    []config.GroundStation
	nodes  []Node
	// visCell is the per-shell grid cell size of the spatial visibility
	// index, sized once from the shell altitude and elevation mask.
	visCell []float64
	// inBox is cfg.BoundingBox prepared for the per-satellite activity test.
	inBox bbox.Tester
}

// New builds a Constellation from a validated configuration.
func New(cfg *config.Config) (*Constellation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Constellation{cfg: cfg, inBox: bbox.NewTester(cfg.BoundingBox)}
	epoch := cfg.EpochJulian()
	id := 0
	for si := range cfg.Shells {
		sh, err := orbit.NewShell(cfg.Shells[si].ShellConfig, epoch)
		if err != nil {
			return nil, fmt.Errorf("constellation: shell %d: %w", si, err)
		}
		c.shells = append(c.shells, sh)
		plan := topo.GridLinks(cfg.Shells[si].ShellConfig)
		edges := make([]planEdge, len(plan))
		for i, isl := range plan {
			edges[i] = planEdge{a: id + isl.A, b: id + isl.B}
		}
		c.edges = append(c.edges, edges)
		c.base = append(c.base, id)
		c.visCell = append(c.visCell, topo.SuggestedCellDeg(
			cfg.Shells[si].ShellConfig.AltitudeKm, cfg.Shells[si].Network.MinElevationDeg))
		for f := 0; f < sh.Size(); f++ {
			c.nodes = append(c.nodes, Node{
				ID: id, Kind: KindSatellite, Shell: si, Sat: f,
				Name: fmt.Sprintf("%d.%d", f, si),
			})
			id++
		}
	}
	for gi, g := range cfg.GroundStations {
		c.gst = append(c.gst, g)
		c.gstPos = append(c.gstPos, g.Location.ECEF())
		c.nodes = append(c.nodes, Node{
			ID: id, Kind: KindGroundStation, Shell: -1, Sat: gi, Name: g.Name,
		})
		id++
	}
	return c, nil
}

// NodeCount returns the total number of nodes (satellites plus ground
// stations).
func (c *Constellation) NodeCount() int { return len(c.nodes) }

// Nodes returns the node table. The slice is owned by the Constellation
// and must not be modified.
func (c *Constellation) Nodes() []Node { return c.nodes }

// Node returns the node with the given constellation-wide ID.
func (c *Constellation) Node(id int) (Node, error) {
	if id < 0 || id >= len(c.nodes) {
		return Node{}, fmt.Errorf("constellation: node %d out of range [0, %d)", id, len(c.nodes))
	}
	return c.nodes[id], nil
}

// SatNode returns the constellation-wide node ID of a satellite.
func (c *Constellation) SatNode(shell, flat int) (int, error) {
	if shell < 0 || shell >= len(c.shells) {
		return 0, fmt.Errorf("constellation: shell %d out of range [0, %d)", shell, len(c.shells))
	}
	if flat < 0 || flat >= c.shells[shell].Size() {
		return 0, fmt.Errorf("constellation: satellite %d out of range [0, %d) in shell %d",
			flat, c.shells[shell].Size(), shell)
	}
	return c.base[shell] + flat, nil
}

// GSTNode returns the constellation-wide node ID of a ground station by
// index.
func (c *Constellation) GSTNode(gst int) (int, error) {
	if gst < 0 || gst >= len(c.gst) {
		return 0, fmt.Errorf("constellation: ground station %d out of range [0, %d)", gst, len(c.gst))
	}
	return c.base[len(c.base)-1] + c.shells[len(c.shells)-1].Size() + gst, nil
}

// SatExists reports whether a shell and flat satellite index name a
// satellite (dns.Directory).
func (c *Constellation) SatExists(shell, flat int) bool {
	_, err := c.SatNode(shell, flat)
	return err == nil
}

// GSTIndex returns the index of a named ground station (dns.Directory).
func (c *Constellation) GSTIndex(name string) (int, bool) {
	for i, g := range c.gst {
		if g.Name == name {
			return i, true
		}
	}
	return 0, false
}

// GSTNodeByName returns the constellation-wide node ID of a named ground
// station.
func (c *Constellation) GSTNodeByName(name string) (int, error) {
	if i, ok := c.GSTIndex(name); ok {
		return c.GSTNode(i)
	}
	return 0, fmt.Errorf("constellation: unknown ground station %q", name)
}

// NodeByRef resolves a node reference — a ground-station name ("accra") or
// a strict "<sat>.<shell>" satellite pair ("878.0", see vnet.ParseSatRef) —
// to its constellation-wide node ID. Scenario files, the HTTP information
// service and Testbed.NodeByName all resolve through here, so they accept
// exactly the same spellings.
func (c *Constellation) NodeByRef(ref string) (int, error) {
	if id, err := c.GSTNodeByName(ref); err == nil {
		return id, nil
	}
	if sat, shell, ok := vnet.ParseSatRef(ref); ok {
		return c.SatNode(shell, sat)
	}
	return 0, fmt.Errorf("unknown node %q (want \"<sat>.<shell>\" or a ground station name)", ref)
}

// Shells returns the instantiated shells.
func (c *Constellation) Shells() []*orbit.Shell { return c.shells }

// GroundStations returns the configured ground stations.
func (c *Constellation) GroundStations() []config.GroundStation { return c.gst }

// pathShards is the shard count of a State's shortest-path cache. Sixteen
// shards keep lock contention negligible for the host HTTP servers'
// concurrent queries while staying cheap to clear on buffer reuse.
const pathShards = 16

// cacheEntry is what every path-cache entry has: singleflight semantics —
// the first caller computes under the entry's mutex; concurrent callers for
// the same entry block on it instead of on a global lock — and the
// bookkeeping that carries it across states. done flips after the
// computation completes (double-checked by lock-free readers), letting the
// pool's path carry-over share or recompute finished entries between states
// without waiting on in-flight ones. lastRead is the seq of the latest
// state the entry was read on (see idleSnapshots).
type cacheEntry struct {
	mu       sync.Mutex
	done     atomic.Bool
	lastRead atomic.Uint64
	err      error
}

// pathEntry is one cached single-source Dijkstra result, a tree. whole
// marks a tree planted by a whole-tree read (State.pathsFor) rather than for
// a source's pair reads; only those count a repair that fell back
// (DiffRecord.RepairFallbacks). shared marks a tree listed by more than one
// state (set under the source shard's lock during carry-over, read during
// reset, which the pool orders after any carry-over: one prepare at a time,
// each joined before the next takes a buffer): its arrays never go back to
// spareTrees, since a reader may still hold them through a lease on another
// state.
type pathEntry struct {
	cacheEntry
	whole  bool
	shared bool
	sp     graph.ShortestPaths
}

// spareTrees recycles tree arrays across states, process wide: a state's
// reset puts back every finished tree only it held, emptied but for its
// sp.Dist and sp.Prev, and path-cache fills and repairs compute into them.
var spareTrees = sync.Pool{New: func() any { return new(pathEntry) }}

// pairEntry is one cached pair read: the shortest distance and path from a
// source to dst (graph.ShortestPair). path is the entry's own; it leaves the
// cache only as a copy.
type pairEntry struct {
	cacheEntry
	dst  int
	dist float64
	path []int
}

// pathSource is one source's slot in a state's path cache, guarded by its
// shard's lock. A source read as a whole tree, or whose pair searches on one
// state settled more nodes than a repair would re-settle (treePays), holds
// a tree, and every pair read of it reads the tree. Any other source holds
// one pairEntry per target read. settled counts the nodes this state's pair
// searches from the source settled. The record itself belongs to one state;
// its entries may be shared with others.
type pathSource struct {
	tree    *pathEntry
	pairs   []*pairEntry
	settled int
}

// setTree makes e the source's tree. The pairs it held answer nothing
// from now on and are dropped, as if the tree had been there first: a tree
// that reaches the next state in a Snapshot's second pass, after its pairs
// did in the first, leaves the state it would have at the boundary.
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

// idleSnapshots is how many snapshots a cached source outlives its last
// read: a state carries, repairs or re-searches a completed entry of the
// previous state only if the entry was read on one of the idleSnapshots
// states before it. Repair re-settles ~10 % of the nodes per tick (8 % on
// Starlink P1, 11 % on Gen2), so ten repairs of a tree nobody reads cost
// about the full Dijkstra its next read would pay after an eviction, and a
// pair re-search costs less than its first search. Carrying an unread entry
// longer than that cannot save more than it costs, and evicting it sooner
// risks paying the full run for a reader that comes back every few ticks.
// Every flow of a checked-in workload reads its pairs every tick.
const idleSnapshots = 10

// markRead records a read of the entry on the state at position seq.
// lastRead only grows, so a reader still holding an older state cannot
// make a later read look stale.
func (e *cacheEntry) markRead(seq uint64) {
	for {
		old := e.lastRead.Load()
		if old >= seq || e.lastRead.CompareAndSwap(old, seq) {
			return
		}
	}
}

// carries reports whether the entry goes on to the state at position seq:
// it is complete and was read within idleSnapshots states of it.
func (e *cacheEntry) carries(seq uint64) bool {
	return e.done.Load() && e.err == nil && e.lastRead.Load()+idleSnapshots >= seq
}

// pathShard is one lock-striped slice of the path cache, keyed by source.
type pathShard struct {
	mu sync.Mutex
	m  map[int]*pathSource
}

// source returns the shard's record for a, adding an empty one. The caller
// holds the shard's lock or owns the unpublished state.
func (sh *pathShard) source(a int) *pathSource {
	s := sh.m[a]
	if s == nil {
		s = new(pathSource)
		sh.m[a] = s
	}
	return s
}

// treePays reports whether pair searches that settled this many nodes on
// one state cost more than keeping a tree: a repair re-settles up to
// graph.RepairFallbackFraction of the nodes before it gives up.
func (st *State) treePays(settled int) bool {
	return float64(settled) > graph.RepairFallbackFraction*float64(len(st.Positions))
}

// State is one topology snapshot: node positions, available links and
// lazily computed shortest paths. A State is immutable once computed and
// safe for concurrent use; States obtained from a SnapshotPool are
// recycled, see there.
type State struct {
	// T is the offset since the constellation epoch in seconds.
	T float64
	// Positions holds the ECEF position of every node.
	Positions []geom.Vec3
	// Active[i] reports whether node i's machine is active: ground
	// stations always are; satellites are active when their ground
	// track is inside the bounding box. The bounding box does not
	// affect path calculation (§3.3 of the paper).
	Active []bool
	// Links are all usable links in this snapshot.
	Links []topo.Link

	c *Constellation
	g graph.Graph

	// paths is the sharded shortest-path cache: per source a tree or the
	// pairs read from it.
	paths [pathShards]pathShard

	// pairScale is the scale of the pair searches' heuristic
	// (graph.Heuristic over Positions): the least ratio of a link's realized
	// delay to its length, found during link assembly, through
	// graph.HeuristicScale.
	pairScale float64

	// uplinks[gi] are the per-ground-station candidate uplinks,
	// one slice per shell.
	uplinks [][][]topo.Uplink

	// Per-tick scratch, reused across recycled snapshots: feasibility
	// flag and distance per planned ISL (flat over all shells, indexed
	// by plan order).
	feasible []bool
	distKm   []float64

	// visIdx is the per-shell spatial visibility index rebuilt each tick.
	visIdx []topo.VisIndex

	// Link fingerprint for diffing against the previous tick, recorded
	// during assembly. islQ holds the delay quantum per planned ISL (-1
	// when infeasible); gslSat/gslQ hold the realized uplinks' satellite
	// node IDs and delay quanta in closest-first order, with gslOff
	// delimiting the (station, shell) runs at index gi*shells+si.
	islQ   []int32
	gslSat []int32
	gslQ   []int32
	gslOff []int32

	// diff is how this snapshot differs from the previous pooled one.
	diff Diff

	// transitFn is the shared forwarding predicate of every shortest-path
	// computation on this state (ground stations are endpoints, not
	// routers), built once for the satellite count satN so path-cache
	// fills and repairs do not allocate a closure each.
	transitFn func(node int) bool
	satN      int

	// seq is the state's position in its pool's chain of snapshots, one
	// more than the previous state's; path-cache entries age by it.
	seq uint64

	// Snapshot-generation arenas: the activity flags, link list and the
	// many small per-(station, shell) uplink slices are carved from
	// grow-only chunks, rewound as a unit when the state's buffers are
	// recomputed. Carving happens sequentially in reset, sized by the
	// buffer's previous-generation length (tracked in linkCap/upCap); the
	// visibility phase then appends within carved capacity and link
	// assembly reslices the link carve to its exact length, both falling
	// back to the heap on the rare overflow.
	linkArena arena[topo.Link]
	boolArena arena[bool]
	upArena   arena[topo.Uplink]
	linkCap   int
	upCap     []int32
}

// dijkstraWorkspaces pools queue scratch across path-cache fills; the
// result arrays come from spareTrees, the queue from here.
var dijkstraWorkspaces = sync.Pool{New: func() any { return new(graph.Workspace) }}

// Snapshot computes the constellation state t seconds after the epoch,
// fanning the orbit propagation, ISL feasibility tests and ground-station
// visibility scans out across GOMAXPROCS workers. The result is
// byte-identical to a single-worker run (SnapshotSequential in
// pipeline_test.go) — parallelism never changes the computed state,
// preserving the paper's repeatability property.
func (c *Constellation) Snapshot(t float64) (*State, error) {
	return c.snapshotFresh(t, runtime.GOMAXPROCS(0))
}

// snapshotFresh computes a snapshot into a new State with the given worker
// count and materializes its graph; it has no base to diff against.
func (c *Constellation) snapshotFresh(t float64, workers int) (*State, error) {
	st, err := c.snapshotInto(new(State), t, workers)
	if err != nil {
		return nil, err
	}
	st.rebuildGraph()
	st.diffLinksFrom(nil)
	return st, nil
}

// snapshotInto (re)computes the state for offset t into st, reusing any
// buffers st already holds, with the given worker count. The pipeline has
// four parallel phases — per-satellite propagation, per-ISL feasibility,
// per-station visibility, link assembly — each writing to disjoint
// pre-sized buffers, which keeps the result independent of the worker
// count.
//
// The latency graph is not touched: the caller materializes it afterwards
// — the pooled path by cloning and patching the previous tick's CSR image
// when the diff allows, everyone else by building it from the assembled
// link list (State.rebuildGraph) — so the steady-state tick skips the
// O(N+M) build entirely.
func (c *Constellation) snapshotInto(st *State, t float64, workers int) (*State, error) {
	n := c.NodeCount()
	st.reset(c, t, n)

	// Phase 1: satellite positions and bounding-box activity, chunked
	// over each shell's flat index range. The default whole-earth box
	// needs no test at all; any other box is decided by its prepared
	// tester, which resorts to the iterative geodetic conversion only for
	// ground tracks within a fraction of a degree of a latitude edge.
	wholeEarth := c.cfg.BoundingBox.IsWholeEarth()
	var firstErr par.FirstError
	for si, sh := range c.shells {
		base := c.base[si]
		shellPos := st.Positions[base : base+sh.Size()]
		par.ForWorkers(sh.Size(), workers, func(lo, hi int) {
			if err := sh.PositionsECEFRange(t, shellPos, lo, hi); err != nil {
				firstErr.Set(err)
				return
			}
			for f := lo; f < hi; f++ {
				st.Active[base+f] = wholeEarth || c.inBox.ContainsECEF(shellPos[f])
			}
		})
	}
	if err := firstErr.Err(); err != nil {
		return nil, fmt.Errorf("constellation: t=%v: %w", t, err)
	}
	// Ground stations are always active.
	gstBase := n - len(c.gst)
	for gi := range c.gst {
		st.Positions[gstBase+gi] = c.gstPos[gi]
		st.Active[gstBase+gi] = true
	}

	// Phase 2: ISL feasibility and length. The +GRID plan is static
	// (precomputed in New as global-ID edge arrays); only the per-tick
	// line-of-sight test and distance are computed here, in parallel
	// over the flattened edge list.
	planTotal := 0
	for _, edges := range c.edges {
		planTotal += len(edges)
	}
	st.feasible = resize(st.feasible, planTotal)
	st.distKm = resize(st.distKm, planTotal)
	off := 0
	for si, edges := range c.edges {
		cutoff := c.cfg.Shells[si].Network.AtmosphereCutoffKm
		flat := st.feasible[off : off+len(edges)]
		dist := st.distKm[off : off+len(edges)]
		par.ForWorkers(len(edges), workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				pa, pb := st.Positions[edges[i].a], st.Positions[edges[i].b]
				flat[i] = topo.Feasible(pa, pb, cutoff)
				if flat[i] {
					dist[i] = pa.Distance(pb)
				}
			}
		})
		off += len(edges)
	}

	// Phase 3: ground-station visibility, one task per station (each
	// writes only its own uplink buffers, carved in reset). A per-shell
	// spatial index over the satellites' ground-track cells, shared by all
	// stations, replaces the brute-force O(G×S) elevation scan; each
	// station only tests satellites whose cell can clear its elevation
	// mask. The index is updated incrementally — only satellites that
	// crossed a grid-cell boundary since this buffer's previous generation
	// re-bucket; Update falls back to a full build on a cold or mismatched
	// index. Query results are identical to the exhaustive scan either way
	// (see topo.VisIndex), so the index never changes the computed state.
	if len(c.gst) > 0 {
		for si, sh := range c.shells {
			shellPos := st.Positions[c.base[si] : c.base[si]+sh.Size()]
			st.visIdx[si].Update(shellPos, c.visCell[si], workers)
		}
	}
	par.ForWorkers(len(c.gst), workers, func(glo, ghi int) {
		for gi := glo; gi < ghi; gi++ {
			for si := range c.shells {
				minElev := c.cfg.Shells[si].Network.MinElevationDeg
				st.uplinks[gi][si] = st.visIdx[si].VisibleInto(
					c.gstPos[gi], minElev, st.uplinks[gi][si])
			}
		}
	})

	// Link assembly. The feasibility flags fix every ISL's slot in Links
	// (plan order, shell by shell) and the uplink counts fix every GSL's
	// (station-major, then shell, closest first) before a single link is
	// built, so the links are written in parallel, each into its own slot:
	// the list is the one a sequential append in that order produces,
	// whatever the worker count. Realized link latencies are quantized to
	// the netem emulation granularity: the emulated network cannot
	// distinguish sub-quantum differences, and quantizing here makes
	// adjacent ticks' graphs bit-identical whenever no link moved by a full
	// quantum — the foundation of the diff engine and the path-cache
	// carry-over. The delay quantum and the realized uplink sequences are
	// recorded as this tick's link fingerprint for diffLinksFrom, and each
	// chunk folds its least ratio of realized delay to length into the
	// pair searches' heuristic scale.
	//
	// islQ first holds each feasible ISL's slot, then its delay quantum.
	st.islQ = resize(st.islQ, planTotal)
	islTotal := 0
	for i, ok := range st.feasible {
		if ok {
			st.islQ[i] = int32(islTotal)
			islTotal++
		} else {
			st.islQ[i] = -1
		}
	}
	st.gslOff = resize(st.gslOff, len(c.gst)*len(c.shells)+1)
	st.gslOff[0] = 0
	run := 0
	for gi := range c.gst {
		for si := range c.shells {
			st.gslOff[run+1] = st.gslOff[run] + int32(len(st.realizedUplinks(gi, si)))
			run++
		}
	}
	gslTotal := int(st.gslOff[run])
	st.gslSat = resize(st.gslSat, gslTotal)
	st.gslQ = resize(st.gslQ, gslTotal)
	if total := islTotal + gslTotal; total <= cap(st.Links) {
		st.Links = st.Links[:total]
	} else {
		// Outgrew the arena carve: this generation lives on the heap and
		// the next one's carve adapts.
		st.Links = make([]topo.Link, total)
	}
	var least leastRatio
	least.v = math.Inf(1)
	off = 0
	for _, edges := range c.edges {
		islQ := st.islQ[off : off+len(edges)]
		dist := st.distKm[off : off+len(edges)]
		par.ForWorkers(len(edges), workers, func(lo, hi int) {
			r := math.Inf(1)
			for i := lo; i < hi; i++ {
				if slot := islQ[i]; slot >= 0 {
					st.Links[slot], islQ[i] = quantizedLink(
						topo.KindISL, edges[i].a, edges[i].b, dist[i])
					r = lessRatio(r, st.Links[slot].LatencyS, dist[i])
				}
			}
			least.fold(r)
		})
		off += len(edges)
	}
	par.ForWorkers(len(c.gst), workers, func(glo, ghi int) {
		r := math.Inf(1)
		for gi := glo; gi < ghi; gi++ {
			for si := range c.shells {
				at := int(st.gslOff[gi*len(c.shells)+si])
				for _, up := range st.realizedUplinks(gi, si) {
					sid := c.base[si] + up.Sat
					st.gslSat[at] = int32(sid)
					st.Links[islTotal+at], st.gslQ[at] = quantizedLink(
						topo.KindGSL, gstBase+gi, sid, up.DistanceKm)
					r = lessRatio(r, st.Links[islTotal+at].LatencyS, up.DistanceKm)
					at++
				}
			}
		}
		least.fold(r)
	})
	st.pairScale = graph.HeuristicScale(least.v)
	return st, nil
}

// leastRatio is the least ratio of a link's realized delay to its length
// over the link assembly's parallel chunks. A minimum does not depend on the
// order the chunks fold in, so the result is the same for any worker count.
type leastRatio struct {
	mu sync.Mutex
	v  float64
}

// fold lowers the minimum to r if r is smaller.
func (l *leastRatio) fold(r float64) {
	l.mu.Lock()
	l.v = lessRatio(l.v, r, 1)
	l.mu.Unlock()
}

// lessRatio returns the smaller of r and delay/lengthKm. A zero-length link
// (0/0) bounds nothing and leaves r.
func lessRatio(r, delay, lengthKm float64) float64 {
	if x := delay / lengthKm; x < r {
		return x
	}
	return r
}

// realizedUplinks returns the candidate uplinks of station gi to shell si
// that become links: all of them, or only the closest for a single-dish
// terminal (GSTConnectionType "one").
func (st *State) realizedUplinks(gi, si int) []topo.Uplink {
	ups := st.uplinks[gi][si]
	if st.c.cfg.Shells[si].Network.GSTConnectionType == "one" && len(ups) > 1 {
		return ups[:1]
	}
	return ups
}

// quantizedLink builds a link whose latency is rounded to the netem delay
// quantum, and returns that quantum count with it.
func quantizedLink(kind topo.LinkKind, a, b int, distKm float64) (topo.Link, int32) {
	l := topo.NewLink(kind, a, b, distKm)
	q := netem.LatencyQuanta(l.LatencyS)
	l.LatencyS = float64(q) * netem.DelayQuantumSeconds
	return l, int32(q)
}

// rebuildGraph builds the snapshot's latency graph from its assembled link
// list before the state is published. Plan edges were validated when the
// constellation was built, so Build takes them unchecked. It serves
// unpooled snapshots and the cold-start and fallback path of the pooled
// flow; steady-state ticks clone-and-patch the previous image instead.
func (st *State) rebuildGraph() {
	st.g.Build(len(st.Positions), len(st.Links), func(i int) (int, int, float64) {
		l := &st.Links[i]
		return l.A, l.B, l.LatencyS
	})
}

// reset prepares st's buffers for recomputation with n nodes, keeping
// backing arrays so recycled snapshots allocate nothing in steady state.
// The activity flags, link list and per-(station, shell) uplink slices are
// carved from the state's generation arenas — rewound here, sized by each
// buffer's previous-generation length — so they occupy a handful of
// contiguous chunks instead of hundreds of individually grown slices.
// Carving is sequential (the arenas are not locked); the parallel phases
// only append within carved capacity.
func (st *State) reset(c *Constellation, t float64, n int) {
	st.T = t
	st.c = c
	st.Positions = resize(st.Positions, n)

	// Record the previous generation's lengths before rewinding, then
	// carve this generation's buffers with a little headroom; a buffer
	// that outgrows its carve falls back to a heap append and the next
	// generation adapts.
	if prev := len(st.Links); prev > st.linkCap {
		st.linkCap = prev
	}
	st.upCap = resize(st.upCap, len(c.gst)*len(c.shells))
	if cap(st.uplinks) < len(c.gst) {
		st.uplinks = make([][][]topo.Uplink, len(c.gst))
	}
	st.uplinks = st.uplinks[:len(c.gst)]
	for gi := range st.uplinks {
		if st.uplinks[gi] == nil {
			st.uplinks[gi] = make([][]topo.Uplink, len(c.shells))
		}
		for si := range st.uplinks[gi] {
			k := gi*len(c.shells) + si
			if prev := int32(len(st.uplinks[gi][si])); prev > st.upCap[k] {
				st.upCap[k] = prev
			}
		}
	}
	st.linkArena.rewind()
	st.boolArena.rewind()
	st.upArena.rewind()
	st.Active = st.boolArena.carve(n, n)
	for i := range st.Active {
		st.Active[i] = false
	}
	st.Links = st.linkArena.carve(0, st.linkCap+st.linkCap/16+64)
	for gi := range st.uplinks {
		for si := range st.uplinks[gi] {
			k := gi*len(c.shells) + si
			st.uplinks[gi][si] = st.upArena.carve(0, int(st.upCap[k])+4)
		}
	}
	if cap(st.visIdx) < len(c.shells) {
		st.visIdx = make([]topo.VisIndex, len(c.shells))
	}
	st.visIdx = st.visIdx[:len(c.shells)]

	// Ground stations are endpoints of the satellite network, not
	// routers: only satellites forward traffic. The node numbering puts
	// all satellites before all ground stations, so the Kind check
	// reduces to a compare against the closed-over satellite count —
	// this predicate runs once per queue pop on the Dijkstra hot path.
	// The count is constant per constellation, so the closure is built
	// once and survives buffer reuse.
	if satN := n - len(c.gst); st.transitFn == nil || satN != st.satN {
		st.satN = satN
		st.transitFn = func(node int) bool { return node < satN }
	}
	for i := range st.paths {
		if st.paths[i].m == nil {
			st.paths[i].m = map[int]*pathSource{}
			continue
		}
		// Recycle the old tick's trees before dropping the cache.
		for _, src := range st.paths[i].m {
			if e := src.tree; e != nil && e.done.Load() && e.err == nil && !e.shared {
				*e = pathEntry{sp: graph.ShortestPaths{Dist: e.sp.Dist, Prev: e.sp.Prev}}
				spareTrees.Put(e)
			}
		}
		clear(st.paths[i].m)
	}
}

// resize returns s with length n, reusing its backing array when possible.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// SnapshotPool recycles State buffers across update ticks so that the
// steady-state constellation calculation allocates (almost) nothing:
// positions, activity flags, link slices, the graph's CSR image, the path
// cache's shard maps and uplink buffers are all reused, and the arrays of
// the trees a state held alone go back to spareTrees. The coordinator
// double-buffers through the pool — a State handed out by Snapshot must be
// Recycled by the caller once no reader can still hold it.
//
// The pool is also the diff engine's anchor: each Snapshot compares its
// link fingerprint against the previous pooled snapshot (which the
// double-buffer discipline keeps alive and readable) and records the
// result in State.Diff. When the diff is empty — no link appeared,
// disappeared or changed its delay quantum, no activity flipped — the
// previous snapshot's computed shortest-path entries are transplanted into
// the new one instead of being recomputed. Concurrent Snapshot calls are
// serialized; Recycle may be called concurrently at any time.
//
// A snapshot is computed in two halves, cut where its inputs change kind.
// prepare is a function of the offset t and the previous pooled state
// only — propagation, visibility, link assembly, the link diff, the graph
// patch and the repair of the previous state's path cache — so it may run
// as soon as the previous state is published (Prefetch), beside whatever
// the caller does until t falls due. finish needs the boundary itself: the
// activity overlay and the path sources planted on the previous state keep
// changing until then. Snapshot is always prepare followed by finish.
type SnapshotPool struct {
	c *Constellation
	// snapMu serializes Snapshot and Prefetch: the previous state's
	// fingerprint and path shards are read during a compute, so no other
	// compute may be overwriting a buffer meanwhile. A prepare launched by
	// Prefetch runs without it; pre stands in for the lock until the next
	// Snapshot has joined that goroutine.
	snapMu sync.Mutex
	mu     sync.Mutex
	// free are recycled states ready for reuse.
	free []*State
	// last is the newest computed state, the diff base for the next
	// tick. It is cleared when recycled (a recycled buffer may be
	// overwritten at any time and cannot serve as a base).
	last *State
	// pre is the prepare launched by Prefetch and not yet joined (guarded
	// by snapMu); at most one is in flight.
	pre *prefetch
	// noRepair disables the incremental path repair (see SetPathRepair).
	noRepair bool
	// overlay, when set, vetoes node activity beyond the bounding box
	// (see SetActivityOverlay).
	overlay func(active []bool)
	// deltaScratch, fold and jobScratch are the edge-delta, handover-fold
	// and carryPaths buffers, reused across ticks. Both halves of a
	// snapshot use them, never at once: finish starts after prepare has
	// been joined.
	deltaScratch []graph.EdgeDelta
	fold         handoverFold
	jobScratch   []carryJob
	// stageTimer, when set, receives the wall-clock duration of each
	// Snapshot stage (see SetStageTimer).
	stageTimer func(stage string, d time.Duration)
}

// prepared is what the first half of a snapshot hands to the second.
type prepared struct {
	t float64
	// out is the computed state, nil when err is set (its buffer is then
	// already back in the pool); prev is the diff base it was computed
	// against, the pool's last state when the buffer was taken.
	out, prev *State
	err       error
	// deltas are the tick's merged graph-level link deltas (backed by the
	// pool's deltaScratch); nil on a Full or link-unchanged diff.
	deltas []graph.EdgeDelta
	// noRepair is SetPathRepair's setting when the prepare started; the
	// catch-up in finish follows it too.
	noRepair bool
	// stage accumulates the wall time of the "snapshot", "diff" and
	// "repair" stages over both halves.
	stage [3]time.Duration
}

// lap adds the time since *start to stage i and restarts the clock.
func (pr *prepared) lap(i int, start *time.Time) {
	now := time.Now()
	pr.stage[i] += now.Sub(*start)
	*start = now
}

// prefetch is a prepare running on its own goroutine; done is closed once
// the embedded result is complete.
type prefetch struct {
	prepared
	done chan struct{}
}

// stageNames are SetStageTimer's keys, in prepared.stage order.
var stageNames = [3]string{"snapshot", "diff", "repair"}

// NewSnapshotPool creates an empty pool for the constellation.
func (c *Constellation) NewSnapshotPool() *SnapshotPool {
	return &SnapshotPool{c: c}
}

// Snapshot computes the state at offset t like Constellation.Snapshot, but
// into a recycled buffer when one is available, and diffs the result
// against the pool's previous snapshot (see SnapshotPool). Single-buffered
// use — recycling each state before taking the next — still works but
// yields Full diffs, since the only possible base is the very buffer being
// overwritten; keep two states in flight to get deltas and path carry-over.
//
// Snapshot is the only way to obtain a state. If a Prefetch for the same t
// is in flight, Snapshot waits for it and finishes its result on the
// calling goroutine; a prefetch for any other t, or one whose diff base has
// been recycled since, is waited for and discarded, and the state is
// computed inline. Either way the returned state is the same, bit for bit.
func (p *SnapshotPool) Snapshot(t float64) (*State, error) {
	p.snapMu.Lock()
	defer p.snapMu.Unlock()
	pr, ok := p.join(t)
	if !ok {
		pr = p.prepare(t, p.noRepair)
	}
	return p.finish(&pr)
}

// Prefetch starts computing the state at offset t on a goroutine of the
// pool's own, against the state the last Snapshot returned, and returns at
// once. The next Snapshot(t) joins it and only finishes — applies the
// activity overlay, catches up on path sources planted meanwhile, delivers
// the stage timings — so a caller that knows its next tick can have the
// heavy half computed while the current state is still in effect.
//
// Prefetch is a hint: the state Snapshot returns — links, graph, diff, path
// cache and its counters — does not depend on whether it was called. At
// most one prepare is in flight; a Prefetch while one is outstanding is
// ignored. An error the prepare runs into is returned by the Snapshot that
// joins it.
func (p *SnapshotPool) Prefetch(t float64) {
	p.snapMu.Lock()
	defer p.snapMu.Unlock()
	if p.pre != nil {
		return
	}
	pf := &prefetch{done: make(chan struct{})}
	p.pre = pf
	noRepair := p.noRepair
	go func() {
		defer close(pf.done)
		pf.prepared = p.prepare(t, noRepair)
	}()
}

// join waits for the prepare in flight, if any, and returns its result when
// it is the one a synchronous Snapshot(t) would compute now: same offset,
// and the diff base is still the pool's last state (a Recycle of the base
// since would make the synchronous diff Full). Anything else goes back to
// the pool.
func (p *SnapshotPool) join(t float64) (prepared, bool) {
	pf := p.pre
	if pf == nil {
		return prepared{}, false
	}
	p.pre = nil
	<-pf.done
	p.mu.Lock()
	current := p.last == pf.prev
	p.mu.Unlock()
	if pf.t == t && current {
		return pf.prepared, true
	}
	p.Recycle(pf.out)
	return prepared{}, false
}

// prepare is the half of a snapshot that depends only on t and on the
// pool's previous state, both fixed the moment that state was published:
// it takes a buffer, computes positions and links into it, diffs the links
// against the previous state, materializes the graph and carries over the
// previous state's path cache as far as it is complete. It runs on the
// Snapshot goroutine or on Prefetch's, the same code on both; the repair
// setting is passed in because Prefetch captures it at launch.
func (p *SnapshotPool) prepare(t float64, noRepair bool) prepared {
	p.mu.Lock()
	var st *State
	if k := len(p.free); k > 0 {
		st, p.free = p.free[k-1], p.free[:k-1]
	} else {
		st = new(State)
	}
	prev := p.last
	if prev == st {
		prev, p.last = nil, nil
	}
	p.mu.Unlock()
	pr := prepared{t: t, prev: prev, noRepair: noRepair}
	stageStart := time.Now()
	out, err := p.c.snapshotInto(st, t, runtime.GOMAXPROCS(0))
	if err != nil {
		// The buffers remain reusable even when the computation
		// failed halfway through.
		p.Recycle(st)
		pr.err = err
		return pr
	}
	pr.out = out
	pr.lap(0, &stageStart)
	out.seq = 0
	if prev != nil {
		out.seq = prev.seq + 1
	}
	out.diffLinksFrom(prev)

	// Materialize the latency graph. Steady state clones the previous
	// tick's CSR image — read-only on prev, so concurrent readers holding
	// a lease on it are unaffected — and patches this tick's merged link
	// deltas into it in place, skipping the O(N+M) build. The deltas are
	// computed once and shared with the path repair in both halves. Cold
	// starts, Full diffs and any patch mismatch (impossible for
	// diff-produced deltas) fall back to building from the assembled link
	// list; either way the image is query-identical (PatchFrozen's row
	// order may differ, which the canonical Dijkstra tie-break makes
	// unobservable).
	if prev != nil && !out.diff.Full && !out.diff.LinksUnchanged() {
		p.deltaScratch = appendEdgeDeltas(p.deltaScratch[:0], &out.diff, out.satN, &p.fold)
		pr.deltas = p.deltaScratch
	}
	patched := false
	if prev != nil && !out.diff.Full {
		if err := out.g.CopyFrozenFrom(&prev.g); err == nil {
			if err := out.g.PatchFrozen(pr.deltas); err == nil {
				patched = true
				out.diff.GraphPatched = true
				out.diff.PatchedEdges = len(pr.deltas)
			}
		}
	}
	if !patched {
		out.rebuildGraph()
	}
	pr.lap(1, &stageStart)

	p.carryPaths(&pr)
	pr.lap(2, &stageStart)
	return pr
}

// finish is the half of a snapshot that needs the tick boundary: machine
// health and the path sources planted on the previous state keep changing
// while that state is in effect, so the activity overlay, the activity
// flips and a second carry-over pass over the previous state's path cache
// — which finds only the entries completed since prepare looked — happen
// here, on the Snapshot goroutine, before the state becomes the pool's
// last. The stage timings of both halves are delivered here as well.
func (p *SnapshotPool) finish(pr *prepared) (*State, error) {
	if pr.err != nil {
		return nil, pr.err
	}
	out := pr.out
	stageStart := time.Now()
	if p.overlay != nil {
		p.overlay(out.Active)
	}
	pr.lap(0, &stageStart)
	out.diffActivityFrom(pr.prev)
	pr.lap(1, &stageStart)
	p.carryPaths(pr)
	pr.lap(2, &stageStart)
	if p.stageTimer != nil {
		for i, d := range pr.stage {
			p.stageTimer(stageNames[i], d)
		}
	}
	p.mu.Lock()
	p.last = out
	p.mu.Unlock()
	return out, nil
}

// SetActivityOverlay installs a veto on node activity: when a pooled
// snapshot is finished, the overlay is handed the bounding box's Active
// slice and clears the entries of nodes it reports inactive (it must only
// clear), before the activity flips against the previous snapshot are
// computed. The coordinator uses this to fold machine health into the
// state — a satellite whose server crashed (radiation SEU shutdown) shows
// up as a Deactivated flip in the next tick's diff, and as an Activated
// flip once it reboots, exactly like a bounding-box exit and re-entry.
// Like the bounding box, the overlay does not affect path calculation
// (§3.3 of the paper): links through an inactive node keep routing.
//
// The overlay is called once per Snapshot, inside the Snapshot call and on
// its goroutine — never from a Prefetch, so what it reads may change freely
// between ticks; it costs what it visits, so the coordinator's walks only
// the nodes whose machine failed. It must not be changed while a Snapshot
// call is running.
func (p *SnapshotPool) SetActivityOverlay(fn func(active []bool)) { p.overlay = fn }

// SetPathRepair disables (on=false) or re-enables the incremental repair
// of carried trees and the re-search of carried pairs on non-empty diffs,
// forcing every structural tick back to on-demand searches and full
// Dijkstra runs at the first read. Repaired and re-searched results are
// bit-identical to recomputed ones (locked in by the repair and pair
// differential tests); the knob exists for the coordinator's
// deferred-repair degradation level. The setting is read when a prepare
// starts — by Prefetch, or by a Snapshot that has no prefetch to join — and
// holds for that whole snapshot. It must not be toggled while a Snapshot or Prefetch
// call is running.
func (p *SnapshotPool) SetPathRepair(on bool) { p.noRepair = !on }

// SetStageTimer installs a callback that receives the wall-clock duration
// of each pooled-snapshot stage, keyed "snapshot" (propagation, state
// assembly and the activity overlay), "diff" (fingerprint comparison and
// graph materialization) and "repair" (path-cache transplant or
// incremental repair). The coordinator's tick watchdog uses these
// measurements to budget the update pipeline against the tick interval. A
// stage's duration is the work done for it, wherever it ran: the part a
// Prefetch computed ahead is measured there and added to the part Snapshot
// does at the boundary. The three callbacks are made once per Snapshot,
// from inside the Snapshot call and on its goroutine; nil (the default)
// disables them. It must not be changed while a Snapshot call is running.
func (p *SnapshotPool) SetStageTimer(fn func(stage string, d time.Duration)) { p.stageTimer = fn }

// Recycle returns a State's buffers to the pool. The State must not be
// used afterwards; its next Snapshot will overwrite every buffer in place.
func (p *SnapshotPool) Recycle(st *State) {
	if st == nil {
		return
	}
	p.mu.Lock()
	if st == p.last {
		p.last = nil
	}
	p.free = append(p.free, st)
	p.mu.Unlock()
}

// checkNode rejects a node ID outside the constellation.
func (st *State) checkNode(a int) error {
	if a < 0 || a >= len(st.c.nodes) {
		return fmt.Errorf("constellation: node %d out of range [0, %d)", a, len(st.c.nodes))
	}
	return nil
}

// pathsFor returns (computing and caching on first use) the single-source
// shortest paths from node a: a whole-tree read, which plants a tree for
// the source if the state holds none (see pathSource).
func (st *State) pathsFor(a int) (graph.ShortestPaths, error) {
	if err := st.checkNode(a); err != nil {
		return graph.ShortestPaths{}, err
	}
	e := st.tree(a, true)
	return e.sp, e.err
}

// tree returns source a's tree, planting it when the state holds none; whole
// marks a plant by a whole-tree read. The cache is sharded by source and
// each entry is computed at most once (singleflight): concurrent callers
// for the same source wait on that entry only, and callers for different
// sources proceed independently.
func (st *State) tree(a int, whole bool) *pathEntry {
	// Node IDs are non-negative (checked by the callers), so a plain
	// remainder is a valid shard index — no sign fixup needed.
	sh := &st.paths[a%pathShards]
	sh.mu.Lock()
	src := sh.source(a)
	e := src.tree
	if e == nil {
		e = spareTrees.Get().(*pathEntry)
		e.whole = whole
		src.tree = e
	}
	sh.mu.Unlock()
	e.markRead(st.seq)
	if !e.done.Load() {
		st.fillEntry(e, a)
	}
	return e
}

// fillEntry computes the single-source result of an unfilled cache entry
// under its singleflight mutex, into the entry's own arrays (recycled when
// the entry came from spareTrees) with pooled queue scratch. Like a
// sync.Once, the entry latches done even if the computation panics
// (deferred, before the mutex releases), so a recovered panic — e.g.
// inside an HTTP handler — cannot leave later callers blocked on the entry
// forever.
func (st *State) fillEntry(e *pathEntry, a int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done.Load() {
		return
	}
	defer e.done.Store(true)
	ws := dijkstraWorkspaces.Get().(*graph.Workspace)
	e.sp, e.err = st.g.DijkstraTransitInto(a, st.transitFn, e.sp.Dist, e.sp.Prev, ws)
	dijkstraWorkspaces.Put(ws)
}

// route answers a pair read, the shortest distance from a to b and, with
// withPath, the path (owned by the cache: callers must not modify it). A
// source that holds a tree answers from it. Any other source answers from
// its pair entry for b, an exact goal-directed search (graph.ShortestPair)
// run on the pair's first read on this state and carried to later states
// like a tree; if this state's searches from a settle more nodes than a
// repair would re-settle (treePays), the read that crosses the line plants
// a tree for a, and a's later reads and states read the tree. A graph the
// pair search refuses (graph.Graph.PairSearchable) is read through trees
// only.
func (st *State) route(a, b int, withPath bool) (float64, []int, error) {
	if err := st.checkNode(a); err != nil {
		return 0, nil, err
	}
	if err := st.checkNode(b); err != nil {
		return 0, nil, err
	}
	if st.g.PairSearchable() {
		sh := &st.paths[a%pathShards]
		sh.mu.Lock()
		src := sh.source(a)
		if src.tree == nil {
			pe := src.pair(b)
			if pe == nil {
				pe = &pairEntry{dst: b}
				src.pairs = append(src.pairs, pe)
			}
			sh.mu.Unlock()
			pe.markRead(st.seq)
			if !pe.done.Load() {
				st.fillPair(sh, src, pe, a)
			}
			if math.IsInf(pe.dist, 1) {
				return pe.dist, nil, pe.err
			}
			return pe.dist, pe.path, pe.err
		}
		sh.mu.Unlock()
	}
	e := st.tree(a, false)
	if e.err != nil {
		return 0, nil, e.err
	}
	if withPath {
		return e.sp.Dist[b], e.sp.PathTo(b), nil
	}
	return e.sp.Dist[b], nil, nil
}

// fillPair searches an unfilled pair entry of source a under its
// singleflight mutex, latching done even on a panic (see fillEntry), and
// adds the nodes the search settled to the source's count, planting the
// source's tree when the count crosses treePays.
func (st *State) fillPair(sh *pathShard, src *pathSource, pe *pairEntry, a int) {
	settled := func() int {
		pe.mu.Lock()
		defer pe.mu.Unlock()
		if pe.done.Load() {
			return 0
		}
		defer pe.done.Store(true)
		ws := dijkstraWorkspaces.Get().(*graph.Workspace)
		defer dijkstraWorkspaces.Put(ws)
		return st.searchPair(pe, a, ws)
	}()
	if settled == 0 {
		return
	}
	sh.mu.Lock()
	src.settled += settled
	plant := src.tree == nil && st.treePays(src.settled)
	sh.mu.Unlock()
	if plant {
		st.tree(a, false)
	}
}

// searchPair fills pe with the shortest path from a to pe.dst, reusing the
// entry's path array, and returns the number of nodes the search settled.
func (st *State) searchPair(pe *pairEntry, a int, ws *graph.Workspace) int {
	h := graph.Heuristic{Pos: st.Positions, Scale: st.pairScale}
	p, err := st.g.ShortestPair(a, pe.dst, st.transitFn, h, ws, pe.path[:0])
	pe.dist, pe.err = p.Dist, err
	if p.Path != nil {
		pe.path = p.Path
	}
	return p.Settled
}

// Latency returns the one-way end-to-end network latency in seconds
// between two nodes, or +Inf when they are not connected. It is a pair read
// (see route): the state searches the pair alone unless the source holds a
// tree, and carries the answer to the next states while it is read.
func (st *State) Latency(a, b int) (float64, error) {
	d, _, err := st.route(a, b, false)
	return d, err
}

// RTT returns the round-trip latency in seconds between two nodes.
func (st *State) RTT(a, b int) (float64, error) {
	l, err := st.Latency(a, b)
	return 2 * l, err
}

// Path returns the node sequence of a shortest path between two nodes,
// inclusive of the endpoints, or nil when unreachable. Like Latency it is a
// pair read; the slice is the caller's.
func (st *State) Path(a, b int) ([]int, error) {
	_, path, err := st.route(a, b, true)
	if err != nil || path == nil {
		return nil, err
	}
	return append([]int(nil), path...), nil
}

// Uplinks returns the candidate uplinks (sorted closest-first) of a ground
// station to one shell's satellites, as the visibility index computed them
// for this snapshot.
func (st *State) Uplinks(gst, shell int) ([]topo.Uplink, error) {
	if gst < 0 || gst >= len(st.uplinks) {
		return nil, fmt.Errorf("constellation: ground station %d out of range [0, %d)", gst, len(st.uplinks))
	}
	if shell < 0 || shell >= len(st.uplinks[gst]) {
		return nil, fmt.Errorf("constellation: shell %d out of range [0, %d)", shell, len(st.uplinks[gst]))
	}
	return st.uplinks[gst][shell], nil
}

// Graph exposes the snapshot's latency-weighted link graph.
func (st *State) Graph() *graph.Graph { return &st.g }

// ActiveCount returns the number of active (non-suspended) nodes.
func (st *State) ActiveCount() int {
	n := 0
	for _, a := range st.Active {
		if a {
			n++
		}
	}
	return n
}

// BestMeetingPoint finds the satellite node that minimizes the maximum
// one-way latency to all the given ground nodes — the server-selection
// rule of the §4 tracking service (choose "the optimal satellite server
// based on combined latency"). It returns the chosen node ID and the
// resulting worst-client latency. Only active satellites are considered,
// since suspended machines cannot host the service.
func (st *State) BestMeetingPoint(clients []int) (int, float64, error) {
	if len(clients) == 0 {
		return 0, 0, fmt.Errorf("constellation: no clients given")
	}
	sps := make([]graph.ShortestPaths, len(clients))
	for i, cl := range clients {
		sp, err := st.pathsFor(cl)
		if err != nil {
			return 0, 0, err
		}
		sps[i] = sp
	}
	best := -1
	bestWorst := math.Inf(1)
	for id, node := range st.c.nodes {
		if node.Kind != KindSatellite || !st.Active[id] {
			continue
		}
		worst := 0.0
		for _, sp := range sps {
			if d := sp.Dist[id]; d > worst {
				worst = d
			}
		}
		if worst < bestWorst {
			bestWorst = worst
			best = id
		}
	}
	if best < 0 {
		return 0, 0, fmt.Errorf("constellation: no active satellite reachable from all clients")
	}
	return best, bestWorst, nil
}

// LinkBandwidth returns the bandwidth in kbps of the direct link between
// two nodes, or ok=false when no such link exists in this snapshot. Only a
// link's existence is per-snapshot state, and the graph's CSR image holds
// it; its capacity is a configuration constant of the satellite's shell.
func (st *State) LinkBandwidth(a, b int) (float64, bool) {
	if a > b {
		a, b = b, a
	}
	if !st.g.FrozenHasEdge(a, b) {
		return 0, false
	}
	// Satellites are numbered before ground stations and no link joins two
	// stations, so a is the satellite whose shell sets the capacity.
	net := &st.c.cfg.Shells[st.c.nodes[a].Shell].Network
	if st.c.nodes[b].Kind == KindGroundStation {
		return net.GSTBandwidthKbps, true
	}
	return net.BandwidthKbps, true
}

// PathBandwidth returns the bottleneck bandwidth in kbps along the
// shortest path between two nodes, or ok=false when they are not
// connected. A zero bandwidth means unlimited.
func (st *State) PathBandwidth(a, b int) (float64, bool) {
	_, path, err := st.route(a, b, true)
	if err != nil || path == nil {
		return 0, false
	}
	bottleneck := math.Inf(1)
	for i := 0; i+1 < len(path); i++ {
		kbps, ok := st.LinkBandwidth(path[i], path[i+1])
		if !ok {
			return 0, false
		}
		if kbps > 0 && kbps < bottleneck {
			bottleneck = kbps
		}
	}
	if math.IsInf(bottleneck, 1) {
		return 0, true // all links unlimited
	}
	return bottleneck, true
}
