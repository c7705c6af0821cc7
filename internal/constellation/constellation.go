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
	"iter"
	"math"
	"runtime"
	"sync"

	"celestial/internal/bbox"
	"celestial/internal/config"
	"celestial/internal/geom"
	"celestial/internal/graph"
	"celestial/internal/netem"
	"celestial/internal/orbit"
	"celestial/internal/par"
	"celestial/internal/paths"
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
	// transit is the forwarding predicate of every shortest-path
	// computation: ground stations are endpoints of the satellite network,
	// not routers. The numbering puts all satellites before all ground
	// stations, so it is a compare against the satellite count — it runs
	// once per queue pop on the Dijkstra hot path — and it is built once.
	transit func(node int) bool
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
	sats := len(c.nodes) - len(c.gst)
	c.transit = func(node int) bool { return node < sats }
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

// State is one topology snapshot: node positions, available links and
// lazily computed shortest paths. A State is immutable once computed and
// safe for concurrent use. A State obtained from a SnapshotPool lives while
// someone holds it (Snapshot, Hold) or it is the pool's last snapshot; its
// buffers are reused after that, see SnapshotPool.
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

	c *Constellation
	g graph.Graph

	// holds counts the holders of a pooled state, guarded by the pool's
	// mu (see SnapshotPool).
	holds int

	// paths is the shortest-path cache of the scenario's reads; outside
	// holds the reads from outside the scenario (OutsidePath), so that
	// they never add to what the scenario's cache holds or carries, nor to
	// the diff's path counters.
	paths, outside paths.Cache

	// uplinks[gi] are the per-ground-station candidate uplinks,
	// one slice per shell.
	uplinks [][][]topo.Uplink

	// The link fingerprint, recorded during assembly: the state's one
	// record of its links, which the diff compares against the previous
	// tick's and Links derives the link list from. islQ holds the delay
	// quantum per planned ISL, -1 when infeasible, and islLinks counts the
	// feasible ones; gslSat/gslQ hold the realized uplinks' satellite node
	// IDs and delay quanta in closest-first order, with gslOff delimiting
	// the (station, shell) runs at index gi*shells+si.
	islQ     []int32
	islLinks int
	gslSat   []int32
	gslQ     []int32
	gslOff   []int32

	// diff is how this snapshot differs from the previous pooled one.
	diff Diff

	// Snapshot-generation arenas: the activity flags and the many small
	// per-(station, shell) uplink slices are carved from chunks rewound as
	// a unit when the state's buffers are recomputed. Carving happens
	// sequentially in reset, each uplink slice sized by the most its
	// (station, shell) held in any generation (upCap); the visibility phase
	// then appends within carved capacity, falling back to the heap on the
	// rare overflow.
	boolArena arena[bool]
	upArena   arena[topo.Uplink]
	upCap     []int32
}

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
// count, on a visibility index of its own, and materializes its graph; it
// has no base to diff against.
func (c *Constellation) snapshotFresh(t float64, workers int) (*State, error) {
	st, err := c.snapshotInto(new(State), t, workers, make([]topo.VisIndex, len(c.shells)))
	if err != nil {
		return nil, err
	}
	st.rebuildGraph()
	st.diffLinksFrom(nil)
	return st, nil
}

// snapshotInto (re)computes the state for offset t into st, reusing any
// buffers st already holds, with the given worker count and vis, one
// visibility index per shell, which it updates to this tick's positions.
// The pipeline has four parallel phases — per-satellite propagation, ISL
// assembly, per-station visibility, GSL assembly — each writing to
// disjoint pre-sized buffers, which keeps the result independent of the
// worker count and of what vis indexed before.
//
// The latency graph is not touched: the caller materializes it afterwards
// — the pooled path by cloning and patching the previous tick's CSR image
// when the diff allows, everyone else by building it from the links
// (State.rebuildGraph) — so the steady-state tick skips the O(N+M) build
// entirely.
func (c *Constellation) snapshotInto(st *State, t float64, workers int, vis []topo.VisIndex) (*State, error) {
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

	// Phase 2: ISLs, one pass per shell over its static +GRID plan
	// (precomputed in New as global-ID edge arrays). Each edge runs the
	// line-of-sight test, whose chord is the link length (topo.Feasible),
	// and records the link's delay quantum in islQ, or -1 when the link is
	// infeasible. Realized latencies are quantized to the netem emulation
	// granularity: the emulated network cannot distinguish sub-quantum
	// differences, and quantizing here makes adjacent ticks' graphs
	// bit-identical whenever no link moved by a full quantum — the
	// foundation of the diff engine and the path-cache carry-over. Each
	// chunk folds its least ratio of realized delay to length into the pair
	// searches' heuristic scale, and its ISL count into the total.
	planTotal := 0
	for _, edges := range c.edges {
		planTotal += len(edges)
	}
	st.islQ = resize(st.islQ, planTotal)
	var fold assemblyFold
	fold.least = math.Inf(1)
	off := 0
	for si, edges := range c.edges {
		cutoff := c.cfg.Shells[si].Network.AtmosphereCutoffKm
		islQ := st.islQ[off : off+len(edges)]
		par.ForWorkers(len(edges), workers, func(lo, hi int) {
			r, isls := math.Inf(1), 0
			for i := lo; i < hi; i++ {
				d, ok := topo.Feasible(st.Positions[edges[i].a], st.Positions[edges[i].b], cutoff)
				if !ok {
					islQ[i] = -1
					continue
				}
				q := delayQuanta(d)
				islQ[i] = q
				r = lessRatio(r, quantumSeconds(q), d)
				isls++
			}
			fold.fold(r, isls)
		})
		off += len(edges)
	}

	// Phase 3: ground-station visibility, one task per station (each
	// writes only its own uplink buffers, carved in reset). A per-shell
	// spatial index over the satellites' ground-track cells, shared by all
	// stations, replaces the brute-force O(G×S) elevation scan; each
	// station only tests satellites whose cell can clear its elevation
	// mask. The index is updated incrementally — only satellites that
	// crossed a grid-cell boundary since the index's previous positions
	// re-bucket; Update falls back to a full build on a cold or mismatched
	// index. Query results are identical to the exhaustive scan either way
	// (see topo.VisIndex), so the index never changes the computed state.
	if len(c.gst) > 0 {
		for si, sh := range c.shells {
			shellPos := st.Positions[c.base[si] : c.base[si]+sh.Size()]
			vis[si].Update(shellPos, c.visCell[si], workers)
		}
	}
	par.ForWorkers(len(c.gst), workers, func(glo, ghi int) {
		for gi := glo; gi < ghi; gi++ {
			for si := range c.shells {
				minElev := c.cfg.Shells[si].Network.MinElevationDeg
				st.uplinks[gi][si] = vis[si].VisibleInto(
					c.gstPos[gi], minElev, st.uplinks[gi][si])
			}
		}
	})

	// GSL assembly. The uplink counts fix every (station, shell) run's
	// offset in the fingerprint (station-major, then shell, closest first)
	// before a single uplink is recorded, so the stations are written in
	// parallel, each into its own runs: the fingerprint is the one a
	// sequential pass produces, whatever the worker count.
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
	par.ForWorkers(len(c.gst), workers, func(glo, ghi int) {
		r := math.Inf(1)
		for gi := glo; gi < ghi; gi++ {
			for si := range c.shells {
				at := int(st.gslOff[gi*len(c.shells)+si])
				for _, up := range st.realizedUplinks(gi, si) {
					q := delayQuanta(up.DistanceKm)
					st.gslSat[at], st.gslQ[at] = int32(c.base[si]+up.Sat), q
					r = lessRatio(r, quantumSeconds(q), up.DistanceKm)
					at++
				}
			}
		}
		fold.fold(r, 0)
	})
	st.islLinks = fold.isls
	// The path caches start empty on the state's graph, which the caller
	// materializes before the first read or carry.
	h := graph.Heuristic{Pos: st.Positions, Scale: graph.HeuristicScale(fold.least)}
	st.paths.Reset(&st.g, c.transit, h)
	st.outside.Reset(&st.g, c.transit, h)
	return st, nil
}

// assemblyFold gathers what link assembly's parallel chunks find: the
// least ratio of a link's realized delay to its length, and the number of
// realized ISLs. Neither a minimum nor a sum depends on the order the
// chunks fold in, so both are the same for any worker count.
type assemblyFold struct {
	mu    sync.Mutex
	least float64
	isls  int
}

// fold lowers the minimum to r if r is smaller and adds isls to the count.
func (f *assemblyFold) fold(r float64, isls int) {
	f.mu.Lock()
	f.least = lessRatio(f.least, r, 1)
	f.isls += isls
	f.mu.Unlock()
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

// delayQuanta returns the delay of a link of the given length in netem
// delay quanta: its propagation delay at c, rounded to the emulation
// granularity.
func delayQuanta(distKm float64) int32 {
	return int32(netem.LatencyQuanta(geom.PropagationDelay(distKm)))
}

// quantumSeconds returns q delay quanta in seconds, a realized link's
// latency.
func quantumSeconds(q int32) float64 { return float64(q) * netem.DelayQuantumSeconds }

// Links yields every link of the state with its delay in netem delay
// quanta (LatencyS is quanta × netem.DelayQuantumSeconds): the ISLs in plan
// order, shell by shell, then each station's uplinks, stations ascending,
// shell by shell, closest first. It is a view of the link fingerprint the
// diff compares; a state stores nothing per link beyond it.
func (st *State) Links() iter.Seq2[topo.Link, int32] {
	return func(yield func(topo.Link, int32) bool) {
		off := 0
		for _, edges := range st.c.edges {
			for i, e := range edges {
				q := st.islQ[off+i]
				if q >= 0 && !yield(topo.Link{Kind: topo.KindISL, A: e.a, B: e.b, LatencyS: quantumSeconds(q)}, q) {
					return
				}
			}
			off += len(edges)
		}
		shells := len(st.c.shells)
		gstBase := len(st.Positions) - len(st.c.gst)
		for gi := range st.c.gst {
			for k := st.gslOff[gi*shells]; k < st.gslOff[(gi+1)*shells]; k++ {
				q := st.gslQ[k]
				if !yield(topo.Link{Kind: topo.KindGSL, A: gstBase + gi, B: int(st.gslSat[k]), LatencyS: quantumSeconds(q)}, q) {
					return
				}
			}
		}
	}
}

// LinkCount returns the number of links Links yields.
func (st *State) LinkCount() int { return st.islLinks + len(st.gslSat) }

// rebuildGraph builds the snapshot's latency graph from its links before
// the state is published, through a list that lives for the call. Plan
// edges were validated when the constellation was built, so Build takes
// them unchecked. It serves unpooled snapshots and the cold-start and
// fallback path of the pooled flow; steady-state ticks clone-and-patch the
// previous image instead.
func (st *State) rebuildGraph() {
	links := make([]topo.Link, 0, st.LinkCount())
	for l := range st.Links() {
		links = append(links, l)
	}
	st.g.Build(len(st.Positions), len(links), func(i int) (int, int, float64) {
		l := &links[i]
		return l.A, l.B, l.LatencyS
	})
}

// reset prepares st's buffers for recomputation with n nodes, keeping
// backing arrays so recycled snapshots allocate nothing in steady state.
// The activity flags and per-(station, shell) uplink slices are carved from
// the state's generation arenas, rewound here, so they occupy a chunk or two
// instead of hundreds of individually grown slices. Carving is sequential
// (the arenas are not locked); the parallel phases only append within
// carved capacity.
func (st *State) reset(c *Constellation, t float64, n int) {
	st.T = t
	st.c = c
	st.Positions = resize(st.Positions, n)

	// Record the previous generation's uplink counts before rewinding,
	// then carve this generation's buffers with a little headroom; a
	// buffer that outgrows its carve falls back to a heap append and the
	// next generation adapts.
	st.upCap = resize(st.upCap, len(c.gst)*len(c.shells))
	st.uplinks = resize(st.uplinks, len(c.gst))
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
	st.boolArena.rewind()
	st.upArena.rewind()
	st.Active = st.boolArena.carve(n, n)
	clear(st.Active)
	for gi := range st.uplinks {
		for si := range st.uplinks[gi] {
			k := gi*len(c.shells) + si
			st.uplinks[gi][si] = st.upArena.carve(0, int(st.upCap[k])+4)
		}
	}
}

// resize returns s with length n, reusing its backing array when possible.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// checkNode rejects a node ID outside the constellation.
func (st *State) checkNode(a int) error {
	if a < 0 || a >= len(st.c.nodes) {
		return fmt.Errorf("constellation: node %d out of range [0, %d)", a, len(st.c.nodes))
	}
	return nil
}

// route answers a pair read from one of the state's path caches
// (paths.Cache.Route): the shortest distance from a to b and, with
// withPath, the path, owned by the cache.
func (st *State) route(cache *paths.Cache, a, b int, withPath bool) (float64, []int, error) {
	if err := st.checkNode(a); err != nil {
		return 0, nil, err
	}
	if err := st.checkNode(b); err != nil {
		return 0, nil, err
	}
	return cache.Route(a, b, withPath)
}

// Latency returns the one-way end-to-end network latency in seconds
// between two nodes, or +Inf when they are not connected. It is a pair read
// (paths.Cache.Route): the state searches the pair alone unless the source
// holds a tree, and carries the answer to the next states while it is read.
func (st *State) Latency(a, b int) (float64, error) {
	d, _, err := st.route(&st.paths, a, b, false)
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
	_, path, err := st.route(&st.paths, a, b, true)
	if err != nil || path == nil {
		return nil, err
	}
	return append([]int(nil), path...), nil
}

// OutsidePath is the pair read of a reader outside the scenario, such as
// an HTTP client: the latency between two nodes, +Inf when they are not
// connected, and a copy of a shortest path, nil then. It reads a path cache
// of its own, carried from state to state like the scenario's, so it never
// adds to what the scenario's cache holds or carries, nor to the diff's
// path counters: a run's report does not depend on who else asked.
func (st *State) OutsidePath(a, b int) (float64, []int, error) {
	d, path, err := st.route(&st.outside, a, b, true)
	if err != nil || path == nil {
		return d, nil, err
	}
	return d, append([]int(nil), path...), nil
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
		if err := st.checkNode(cl); err != nil {
			return 0, 0, err
		}
		sp, err := st.paths.Tree(cl) // a whole-tree read
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
	_, path, err := st.route(&st.paths, a, b, true)
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
