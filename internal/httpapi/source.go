package httpapi

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"celestial/internal/constellation"
	"celestial/internal/coordinator"
	"celestial/internal/difflog"
	"celestial/internal/geom"
	"celestial/internal/netem"
	"celestial/internal/vnet"
)

// Source is the narrow read model the information-service route table is
// built against: what the coordinator provides in-process, and what a read
// replica (internal/readpath) reconstructs by following the coordinator's
// /diff stream. Serving through this interface instead of
// *coordinator.Coordinator is what lets replicas and the coordinator share
// one RegisterRoutes entry point — and one set of handler semantics.
//
// Document builders return the complete serialized JSON document (error
// envelope included) plus its HTTP status; only 200 documents are cached
// by the server. Path parameters are passed through raw: parsing and
// validation are the source's job, so a replica can proxy them verbatim
// and serve the upstream's exact bytes.
type Source interface {
	// Generation is the monotonic snapshot generation, the /diff cursor.
	Generation() uint64
	// TopologyVersion is the generation of the last non-empty diff — the
	// cache version for node- and path-derived documents.
	TopologyVersion() uint64
	// UpdateChan returns a channel closed on the next update, waking
	// long-polls and streams.
	UpdateChan() <-chan struct{}

	InfoDoc() ([]byte, int)
	ShellDoc(shell string) ([]byte, int)
	SatDoc(shell, sat string) ([]byte, int)
	GSTDoc(name string) ([]byte, int)
	PathDoc(source, target string) ([]byte, int)

	// Frames returns the shared per-generation frames for every retained
	// generation in (since, Generation()], oldest first. ok=false means
	// the cursor fell off the retention window (or sits in the future)
	// and the client must resync from full state.
	Frames(since uint64) ([]*Frame, bool)
}

// errDoc builds a serialized error document, mirroring writeError.
func errDoc(status int, format string, args ...any) ([]byte, int) {
	return marshalDoc(apiError{Error: fmt.Sprintf(format, args...)}), status
}

// CoordinatorSource adapts a coordinator to the Source interface: the
// document builders that used to live in the HTTP handlers, plus a frame
// mirror of the coordinator's generation log that serializes each
// retained diff once for all of its subscribers.
type CoordinatorSource struct {
	c *coordinator.Coordinator
	// misses counts the subscribers Frames sent back to full state. The
	// mirror answers them without asking the coordinator, so /agents adds
	// them to the ring's forced resyncs.
	misses atomic.Uint64

	// mu guards the mirror: frames holds the serialized frames of the
	// coordinator's window, and seen is the coordinator's wake channel as
	// of the last pull. While the coordinator still hands out that channel
	// nothing was appended and the mirror is current.
	mu     sync.Mutex
	frames *difflog.Log[*Frame]
	seen   <-chan struct{}
}

// NewCoordinatorSource wraps a coordinator as a route-table Source.
func NewCoordinatorSource(c *coordinator.Coordinator) *CoordinatorSource {
	return &CoordinatorSource{c: c, frames: difflog.New[*Frame](c.RingStats().Capacity)}
}

func (cs *CoordinatorSource) Generation() uint64          { return cs.c.Generation() }
func (cs *CoordinatorSource) TopologyVersion() uint64     { return cs.c.TopologyVersion() }
func (cs *CoordinatorSource) UpdateChan() <-chan struct{} { return cs.c.UpdateChan() }

func (cs *CoordinatorSource) InfoDoc() ([]byte, int) {
	// Lease the state and its generation atomically: the document embeds
	// the generation, so its label and content must come from the same
	// snapshot even when an update races the lease (the document may then
	// be fresher than its cache key — safe — but never self-inconsistent).
	st, stGen, release := cs.c.LeaseStateGen()
	defer release()
	if st == nil {
		return errDoc(503, "no constellation state yet")
	}
	cons := cs.c.Constellation()
	info := Info{
		T:          st.T,
		Generation: stGen,
		Nodes:      cons.NodeCount(),
	}
	for i := range cons.Shells() {
		info.Shells = append(info.Shells, cs.buildShell(i))
	}
	for _, g := range cons.GroundStations() {
		info.GroundStations = append(info.GroundStations, g.Name)
	}
	return marshalDoc(info), 200
}

// buildShell assembles one shell's document from the (immutable)
// configuration. The index must be valid.
func (cs *CoordinatorSource) buildShell(idx int) ShellInfo {
	cfg := cs.c.Constellation().Shells()[idx].Config()
	return ShellInfo{
		ID: idx, Name: cfg.Name, Planes: cfg.Planes,
		SatsPerPlane: cfg.SatsPerPlane, Satellites: cfg.Size(),
		AltitudeKm: cfg.AltitudeKm, InclinationDeg: cfg.InclinationDeg,
		ArcDeg: cfg.ArcDeg,
	}
}

func (cs *CoordinatorSource) ShellDoc(shell string) ([]byte, int) {
	idx, ok := vnet.ParseIndex(shell)
	if !ok {
		return errDoc(400, "bad shell index %q", shell)
	}
	if idx < 0 || idx >= len(cs.c.Constellation().Shells()) {
		return errDoc(404, "shell %d does not exist", idx)
	}
	return marshalDoc(cs.buildShell(idx)), 200
}

// state leases the current snapshot; nil means no update ran yet (503).
func (cs *CoordinatorSource) state() (*constellation.State, func()) {
	return cs.c.LeaseState()
}

func (cs *CoordinatorSource) SatDoc(shellParam, satParam string) ([]byte, int) {
	// The same strict index parsing as /path node references: the two
	// endpoint families must agree on what a valid reference is (and lax
	// alias spellings like "+5" must not multiply cache keys).
	shell, ok1 := vnet.ParseIndex(shellParam)
	sat, ok2 := vnet.ParseIndex(satParam)
	if !ok1 || !ok2 {
		return errDoc(400, "bad satellite path %q/%q", shellParam, satParam)
	}
	cons := cs.c.Constellation()
	id, err := cons.SatNode(shell, sat)
	if err != nil {
		return errDoc(404, "%v", err)
	}
	st, release := cs.state()
	defer release()
	if st == nil {
		return errDoc(503, "no constellation state yet")
	}
	ip, err := vnet.SatIP(shell, sat)
	if err != nil {
		return errDoc(500, "%v", err)
	}
	pos := st.Positions[id]
	ll := geom.ToGeodetic(pos)
	return marshalDoc(SatInfo{
		Shell: shell, Sat: sat, Name: vnet.SatName(shell, sat), IP: ip.String(),
		Position: Position{X: pos.X, Y: pos.Y, Z: pos.Z},
		LatDeg:   ll.LatDeg, LonDeg: ll.LonDeg, AltKm: ll.AltKm,
		Active: st.Active[id],
	}), 200
}

func (cs *CoordinatorSource) GSTDoc(name string) ([]byte, int) {
	cons := cs.c.Constellation()
	id, err := cons.GSTNodeByName(name)
	if err != nil {
		return errDoc(404, "%v", err)
	}
	st, release := cs.state()
	defer release()
	if st == nil {
		return errDoc(503, "no constellation state yet")
	}
	node, err := cons.Node(id)
	if err != nil {
		return errDoc(500, "%v", err)
	}
	ip, err := vnet.GSTIP(node.Sat)
	if err != nil {
		return errDoc(500, "%v", err)
	}
	pos := st.Positions[id]
	ll := geom.ToGeodetic(pos)
	resp := GSTInfo{
		Name: name, IP: ip.String(),
		Position: Position{X: pos.X, Y: pos.Y, Z: pos.Z},
		LatDeg:   ll.LatDeg, LonDeg: ll.LonDeg,
	}
	for si := range cons.Shells() {
		ups, err := st.Uplinks(node.Sat, si)
		if err != nil || len(ups) == 0 {
			continue
		}
		up := ups[0]
		resp.Uplinks = append(resp.Uplinks, UplinkInfo{
			Shell: si, Sat: up.Sat, DistanceKm: up.DistanceKm,
			ElevationDeg: up.ElevationDeg,
			// Quantized like every realized link delay, so this agrees
			// with the first /path segment over the same uplink.
			LatencyMs: netem.QuantizeLatency(geom.PropagationDelay(up.DistanceKm)) * 1000,
		})
	}
	return marshalDoc(resp), 200
}

func (cs *CoordinatorSource) PathDoc(source, target string) ([]byte, int) {
	src, err := cs.c.Constellation().NodeByRef(source)
	if err != nil {
		return errDoc(404, "%v", err)
	}
	dst, err := cs.c.Constellation().NodeByRef(target)
	if err != nil {
		return errDoc(404, "%v", err)
	}
	st, release := cs.state()
	defer release()
	if st == nil {
		return errDoc(503, "no constellation state yet")
	}
	// Latency, path and bandwidth are three reads of one pair: the first
	// searches it (or reads the source's tree, when the state keeps one),
	// the other two hit the state's path cache, and the tick pipeline
	// carries the pair to later states while it is read, so steady-state
	// queries never pay a full Dijkstra run here.
	lat, err := st.Latency(src, dst)
	if err != nil {
		return errDoc(500, "%v", err)
	}
	if math.IsInf(lat, 1) {
		return errDoc(404, "no path between %s and %s", source, target)
	}
	path, err := st.Path(src, dst)
	if err != nil {
		return errDoc(500, "%v", err)
	}
	bw, _ := st.PathBandwidth(src, dst)
	cons := cs.c.Constellation()
	resp := PathResponse{
		Source: source, Target: target,
		LatencyMs: lat * 1000, BandwidthKbps: bw,
	}
	for i := 0; i+1 < len(path); i++ {
		a, errA := cons.Node(path[i])
		b, errB := cons.Node(path[i+1])
		if errA != nil || errB != nil {
			return errDoc(500, "resolving path nodes")
		}
		// Per-segment latency as the emulation realizes it: link delays
		// are quantized to the netem granularity, so quantized segments
		// sum exactly to the reported end-to-end latency.
		d := st.Positions[path[i]].Distance(st.Positions[path[i+1]])
		resp.Segments = append(resp.Segments, PathSegment{
			From: a.Name, To: b.Name, DistanceKm: d,
			LatencyMs: netem.QuantizeLatency(geom.PropagationDelay(d)) * 1000,
		})
	}
	return marshalDoc(resp), 200
}

// Frames returns the shared frames after since. Each retained generation
// is converted and serialized exactly once, and every long-poll, SSE and
// binary-stream subscriber shares the same buffers.
//
// The mirror is brought up to the coordinator's log by the first call
// after an update. When its own cursor fell off the log's window (no /diff
// consumer for longer than the log retains) it rebases onto the current
// window instead of failing — a quiet spell with no subscribers must not
// force later clients to resync. Frames are built after DiffsFrom has
// returned, outside the coordinator's lock: serializing a Gen2 diff takes
// milliseconds and must not hold up the next update.
func (cs *CoordinatorSource) Frames(since uint64) ([]*Frame, bool) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	// The channel is read before the pull: an update that lands after the
	// read is either in the pull or leaves seen behind the coordinator, to
	// be pulled next time — never ahead of it.
	if ch := cs.c.UpdateChan(); ch != cs.seen {
		recs, from := cs.c.DiffsFrom(cs.frames.Head())
		if from != cs.frames.Head() {
			cs.frames.Reset(from)
		}
		for i := range recs {
			f := BuildFrame(recs[i].Generation, &recs[i].Diff)
			*cs.frames.Append(f.Generation) = f
		}
		cs.seen = ch
	}
	frames, ok := cs.frames.Since(since)
	if !ok {
		cs.misses.Add(1)
	}
	return frames, ok
}
