package vnet

import (
	"errors"
	"fmt"
	"math"
	"time"

	"celestial/internal/netem"
	"celestial/internal/retry"
	"celestial/internal/rng"
)

// PathInfo describes the current network path between two nodes as the
// Constellation Calculation computed it.
type PathInfo struct {
	// LatencyS is the one-way end-to-end propagation latency in seconds.
	LatencyS float64
	// BandwidthKbps is the bottleneck bandwidth along the path.
	BandwidthKbps float64
	// OK is false when the nodes are currently not connected.
	OK bool
}

// Topology supplies per-pair path information and per-node activity. The
// coordinator swaps implementations on every update interval.
type Topology interface {
	// PathInfo returns the current path characteristics between two
	// nodes in the constellation-wide numbering.
	PathInfo(a, b int) PathInfo
	// NodeActive reports whether a node's machine is active (suspended
	// machines can neither send nor receive).
	NodeActive(id int) bool
}

// Message is one datagram delivered through the virtual network.
type Message struct {
	From, To  int
	SizeBytes int
	Payload   any
	// Tag is an unboxed payload for senders whose message is a few
	// integers (see SendTag); the network delivers it unchanged.
	Tag    uint64
	SentAt time.Time
	// DeliveredAt is filled in on delivery.
	DeliveredAt time.Time
	// Corrupted marks netem payload corruption.
	Corrupted bool
}

// Latency returns the end-to-end delay this message experienced.
func (m Message) Latency() time.Duration { return m.DeliveredAt.Sub(m.SentAt) }

// Handler consumes messages delivered to a node.
type Handler func(Message)

// Send errors.
var (
	// ErrUnreachable is returned when no path exists between the nodes.
	ErrUnreachable = errors.New("vnet: destination unreachable")
	// ErrSuspended is returned when either endpoint's machine is
	// suspended or otherwise inactive.
	ErrSuspended = errors.New("vnet: machine suspended")
	// ErrNoHandler is returned when the destination has no registered
	// handler.
	ErrNoHandler = errors.New("vnet: destination has no handler")
)

// node is what the network keeps per node: the registered handler (nil
// while unregistered) and the link state of every directed pair the node
// has sent on, by destination. A node exists once it was passed to Handle
// or was the source of a Send, whatever its ID.
type node struct {
	handler Handler
	out     map[int]*pairState
}

// pairState is the cached per-directed-pair link state: the pair's ends,
// the destination node (so a Send reaches its handler without a lookup),
// the shaper (nil while the pair has never been reachable) and the topology
// version its parameters were refreshed at. ok caches reachability for
// that version.
type pairState struct {
	from, to int
	dst      *node
	shaper   *netem.Shaper
	version  uint64
	ok       bool
}

// Network delivers messages between emulated machines with the delays and
// bandwidth constraints of the current topology. It must be driven from
// the simulation goroutine.
//
// Per-pair shaper parameters are refreshed lazily and version-gated: a
// Send only consults the topology (a shortest-path lookup) and calls
// Shaper.Update when the topology version changed since the pair's last
// refresh. The coordinator bumps the version exactly when a constellation
// diff is non-empty, so during sub-quantum ticks — where the emulated
// network is provably unchanged — messages flow without recomputing or
// revalidating any link parameters, the vnet half of the paper's
// "distribute only the difference between consecutive states" design.
type Network struct {
	sim  *Sim
	topo Topology
	// nodes by ID; per directed pair link state hangs off its source, and
	// pairs holds the same states in the order they were created.
	nodes map[int]*node
	pairs []*pairState
	// impair is added on top of topology delay/bandwidth (loss etc.).
	impair netem.Params
	// bwCapKbps, when positive, clamps every path's bandwidth below the
	// topology's value (scripted capacity degradation).
	bwCapKbps float64
	seed      int64
	// version is the topology epoch; pairs refresh when behind it.
	version uint64

	// delivered counts messages handed to handlers; dropped counts
	// loss-model drops.
	delivered uint64
	dropped   uint64

	// shaperOps is the retry middleware around shaper programming (see
	// ShaperOps), driven from the simulation goroutine like the rest of
	// the network.
	shaperOps *retry.Guard
}

// NewNetwork creates a network driven by sim. The seed makes the loss and
// jitter models reproducible.
func NewNetwork(sim *Sim, topo Topology, seed int64) *Network {
	return &Network{
		sim:     sim,
		topo:    topo,
		nodes:   map[int]*node{},
		seed:    seed,
		version: 1,

		shaperOps: retry.NewGuard("injected shaper fault"),
	}
}

// InvalidatePaths marks every cached per-pair path stale: the next Send on
// each pair re-reads the topology and updates its shaper. Call it when the
// current Topology's answers changed behind the network's back — the
// coordinator does so once per update tick whose constellation diff is
// non-empty, and skips it otherwise.
func (n *Network) InvalidatePaths() { n.version++ }

// InvalidatePairsIf marks only the cached pairs matching pred stale, by
// resetting their pair version (the epoch counter starts at 1, so 0 is
// never current). Unlike InvalidatePaths it does not start a new topology
// epoch: pairs outside pred keep their state, including any staleness
// from earlier scoped invalidations. The fan-out tier uses it to refresh
// one host shard's shapers without forcing every other shard's pairs to
// re-read the topology. pred sees the pairs in the order they were
// created.
func (n *Network) InvalidatePairsIf(pred func(from, to int) bool) {
	for _, ps := range n.pairs {
		if pred(ps.from, ps.to) {
			ps.version = 0
		}
	}
}

// SetImpairments configures additional netem impairments (loss,
// duplication, corruption, reordering, jitter) applied to every message on
// top of the topology's delay and bandwidth.
func (n *Network) SetImpairments(p netem.Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	n.impair = p
	// Invalidate so existing shapers pick the new impairments up on
	// their next Send.
	n.InvalidatePaths()
	return nil
}

// SetSeed rebases the deterministic per-directed-pair seeds of the loss,
// jitter and reordering models (e.g. to a scenario's run seed). It must be
// called before any traffic flows: shapers already created keep the seed
// they were built with.
func (n *Network) SetSeed(seed int64) { n.seed = seed }

// SetBandwidthCap clamps the bandwidth of every path to at most kbps on
// top of the topology's bottleneck value; zero removes the cap. Scenario
// timelines use this to script capacity degradation (e.g. weather fade on
// radio links) without touching the constellation.
func (n *Network) SetBandwidthCap(kbps float64) error {
	if kbps < 0 {
		return fmt.Errorf("vnet: negative bandwidth cap %v", kbps)
	}
	n.bwCapKbps = kbps
	n.InvalidatePaths()
	return nil
}

// ShaperOps returns the retry middleware per-pair shaper programming
// (creation and parameter updates in refresh) runs through — where a caller
// sets the retry policy, injects seeded transient faults and reads the
// retry counters.
func (n *Network) ShaperOps() *retry.Guard { return n.shaperOps }

// Handle registers the message handler of a node, replacing any previous
// one. A nil handler unregisters the node: sending to it fails with
// ErrNoHandler.
func (n *Network) Handle(id int, h Handler) { n.node(id).handler = h }

// node returns the state of a node, creating it on first use.
func (n *Network) node(id int) *node {
	nd := n.nodes[id]
	if nd == nil {
		nd = &node{}
		n.nodes[id] = nd
	}
	return nd
}

// Stats returns how many messages were delivered and dropped so far.
func (n *Network) Stats() (delivered, dropped uint64) { return n.delivered, n.dropped }

// Send transmits a message from one node to another. The message
// experiences the path's propagation delay plus serialization at the
// bottleneck bandwidth; the registered handler of the destination runs at
// the delivery time. Send must be called from the simulation goroutine.
func (n *Network) Send(from, to int, sizeBytes int, payload any) error {
	return n.send(from, to, sizeBytes, payload, 0)
}

// SendTag is Send with the message's Tag as its payload instead: a sender
// whose message fits one word passes it without boxing it into an any.
func (n *Network) SendTag(from, to int, sizeBytes int, tag uint64) error {
	return n.send(from, to, sizeBytes, nil, tag)
}

// send is the one body of Send and SendTag.
func (n *Network) send(from, to int, sizeBytes int, payload any, tag uint64) error {
	if from == to {
		return fmt.Errorf("vnet: cannot send from node %d to itself", from)
	}
	if sizeBytes < 0 {
		return fmt.Errorf("vnet: negative message size %d", sizeBytes)
	}
	if !n.topo.NodeActive(from) || !n.topo.NodeActive(to) {
		return fmt.Errorf("%w: %d -> %d", ErrSuspended, from, to)
	}
	ps, err := n.pair(from, to)
	if err != nil {
		return err
	}
	if !ps.ok {
		return fmt.Errorf("%w: %d -> %d", ErrUnreachable, from, to)
	}
	now := n.sim.Now()
	tx := ps.shaper.Transmit(now, sizeBytes)
	if tx.Lost() {
		n.dropped++
		return nil // loss is silent, like the real network
	}
	for _, at := range tx.Arrivals() {
		// The handler is the one registered now, at send time.
		if err := n.sim.deliver(delivery{handler: ps.dst.handler, net: n, msg: Message{
			From: from, To: to, SizeBytes: sizeBytes, Payload: payload, Tag: tag,
			SentAt: now, DeliveredAt: at, Corrupted: tx.Corrupted,
		}}); err != nil {
			return fmt.Errorf("vnet: scheduling delivery: %w", err)
		}
	}
	return nil
}

// pair returns the link state of a directed pair whose destination has a
// handler (ErrNoHandler otherwise, before the topology is consulted),
// refreshed when it is behind the current topology version. The state is
// created on the first Send.
func (n *Network) pair(from, to int) (*pairState, error) {
	src := n.node(from)
	ps := src.out[to]
	if ps == nil {
		dst := n.nodes[to]
		if dst == nil || dst.handler == nil {
			return nil, fmt.Errorf("%w: node %d", ErrNoHandler, to)
		}
		if src.out == nil {
			src.out = map[int]*pairState{}
		}
		ps = &pairState{from: from, to: to, dst: dst}
		src.out[to] = ps
		n.pairs = append(n.pairs, ps)
	} else if ps.dst.handler == nil {
		return nil, fmt.Errorf("%w: node %d", ErrNoHandler, to)
	}
	if ps.version != n.version {
		if err := n.refresh(ps, from, to); err != nil {
			return nil, err
		}
	}
	return ps, nil
}

// refresh re-reads the pair's path from the topology: reachability is
// re-read, and the shaper parameters updated only when they actually
// changed. Send skips it while the pair is at the current version.
func (n *Network) refresh(ps *pairState, from, to int) error {
	pi := n.topo.PathInfo(from, to)
	if !pi.OK || math.IsInf(pi.LatencyS, 1) {
		ps.ok = false
		ps.version = n.version
		return nil
	}
	params := n.impair
	params.Delay = netem.QuantizeDelay(time.Duration(pi.LatencyS * float64(time.Second)))
	params.BandwidthKbps = pi.BandwidthKbps
	if n.bwCapKbps > 0 && (params.BandwidthKbps == 0 || params.BandwidthKbps > n.bwCapKbps) {
		params.BandwidthKbps = n.bwCapKbps
	}
	if ps.shaper == nil {
		// Distinct deterministic stream per directed pair, stable across
		// reachability changes; its label lies above the runner's ranges.
		seed := rng.Derive(n.seed, 1<<62|uint64(from)<<31|uint64(to))
		if err := n.shaperOps.Do(func() error {
			s, err := netem.NewShaper(params, seed)
			if err != nil {
				return err
			}
			ps.shaper = s
			return nil
		}); err != nil {
			return err
		}
	} else if params != ps.shaper.Params() {
		if err := n.shaperOps.Do(func() error { return ps.shaper.Update(params) }); err != nil {
			return err
		}
	}
	ps.ok = true
	ps.version = n.version
	return nil
}

// StaticTopology is a fixed Topology, useful for tests and for modeling
// plain host networks.
type StaticTopology struct {
	// Latency[a][b] in seconds; missing pairs are unreachable.
	Latency map[int]map[int]float64
	// BandwidthKbps applies to all pairs; zero means unlimited.
	BandwidthKbps float64
	// Inactive marks suspended nodes.
	Inactive map[int]bool
}

// PathInfo implements Topology.
func (s StaticTopology) PathInfo(a, b int) PathInfo {
	row, ok := s.Latency[a]
	if !ok {
		return PathInfo{}
	}
	l, ok := row[b]
	if !ok {
		return PathInfo{}
	}
	return PathInfo{LatencyS: l, BandwidthKbps: s.BandwidthKbps, OK: true}
}

// NodeActive implements Topology.
func (s StaticTopology) NodeActive(id int) bool { return !s.Inactive[id] }
