// Package coordinator implements Celestial's central coordinator: it
// computes satellite orbital paths and networking characteristics on the
// configured update interval and distributes the results to the hosts,
// which update their machines and network links accordingly (Fig. 2 of the
// paper). It also holds the central database that the per-host HTTP
// servers read satellite positions, network paths and constellation
// information from.
package coordinator

import (
	"fmt"
	"math"
	"sync"
	"time"

	"celestial/internal/config"
	"celestial/internal/constellation"
	"celestial/internal/faults"
	"celestial/internal/host"
	"celestial/internal/hostlink"
	"celestial/internal/machine"
	"celestial/internal/supervise"
	"celestial/internal/vnet"
)

// Coordinator wires the constellation calculation, the emulated hosts and
// the virtual network together and drives the periodic update loop.
type Coordinator struct {
	cfg   *config.Config
	cons  *constellation.Constellation
	sim   *vnet.Sim
	net   *vnet.Network
	hosts []*host.Host
	// byNode and hostOf map node ID to its machine and host (machines
	// never migrate hosts); the per-tick activity overlay and the
	// Machine/HostOf accessors index them instead of scanning hosts.
	byNode []*machine.Machine
	hostOf []*host.Host

	// pool recycles snapshot buffers; the coordinator double-buffers
	// through it (see update) so steady-state ticks allocate ~nothing.
	pool *constellation.SnapshotPool

	mu       sync.RWMutex
	current  *constellation.State
	prev     *constellation.State
	gen      uint64
	lastDiff constellation.DiffStats
	// topoVer is the generation of the most recent update whose diff was
	// non-empty — the version of the emulated topology as clients can
	// observe it. Empty-diff ticks advance the generation but not this.
	topoVer uint64
	// leases counts concurrent readers per state (see LeaseState);
	// retired marks states waiting for their last lease before being
	// recycled.
	leases  map[*constellation.State]int
	retired map[*constellation.State]bool

	// runErr is the first error an update in Start's loop ran into; the
	// loop stops there and Run reports it. Like wd it is only touched on
	// the simulation goroutine.
	runErr error

	// wd, when set, supervises each tick against the update interval and
	// decides its degradation level (see Options.Watchdog). It is only
	// touched from the update path on the simulation goroutine.
	wd *supervise.Watchdog

	// fo is the host fan-out tier: every tick's diff is distributed to
	// the hosts through per-shard loopback appliers (and, when agents are
	// attached, mirrored to them over TCP), and retained in the tier's
	// generation log, which the information service's /diff replay reads
	// too. It and the shard layout are built by New and never replaced:
	// shardOf maps node ID to its owning shard; shardNodes and shardHosts
	// are each shard's nodes (ID order) and hosts.
	fo         *hostlink.Fanout
	shardOf    []int
	shardNodes [][]int
	shardHosts [][]*host.Host
}

// Options are everything that shapes a coordinator's ticks beyond the
// testbed configuration. They are fixed at New: a coordinator is never
// rewired once built. The zero value is one fan-out shard per host, no
// frame faults and no watchdog.
type Options struct {
	// Fanout configures the host fan-out tier.
	Fanout FanoutOptions
	// Watchdog, when positive, is the interval every tick is budgeted
	// against (normally the testbed's update resolution): a tick projected
	// or measured to overrun walks the degradation ladder — defer path-cache
	// repair, coalesce the diff into the next tick, fall back to
	// activity-only updates — instead of silently drifting behind real
	// time. Degradations ride on each tick's diff (Diff.Degraded) and are
	// counted in the watchdog's Stats. Watchdog decisions depend on
	// wall-clock stage timings, so supervised runs trade byte-exact
	// reproducibility for bounded tick latency; leave it zero for
	// differential testing.
	Watchdog time.Duration
}

// New builds a coordinator (and its hosts, machines, network and fan-out
// tier) from a validated configuration. The simulation clock starts at the
// constellation epoch.
func New(cfg *config.Config, o Options) (*Coordinator, error) {
	cons, err := constellation.New(cfg)
	if err != nil {
		return nil, err
	}
	sim := vnet.NewSim(cfg.Epoch)
	c := &Coordinator{
		cfg: cfg, cons: cons, sim: sim,
		pool:    cons.NewSnapshotPool(),
		leases:  map[*constellation.State]int{},
		retired: map[*constellation.State]bool{},
	}
	c.net = vnet.NewNetwork(sim, stateTopology{c}, 1)
	// Fold machine health into snapshot activity: a crashed (or stopped)
	// machine's node reads as inactive, so radiation fault shutdowns and
	// scripted node outages surface as activity flips in each tick's diff
	// — the same channel bounding-box churn uses. The overlay runs once
	// per node per tick, so it indexes the dense byNode slice (filled
	// below) rather than scanning hosts.
	c.byNode = make([]*machine.Machine, cons.NodeCount())
	c.hostOf = make([]*host.Host, cons.NodeCount())
	c.pool.SetActivityOverlay(func(id int) bool {
		m := c.byNode[id]
		if m == nil {
			return true
		}
		switch m.State() {
		case machine.Failed, machine.Stopped:
			return false
		}
		return true
	})

	// Hosts: the paper uses identical cloud instances (N2-highcpu-32).
	for i := 0; i < cfg.Hosts; i++ {
		h, err := host.New(i, host.Capacity{Cores: 32, MemMiB: 32 * 1024}, sim)
		if err != nil {
			return nil, err
		}
		c.hosts = append(c.hosts, h)
	}

	// Machines: ground stations are all placed on host 0, mirroring the
	// paper's setup of scheduling all clients on the same host for
	// accurate time synchronization (§4.1); satellites are distributed
	// round-robin across all hosts.
	for _, node := range cons.Nodes() {
		var params config.ComputeParams
		var target *host.Host
		switch node.Kind {
		case constellation.KindSatellite:
			params = cfg.Shells[node.Shell].Compute
			target = c.hosts[node.ID%len(c.hosts)]
		case constellation.KindGroundStation:
			params = cfg.GroundStations[node.Sat].Compute
			target = c.hosts[0]
		}
		m, err := machine.New(node.ID, node.Name, machine.Resources{
			VCPUs:   params.VCPUs,
			MemMiB:  params.MemMiB,
			DiskMiB: params.DiskMiB,
		}, params.BootDelay)
		if err != nil {
			return nil, fmt.Errorf("coordinator: creating machine for %s: %w", node.Name, err)
		}
		if err := target.AddMachine(m); err != nil {
			return nil, err
		}
		c.byNode[node.ID] = m
		c.hostOf[node.ID] = target
	}
	if err := c.buildFanout(o.Fanout); err != nil {
		return nil, err
	}
	if o.Watchdog > 0 {
		c.wd = supervise.New(o.Watchdog)
		c.pool.SetStageTimer(func(stage string, d time.Duration) {
			switch stage {
			case "snapshot":
				c.wd.Observe(supervise.StageSnapshot, d)
			case "diff":
				c.wd.Observe(supervise.StageDiff, d)
			case "repair":
				c.wd.Observe(supervise.StagePathRepair, d)
			}
		})
	}
	return c, nil
}

// RingStats returns the counters of the fan-out tier's generation log,
// the retention window behind /diff replay and agent resyncs (see
// hostlink.Fanout.RingStats).
func (c *Coordinator) RingStats() hostlink.RingStats { return c.fo.RingStats() }

// Constellation returns the underlying constellation.
func (c *Coordinator) Constellation() *constellation.Constellation { return c.cons }

// Config returns the testbed configuration.
func (c *Coordinator) Config() *config.Config { return c.cfg }

// Sim returns the simulation engine; applications schedule their workload
// on it.
func (c *Coordinator) Sim() *vnet.Sim { return c.sim }

// Network returns the virtual network connecting the machines.
func (c *Coordinator) Network() *vnet.Network { return c.net }

// Hosts returns the emulated hosts.
func (c *Coordinator) Hosts() []*host.Host { return c.hosts }

// Machine returns the machine emulating a node. Machines never migrate, so
// the lookup is a constant-time index into the per-node table — it sits on
// the virtual network's NodeActive hot path.
func (c *Coordinator) Machine(node int) (*machine.Machine, error) {
	if node < 0 || node >= len(c.byNode) || c.byNode[node] == nil {
		return nil, fmt.Errorf("coordinator: no machine for node %d", node)
	}
	return c.byNode[node], nil
}

// HostOf returns the host a node's machine runs on, in constant time.
func (c *Coordinator) HostOf(node int) (*host.Host, error) {
	if node < 0 || node >= len(c.hostOf) || c.hostOf[node] == nil {
		return nil, fmt.Errorf("coordinator: no host for node %d", node)
	}
	return c.hostOf[node], nil
}

// State returns the most recent constellation state. It is nil before
// Start. The returned State is valid within the current simulation
// callback (updates run on the simulation goroutine, and recycling is
// double-buffered); callers on other goroutines, or callers that retain
// the state across simulation events, must use LeaseState instead.
func (c *Coordinator) State() *constellation.State {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.current
}

// LeaseState returns the most recent constellation state (nil before
// Start) pinned against buffer recycling, plus a release function that
// must be called — exactly once, always safe to call — when the caller is
// done with the state. This is the accessor for concurrent readers such
// as the HTTP info server: simulated time advances arbitrarily fast in
// wall-clock terms, so without a lease a handler's state could be
// recycled and overwritten mid-read.
func (c *Coordinator) LeaseState() (*constellation.State, func()) {
	st, _, release := c.LeaseStateGen()
	return st, release
}

// LeaseStateGen is LeaseState plus the generation that produced the
// leased snapshot, read under the same lock so the pair is consistent —
// for readers that embed the generation in derived documents (the
// information service's /info) and must not mix one generation's content
// with another's label when an update races the lease.
func (c *Coordinator) LeaseStateGen() (*constellation.State, uint64, func()) {
	c.mu.Lock()
	st, gen := c.current, c.gen
	if st != nil {
		c.leases[st]++
	}
	c.mu.Unlock()
	var once sync.Once
	return st, gen, func() {
		once.Do(func() {
			if st == nil {
				return
			}
			c.mu.Lock()
			c.leases[st]--
			recycle := c.leases[st] == 0 && c.retired[st]
			if c.leases[st] == 0 {
				delete(c.leases, st)
				delete(c.retired, st)
			}
			c.mu.Unlock()
			if recycle {
				c.pool.Recycle(st)
			}
		})
	}
}

// Generation returns the monotonic snapshot generation: 0 before the first
// update, then incremented by exactly one per completed update cycle. The
// information service keys its per-tick response caches on it and clients
// use it as the /diff?since= cursor.
func (c *Coordinator) Generation() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.gen
}

// TopologyVersion returns the generation of the most recent update whose
// diff was non-empty — i.e. the last time the emulated topology (links at
// netem granularity, or node activity) actually changed. Consumers that
// derive state only from the topology, like the information service's
// per-node and path response caches, stay valid while this is unchanged.
func (c *Coordinator) TopologyVersion() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.topoVer
}

// UpdateChan returns a channel that is closed when the next update
// completes. Grab the channel, re-check Generation, then block: the
// update closes it in the critical section that advances the generation,
// so the close cannot be missed between the two reads. The channel is the
// fan-out tier's (hostlink.Fanout.UpdateChan).
func (c *Coordinator) UpdateChan() <-chan struct{} { return c.fo.UpdateChan() }

// DiffsFrom copies out of the fan-out tier's generation log what a mirror
// of it is missing — the information service's frame cache; see
// hostlink.Fanout.DiffsFrom.
func (c *Coordinator) DiffsFrom(cursor uint64) (recs []hostlink.Record, from uint64) {
	return c.fo.DiffsFrom(cursor)
}

// LastDiff returns the statistics of the most recent update's
// constellation diff: how many links appeared, disappeared or changed
// their delay quantum, how many nodes flipped activity, and how many
// shortest-path cache entries were carried over (unchanged links),
// incrementally repaired under the tick's link deltas, or fully recomputed
// because their affected cone was too large. An Empty diff means the
// update distributed nothing — the emulated network was provably unchanged
// at netem granularity.
func (c *Coordinator) LastDiff() constellation.DiffStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.lastDiff
}

// ElapsedSeconds returns the virtual time since the epoch.
func (c *Coordinator) ElapsedSeconds() float64 { return c.offset(c.sim.Now()) }

// offset converts a virtual instant to seconds since the epoch, the
// snapshot pool's time axis.
func (c *Coordinator) offset(t time.Time) float64 { return t.Sub(c.cfg.Epoch).Seconds() }

// Watchdog returns the installed tick watchdog, nil when unsupervised.
func (c *Coordinator) Watchdog() *supervise.Watchdog { return c.wd }

// update runs one constellation calculation cycle and distributes the
// difference to the hosts, like the paper's coordinator ships link deltas
// instead of reprogramming the whole network every epoch. Snapshots are
// computed into pooled buffers: the state from two updates ago is recycled
// — unless a concurrent reader holds a lease on it — so steady-state ticks
// allocate ~nothing. The pool diffs each snapshot against the previous
// one; an empty diff (sub-quantum satellite motion) leaves the virtual
// network's shaper parameters and the hosts' machine activity untouched,
// and the snapshot arrives with the previous tick's shortest-path cache
// already transplanted (unchanged links) or incrementally repaired under
// the link deltas (graph.RepairSSSP) — either way, queries never pay a
// full Dijkstra recompute for a source that was cached on the previous
// tick. The coordinator only decides when the pipeline runs; the repair
// mechanism itself lives in constellation and graph.
//
// When is the last thing update decides: everything in a snapshot that is a
// function of the tick time and the state just published starts right away
// (SnapshotPool.Prefetch), beside the interval's events, so the next update
// only joins it and does what needs the boundary — machine health, path
// sources planted meanwhile — before recording and distributing.
func (c *Coordinator) update() error {
	// Tick supervision: the watchdog projects this tick's cost from the
	// per-stage estimates and picks the degradation level up front, so an
	// overloaded pipeline sheds work *before* overrunning the interval.
	level := supervise.LevelFull
	if c.wd != nil {
		level = c.wd.BeginTick()
	}
	if level >= supervise.LevelDeferRepair {
		// Skip the incremental path-cache repair; queries recompute on
		// demand, and repair resumes once the ladder steps back down. The
		// pool reads the setting when a snapshot's computation starts: for
		// this tick's, if nothing was prefetched, and in any case for the
		// next tick's, launched below — there the deferral takes effect one
		// generation after the level that asked for it.
		c.pool.SetPathRepair(false)
		defer c.pool.SetPathRepair(true)
	}
	now := c.sim.Now()
	st, err := c.pool.Snapshot(c.offset(now))
	if err != nil {
		if c.wd != nil {
			c.wd.EndTick()
		}
		return fmt.Errorf("coordinator: update at t=%v: %w", c.ElapsedSeconds(), err)
	}
	// Mid-tick check: the compute stages already ate the budget — coalesce
	// the distribution instead of pushing the tick further past its
	// deadline.
	if c.wd != nil && level < supervise.LevelCoalesce && c.wd.OverBudget() {
		level = c.wd.Escalate(supervise.LevelCoalesce)
	}
	d := st.Diff()
	d.Degraded = uint8(level)
	c.mu.Lock()
	old := c.prev
	c.prev = c.current
	c.current = st
	c.gen++
	c.lastDiff = d.Stats()
	if !d.Empty() {
		c.topoVer = c.gen
	}
	// Retain this update in the fan-out tier's generation log, for /diff
	// replay and agent resyncs, and fold it into the per-shard digest
	// chains. The slot reuses its backing arrays, so steady-state ticks do
	// not allocate for history retention. In this critical section the
	// log's head and Generation move together, and the long-poll/SSE
	// readers Advance wakes cannot look before the lock is released.
	// Remote writers hear of the generation only from distribute, below.
	c.fo.Advance(c.gen, d)
	if old != nil && c.leases[old] > 0 {
		// A concurrent reader still holds the state; its last
		// release will recycle it.
		c.retired[old] = true
		old = nil
	}
	c.mu.Unlock()
	c.pool.Recycle(old)

	c.distribute(level)
	if c.wd != nil {
		c.wd.EndTick()
	}
	// Generation k is in effect; k+1 depends only on its tick time and on k.
	// Compute it ahead if the update loop will run that tick at all.
	if next := c.offset(now.Add(c.cfg.Resolution)); next <= c.cfg.Duration.Seconds() {
		c.pool.Prefetch(next)
	}
	return nil
}

// distribute ships the generation prepared by the last fan-out Advance to
// every host shard through the fan-out tier, which honors the per-shard
// degradation ladders, the global watchdog level, and any distribution
// debt coalesced ticks left behind. Frame-apply failures are recorded in
// the shard counters (see Fanout.ApplyErrors), not fatal — one stuck
// machine must not abort the emulation.
func (c *Coordinator) distribute(level supervise.Level) {
	applyStart := time.Time{}
	if c.wd != nil {
		applyStart = time.Now()
	}
	// The only error Distribute can surface is a scheduling failure for
	// deferred frames, which means the simulation is shutting down;
	// delivery errors live in the shard counters.
	_ = c.fo.Distribute(level)
	if c.wd != nil {
		c.wd.Observe(supervise.StageApply, time.Since(applyStart))
	}
}

// Start boots all machines and begins the periodic update loop. It
// performs the first update immediately so that a consistent state exists
// before any traffic flows.
func (c *Coordinator) Start() error {
	// The first update boots every machine whose node is active (ground
	// stations always; satellites when inside the bounding box) — like
	// Celestial, machines outside the box never get a process.
	if err := c.update(); err != nil {
		return err
	}
	// Flush events scheduled for the current instant (e.g. zero-delay
	// boot completions) so machines are usable right after Start.
	if err := c.sim.RunUntil(c.sim.Now()); err != nil {
		return err
	}
	return c.sim.Every(c.sim.Now().Add(c.cfg.Resolution), c.cfg.Resolution, func() bool {
		// The update loop runs for the configured experiment duration.
		if c.ElapsedSeconds() > c.cfg.Duration.Seconds() {
			return false
		}
		if err := c.update(); err != nil {
			// A failing propagation is unrecoverable mid-run: stop the
			// loop and keep the error for Run.
			if c.runErr == nil {
				c.runErr = err
			}
			return false
		}
		return true
	})
}

// Run advances the simulation by d, executing all scheduled work. It
// returns the error that stopped the update loop, if one did — in this call
// or an earlier one.
func (c *Coordinator) Run(d time.Duration) error {
	if d < 0 {
		return fmt.Errorf("coordinator: negative run duration %v", d)
	}
	if err := c.sim.RunUntil(c.sim.Now().Add(d)); err != nil {
		return err
	}
	return c.runErr
}

// InjectFaults schedules radiation fault events for every satellite
// machine over the remaining experiment duration.
func (c *Coordinator) InjectFaults(model faults.SEUModel, seed int64) error {
	horizon := c.cfg.Duration - time.Duration(c.ElapsedSeconds()*float64(time.Second))
	if horizon <= 0 {
		return fmt.Errorf("coordinator: experiment over, cannot inject faults")
	}
	return c.InjectFaultsFor(model, seed, horizon)
}

// InjectFaultsFor schedules radiation fault events for every satellite
// machine over the given horizon from now, e.g. a scripted fault burst in
// a scenario timeline. Shutdown reboots go through the machine's host so
// the boot completes after the machine's boot delay.
func (c *Coordinator) InjectFaultsFor(model faults.SEUModel, seed int64, horizon time.Duration) error {
	inj, err := faults.NewInjector(model, seed)
	if err != nil {
		return err
	}
	for _, node := range c.cons.Nodes() {
		if node.Kind != constellation.KindSatellite {
			continue
		}
		m, err := c.Machine(node.ID)
		if err != nil {
			return err
		}
		h, err := c.HostOf(node.ID)
		if err != nil {
			return err
		}
		if _, err := inj.Schedule(c.sim, rebootTarget{h: h, m: m}, horizon); err != nil {
			return err
		}
	}
	return nil
}

// rebootTarget adapts a machine to faults.Target with host-mediated
// reboots: a bare machine.Start only reaches the Booting state, while the
// host schedules the boot completion, so post-SEU machines actually come
// back Active.
type rebootTarget struct {
	h *host.Host
	m *machine.Machine
}

// Crash implements faults.Target.
func (t rebootTarget) Crash(now time.Time, reason string) error { return t.m.Crash(now, reason) }

// Start implements faults.Target: the host boots the machine and completes
// the boot after its boot delay.
func (t rebootTarget) Start(time.Time) error { return t.h.StartMachine(t.m.ID()) }

// SetThrottle implements faults.Target.
func (t rebootTarget) SetThrottle(f float64) error { return t.m.SetThrottle(f) }

// stateTopology adapts the coordinator's current constellation state (plus
// machine health) to the vnet.Topology interface.
type stateTopology struct {
	c *Coordinator
}

// PathInfo implements vnet.Topology.
func (t stateTopology) PathInfo(a, b int) vnet.PathInfo {
	st := t.c.State()
	if st == nil {
		return vnet.PathInfo{}
	}
	lat, err := st.Latency(a, b)
	if err != nil || math.IsInf(lat, 1) {
		return vnet.PathInfo{}
	}
	bw, ok := st.PathBandwidth(a, b)
	if !ok {
		return vnet.PathInfo{}
	}
	return vnet.PathInfo{LatencyS: lat, BandwidthKbps: bw, OK: true}
}

// NodeActive implements vnet.Topology: a node can communicate when its
// machine is booted and neither suspended nor failed.
func (t stateTopology) NodeActive(id int) bool {
	m, err := t.c.Machine(id)
	if err != nil {
		return false
	}
	return m.Running()
}
