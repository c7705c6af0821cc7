package coordinator

import (
	"errors"
	"fmt"

	"celestial/internal/applyengine"
	"celestial/internal/host"
	"celestial/internal/hostlink"
	"celestial/internal/netem"
)

// FanoutOptions configures the host fan-out tier (see ConfigureFanout).
// The zero value yields one shard per host with no frame faults.
type FanoutOptions struct {
	// Agents is the fan-out width: how many host agents share the
	// machines. Zero means one agent per host; it must not exceed the
	// host count (hosts are never split across agents).
	Agents int
	// Options are the tier's own settable options (retention, ladder,
	// retry, seed, frame faults, dead-after, remote timeouts, token),
	// handed to hostlink as they are.
	hostlink.Options
}

// ConfigureFanout rebuilds the fan-out tier with the given options. Must
// be called before Start. Readers on other goroutines (the /agents and
// /diff handlers) may run meanwhile: they see the old tier or the new one.
func (c *Coordinator) ConfigureFanout(o FanoutOptions) error { return c.buildFanout(o) }

// Fanout returns the host fan-out tier, e.g. to serve remote agents on a
// listener or script kill/rejoin events.
func (c *Coordinator) Fanout() *hostlink.Fanout {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.fo
}

// FanoutOptions returns the options the fan-out tier was last built with
// — the starting point for deployment-level overrides (the agent auth
// token) layered on top of a scenario's hosts configuration via
// ConfigureFanout before Start.
func (c *Coordinator) FanoutOptions() FanoutOptions {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.foOpts
}

// buildFanout constructs the fan-out tier — shard layout, loopback
// appliers, and the snapshot callback its wall-clock plane resyncs evicted
// agents with — and swaps it in, unless an update has run. Neither plane
// hears of a generation from the producer: update hands it to Advance,
// which retains it in the tier's log, and Distribute delivers it to the
// loopback shards and then publishes it to the remote writers.
func (c *Coordinator) buildFanout(o FanoutOptions) error {
	shards := o.Agents
	if shards <= 0 {
		shards = len(c.hosts)
	}
	if shards > len(c.hosts) {
		return fmt.Errorf("coordinator: %d agents for %d hosts (hosts are never split across agents)", shards, len(c.hosts))
	}

	// A host's machines all live on one shard: shard = host ID mod
	// shards. With the default one-agent-per-host layout this is the
	// identity, so the sweep order inside each shard matches the legacy
	// single-process distribute path.
	shardOf := make([]int, len(c.byNode))
	shardNodes := make([][]int, shards)
	shardHosts := make([][]*host.Host, shards)
	for _, h := range c.hosts {
		s := h.ID() % shards
		shardHosts[s] = append(shardHosts[s], h)
	}
	for node, h := range c.hostOf {
		if h == nil {
			continue
		}
		s := h.ID() % shards
		shardOf[node] = s
		shardNodes[s] = append(shardNodes[s], node)
	}

	// Every shard applies through the shared engine — the loopback
	// deployment differs from a remote agent only in its Backend, never
	// in apply logic, so the two produce identical commit digests.
	appliers := make([]hostlink.Applier, shards)
	machines := make([]int, shards)
	for s := 0; s < shards; s++ {
		shard := s
		appliers[s] = applyengine.New(applyengine.Config{
			Shard: s,
			Backend: &hostBackend{
				c:      c,
				shard:  s,
				member: func(id int) bool { return c.shardOf[id] == shard },
			},
			Retry: o.Retry,
			Seed:  o.Seed,
		})
		machines[s] = len(shardNodes[s])
	}

	fo, err := hostlink.New(hostlink.Config{
		Shards:   shards,
		ShardOf:  func(node int) int { return c.shardOf[node] },
		Machines: machines,
		Appliers: appliers,
		Now:      c.sim.Now,
		After:    c.sim.After,
		Snapshot: c.shardSnapshot,
		Options:  o.Options,
	})
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen > 0 {
		return errors.New("coordinator: cannot configure fan-out after Start")
	}
	c.fo, c.foOpts = fo, o
	c.shardOf, c.shardNodes, c.shardHosts = shardOf, shardNodes, shardHosts
	return nil
}

// shardSnapshot builds a shard's full state at the current generation —
// the resync document a reconnecting remote agent adopts when the tier's
// log has moved past its cursor. A loopback shard never asks for it: its
// backend sweeps against the coordinator's own state.
func (c *Coordinator) shardSnapshot(shard int) (*hostlink.Snapshot, error) {
	st, gen, release := c.LeaseStateGen()
	defer release()
	if st == nil {
		return nil, errors.New("coordinator: no state before the first update")
	}
	snap := &hostlink.Snapshot{Generation: gen, T: st.T}
	for _, node := range c.shardNodes[shard] {
		if st.Active[node] {
			snap.Active = append(snap.Active, int32(node))
		} else {
			snap.Inactive = append(snap.Inactive, int32(node))
		}
	}
	for _, l := range st.Links {
		if c.shardOf[l.A] != shard && c.shardOf[l.B] != shard {
			continue
		}
		snap.Links = append(snap.Links, hostlink.LinkState{
			A: int32(l.A), B: int32(l.B),
			DelayQ: int32(netem.LatencyQuanta(l.LatencyS)),
		})
	}
	return snap, nil
}
