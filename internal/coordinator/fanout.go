package coordinator

import (
	"errors"
	"fmt"

	"celestial/internal/applyengine"
	"celestial/internal/host"
	"celestial/internal/hostlink"
)

// FanoutOptions configures the host fan-out tier (Options.Fanout). The
// zero value yields one shard per host with no frame faults.
type FanoutOptions struct {
	// Agents is the fan-out width: how many host agents share the
	// machines. Zero means one agent per host; it must not exceed the
	// host count (hosts are never split across agents).
	Agents int
	// Options are the tier's own settable options (retention, retry,
	// seed, frame faults, dead-after, remote timeouts, token), handed to
	// hostlink as they are.
	hostlink.Options
}

// Fanout returns the host fan-out tier, e.g. to serve remote agents on a
// listener or script kill/rejoin events.
func (c *Coordinator) Fanout() *hostlink.Fanout { return c.fo }

// buildFanout constructs the fan-out tier for New: shard layout, loopback
// appliers, and the snapshot callback its wall-clock plane resyncs evicted
// agents with. Neither plane hears of a generation from the producer:
// update hands it to Advance, which retains it in the tier's log, and
// Distribute delivers it to the loopback shards and then publishes it to
// the remote writers.
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
	c.shardOf = make([]int, len(c.byNode))
	c.shardNodes = make([][]int, shards)
	c.shardHosts = make([][]*host.Host, shards)
	for _, h := range c.hosts {
		s := h.ID() % shards
		c.shardHosts[s] = append(c.shardHosts[s], h)
	}
	for node, h := range c.hostOf {
		if h == nil {
			continue
		}
		s := h.ID() % shards
		c.shardOf[node] = s
		c.shardNodes[s] = append(c.shardNodes[s], node)
	}

	// Every shard applies through the shared engine — the loopback
	// deployment differs from a remote agent only in its Backend, never
	// in apply logic, so the two produce identical commit digests.
	appliers := make([]hostlink.Applier, shards)
	machines := make([]int, shards)
	for s := 0; s < shards; s++ {
		appliers[s] = applyengine.New(applyengine.Config{
			Shard:   s,
			Backend: &hostBackend{c: c, shard: s},
			Retry:   o.Retry,
			Seed:    o.Seed,
		})
		machines[s] = len(c.shardNodes[s])
	}

	var err error
	c.fo, err = hostlink.New(hostlink.Config{
		Shards:   shards,
		ShardOf:  func(node int) int { return c.shardOf[node] },
		Machines: machines,
		Appliers: appliers,
		Now:      c.sim.Now,
		After:    c.sim.After,
		Snapshot: c.shardSnapshot,
		Options:  o.Options,
	})
	return err
}

// shardSnapshot builds a shard's full state at the current generation —
// the resync document a reconnecting remote agent adopts when the tier's
// log has moved past its cursor. A loopback shard never asks for it: its
// backend sweeps against the coordinator's own state.
func (c *Coordinator) shardSnapshot(shard int) (*hostlink.Snapshot, error) {
	st, gen, release := c.LeaseState()
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
	for l, q := range st.Links() {
		if c.shardOf[l.A] == shard || c.shardOf[l.B] == shard {
			snap.Links = append(snap.Links, hostlink.LinkState{A: int32(l.A), B: int32(l.B), DelayQ: q})
		}
	}
	return snap, nil
}
