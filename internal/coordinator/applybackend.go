package coordinator

import (
	"errors"

	"celestial/internal/hostlink"
)

// hostBackend is the coordinator's loopback applyengine.Backend: it
// translates the engine's operations into the legacy distribute actions
// — path invalidation, machine-activity sweeps, link-reprogram notes —
// scoped to one shard's hosts and machines. cmd/celestial-agent builds
// the same engine over applyengine.ReplicaBackend; both run the policy
// flags through identical control flow, which is what makes the commit
// protocol's result digests comparable across deployments.
type hostBackend struct {
	c      *Coordinator
	shard  int
	member func(id int) bool
}

// InvalidatePaths implements applyengine.Backend: stale shaper
// parameters. Mark the cached pairs whose source this shard owns; other
// shards invalidate their own on their own frames (FlagChanged is
// global).
func (b *hostBackend) InvalidatePaths() {
	c, shard := b.c, b.shard
	c.net.InvalidatePairsIf(func(from, to int) bool { return c.shardOf[from] == shard })
}

// SweepActivity implements applyengine.Backend: reconcile every machine
// on the shard's hosts with the coordinator's current activity set.
func (b *hostBackend) SweepActivity() error {
	c := b.c
	st := c.State()
	if st == nil {
		return errors.New("coordinator: sweep before the first update")
	}
	var errs []error
	for _, h := range c.shardHosts[b.shard] {
		if err := h.ApplyActivityScoped(b.member, func(id int) bool { return st.Active[id] }); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// NoteUpdate implements applyengine.Backend: a delta-only frame — the
// hosts reprogram links (manager CPU spike) but no machine changes
// state.
func (b *hostBackend) NoteUpdate() {
	for _, h := range b.c.shardHosts[b.shard] {
		h.NoteUpdate()
	}
}

// AdoptSnapshot implements applyengine.Backend. The loopback shard's
// authoritative state is the coordinator's own, so the snapshot it is
// handed is a header and adopting it reduces to a full activity sweep
// against the current state (the engine has already invalidated the
// shard's paths).
func (b *hostBackend) AdoptSnapshot(*hostlink.Snapshot) error {
	return b.SweepActivity()
}
