package httpapi

import (
	"celestial/internal/constellation"
	"celestial/internal/coordinator"
	"celestial/internal/difflog"
	"celestial/internal/hostlink"
)

// ReplicaSource serves the information-service route table from a host
// agent's shard replica — the same RegisterRoutes entry point the
// coordinator and the /diff read replicas use, so an agent's /v1 handlers
// cannot drift from theirs. A shard replica tracks machine activity and
// link delay quanta, not the constellation geometry, so the source is
// deliberately partial: /info reports the replica's cursor and state
// sizes, /diff replays the shard-scoped frames the agent retained, and
// the geometry-derived documents (/shell, /gst, /path, per-satellite)
// answer 404 — those questions belong to the coordinator.
type ReplicaSource struct {
	rep    *hostlink.Replica
	shard  int
	frames *frameMirror
}

// NewReplicaSource wraps one shard replica as a route-table Source.
func NewReplicaSource(shard int, rep *hostlink.Replica) *ReplicaSource {
	pull := func(cursor, epoch uint64) ([]coordinator.DiffEntry, uint64, uint64) {
		diffs, from, now := rep.DiffsFrom(cursor, epoch)
		entries := make([]coordinator.DiffEntry, len(diffs))
		for i, d := range diffs {
			entries[i] = coordinator.DiffEntry{Generation: d.Generation, Diff: recordOfWire(d)}
		}
		return entries, from, now
	}
	return &ReplicaSource{rep: rep, shard: shard, frames: &frameMirror{
		updated: rep.UpdateChan, pull: pull,
		log: difflog.New[*Frame](hostlink.ReplicaRetention),
	}}
}

// Generation implements Source: the replica's applied cursor.
func (rs *ReplicaSource) Generation() uint64 {
	gen, _ := rs.rep.Cursor()
	return gen
}

// TopologyVersion implements Source. The replica does not distinguish
// empty diffs (it only receives frames that concern its shard), so every
// applied generation is a potential topology change.
func (rs *ReplicaSource) TopologyVersion() uint64 { return rs.Generation() }

// UpdateChan implements Source, waking /diff long-polls and streams on
// the next applied frame or snapshot.
func (rs *ReplicaSource) UpdateChan() <-chan struct{} { return rs.rep.UpdateChan() }

// InfoDoc implements Source: the replica's cursor, digest and tracked
// state sizes — what a machine on this host can learn locally without a
// round-trip to the coordinator.
func (rs *ReplicaSource) InfoDoc() ([]byte, int) {
	gen, _, t := rs.rep.State()
	if gen == 0 {
		return errDoc(503, "replica has no state yet (agent not attached)")
	}
	active, inactive, _, _, _ := rs.rep.Counts()
	return marshalDoc(Info{T: t, Generation: gen, Nodes: active + inactive}), 200
}

func (rs *ReplicaSource) ShellDoc(string) ([]byte, int) {
	return rs.notTracked()
}

func (rs *ReplicaSource) SatDoc(string, string) ([]byte, int) {
	return rs.notTracked()
}

func (rs *ReplicaSource) GSTDoc(string) ([]byte, int) {
	return rs.notTracked()
}

func (rs *ReplicaSource) PathDoc(string, string) ([]byte, int) {
	return rs.notTracked()
}

func (rs *ReplicaSource) notTracked() ([]byte, int) {
	return errDoc(404, "not tracked by this agent replica (shard %d); ask the coordinator", rs.shard)
}

// Frames implements Source over the replica's retained diff history.
// Each frame is converted and serialized once and shared by every
// subscriber, like the coordinator's; a snapshot resync of the replica
// resets the mirrored window with it.
func (rs *ReplicaSource) Frames(since uint64) ([]*Frame, bool) {
	return rs.frames.since(since)
}

// recordOfWire lifts a shard-scoped wire frame back into the diff-record
// form the shared frame builder consumes. The wire carries new delay
// quanta only, so the record's old-quantum fields and the path-cache
// counters are zero — an agent's /diff stream describes its shard's
// deltas, not the coordinator's global diff.
func recordOfWire(f *hostlink.DiffFrame) constellation.DiffRecord {
	rec := constellation.DiffRecord{T: f.T, Degraded: f.Degraded}
	for _, l := range f.Added {
		rec.Added = append(rec.Added, constellation.LinkDelta{A: int(l.A), B: int(l.B), NewQ: l.DelayQ})
	}
	for _, l := range f.Removed {
		rec.Removed = append(rec.Removed, constellation.LinkDelta{A: int(l.A), B: int(l.B), OldQ: l.DelayQ})
	}
	for _, l := range f.Changed {
		rec.DelayChanged = append(rec.DelayChanged, constellation.LinkDelta{A: int(l.A), B: int(l.B), NewQ: l.DelayQ})
	}
	rec.Activated = append(rec.Activated, f.Activated...)
	rec.Deactivated = append(rec.Deactivated, f.Deactivated...)
	return rec
}
