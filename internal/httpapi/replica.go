package httpapi

import (
	"celestial/internal/difflog"
	"celestial/internal/hostlink"
)

// ReplicaSource serves the information-service route table from a host
// agent's shard replica — the same RegisterRoutes entry point the
// coordinator and the /diff read replicas use, so an agent's /v1 handlers
// cannot drift from theirs. A shard replica tracks machine activity and
// link delay quanta, not the constellation geometry, so the source is
// deliberately partial: /info reports the replica's cursor and state
// sizes, /diff replays the shard's view of each diff record the agent
// retained — the document, SSE event and binary frame the coordinator
// would build for that filtered record — and the geometry-derived
// documents (/shell, /gst, /path, per-satellite) answer 404: those
// questions belong to the coordinator.
type ReplicaSource struct {
	rep    *hostlink.Replica
	shard  int
	frames *frameMirror[*hostlink.DiffFrame]
}

// NewReplicaSource wraps one shard replica as a route-table Source.
func NewReplicaSource(shard int, rep *hostlink.Replica) *ReplicaSource {
	return &ReplicaSource{rep: rep, shard: shard, frames: &frameMirror[*hostlink.DiffFrame]{
		updated: rep.UpdateChan, pull: rep.DiffsFrom,
		frame: func(f *hostlink.DiffFrame) *Frame { return BuildFrame(f.Generation, &f.DiffRecord) },
		log:   difflog.New[*Frame](hostlink.DefaultRetention),
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
