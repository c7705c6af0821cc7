// Package applyengine is the deployment-independent apply engine of the
// fan-out tier: the machine-lifecycle sweeps, shaper-cache invalidation
// and link-reprogram notes a shard performs when a generation's diff
// reaches it, wrapped in the testbed's retry middleware.
//
// The engine used to live inline in the coordinator's loopback appliers,
// which made remote agents spectators: they followed the diff stream but
// the coordinator did all the applying. Following RAFDA's separation of
// distribution policy from application logic, the engine is now a package
// of its own with the deployment-specific half behind the Backend
// interface — cmd/celestial constructs it over the coordinator's hosts
// (loopback mode) and cmd/celestial-agent constructs it over its replica
// (remote mode), through the same code path. Both executions of a
// generation produce the same commit-protocol digest (hostlink.
// ResultDigest), which is how the coordinator verifies a remote apply
// without shipping state back.
//
// Determinism: the engine's only random process is retry jitter, and its
// stream is derived per generation (rng.Derive(seed, gen)) rather
// than consumed sequentially — a shard that resynced from a snapshot or
// skipped a proposal stays aligned with one that replayed every frame.
package applyengine

import (
	"sync"

	"celestial/internal/hostlink"
	"celestial/internal/retry"
	"celestial/internal/rng"
)

// Backend is the deployment-specific half of the engine: what
// invalidation, sweeps and notes mean in this process. The coordinator's
// backend programs real hosts and the virtual network; an agent's backend
// has no host to program.
type Backend interface {
	// InvalidatePaths marks cached shaper parameters stale for the pairs
	// this shard owns; they recompute lazily on next use.
	InvalidatePaths()
	// SweepActivity reconciles machine lifecycle state with the current
	// activity set. Transient failures (see retry.Transient) are retried
	// by the engine; anything else surfaces to the caller.
	SweepActivity() error
	// NoteUpdate records a delta-only link reprogram — manager CPU cost
	// without machine state changes.
	NoteUpdate()
	// AdoptSnapshot replaces the shard's state wholesale after a ring
	// eviction forced a full resync.
	AdoptSnapshot(s *hostlink.Snapshot) error
}

// Config sizes one engine. Backend is required.
type Config struct {
	// Shard is the shard this engine applies for; it selects the
	// engine's jitter stream.
	Shard int
	// Backend executes the deployment-specific operations.
	Backend Backend
	// Retry bounds each sweep or snapshot adoption; the zero value adopts
	// retry.Default().
	Retry retry.Policy
	// Seed is the shared fan-out seed (shipped to agents in the Welcome
	// frame); the engine derives its per-shard jitter stream from it, so
	// coordinator and agent construct identical engines from identical
	// inputs.
	Seed int64
}

// Engine applies generations for one shard. It implements
// hostlink.ResultApplier and is safe for concurrent use.
type Engine struct {
	backend Backend
	policy  retry.Policy
	seed    int64

	mu   sync.Mutex
	last hostlink.ApplyResult
}

// New builds an engine. It panics on a nil backend — that is a wiring
// bug, not a runtime condition.
func New(cfg Config) *Engine {
	if cfg.Backend == nil {
		panic("applyengine: nil backend")
	}
	return &Engine{
		backend: cfg.Backend,
		policy:  cfg.Retry,
		seed:    rng.Derive(cfg.Seed, uint64(cfg.Shard)+0x20000),
	}
}

// policyFlags masks a frame down to the bits that command work.
const policyFlags = hostlink.FlagInvalidate | hostlink.FlagSweep | hostlink.FlagNote

// ApplyDiff implements hostlink.Applier: execute the frame's policy flags
// in the legacy distribute order — invalidate stale shaper state first,
// then either a full activity sweep or a reprogram note.
func (e *Engine) ApplyDiff(f *hostlink.DiffFrame) error {
	flags := f.Flags & policyFlags
	e.mu.Lock()
	defer e.mu.Unlock()
	if flags&hostlink.FlagInvalidate != 0 {
		e.backend.InvalidatePaths()
	}
	res := retry.Result{Attempts: 1}
	switch {
	case flags&hostlink.FlagSweep != 0:
		res = e.do(f.Generation, e.backend.SweepActivity)
	case flags&hostlink.FlagNote != 0:
		e.backend.NoteUpdate()
	}
	e.record(f.Generation, flags, res)
	return res.Err
}

// ApplySnapshot implements hostlink.Applier: a full resync is an
// invalidate plus a wholesale state adoption, digested as if the frame
// had carried invalidate+sweep so both deployments agree on it.
func (e *Engine) ApplySnapshot(s *hostlink.Snapshot) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.backend.InvalidatePaths()
	res := e.do(s.Generation, func() error { return e.backend.AdoptSnapshot(s) })
	e.record(s.Generation, hostlink.FlagInvalidate|hostlink.FlagSweep, res)
	return res.Err
}

// do runs op under the retry policy with the generation's jitter stream.
func (e *Engine) do(gen uint64, op func() error) retry.Result {
	rnd := rng.New(rng.Derive(e.seed, gen))
	return retry.Do(e.policy, rnd.Float64, op)
}

func (e *Engine) record(gen uint64, flags uint8, res retry.Result) {
	e.last = hostlink.ApplyResult{
		Generation: gen,
		Digest:     hostlink.ResultDigest(gen, flags),
		Attempts:   uint32(res.Attempts),
		Retried:    uint32(res.Attempts - 1),
	}
}

// LastResult implements hostlink.ResultApplier.
func (e *Engine) LastResult() hostlink.ApplyResult {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.last
}

// ReplicaBackend is the agent-side Backend: on a real deployment the
// agent's host would program tc/netem and the machine manager here; the
// testbed's agent has no host to program, so every operation succeeds at
// once and the engine's control flow, retry policy and result digests
// run end to end without privileged host access.
type ReplicaBackend struct{}

// InvalidatePaths implements Backend.
func (*ReplicaBackend) InvalidatePaths() {}

// SweepActivity implements Backend.
func (*ReplicaBackend) SweepActivity() error { return nil }

// NoteUpdate implements Backend.
func (*ReplicaBackend) NoteUpdate() {}

// AdoptSnapshot implements Backend.
func (*ReplicaBackend) AdoptSnapshot(*hostlink.Snapshot) error { return nil }
