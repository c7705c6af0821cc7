package hostlink

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"celestial/internal/difflog"
)

// ErrGap reports a diff frame that does not extend the replica's cursor:
// the agent must reconnect and resync (ring replay or snapshot).
var ErrGap = errors.New("hostlink: generation gap")

// Replica is the agent-side shard state: the set of active/inactive
// machines and per-link delay quanta its host would program, rebuilt from
// snapshots and diff frames, with the digest chain folded alongside so
// the coordinator can verify byte-exact convergence. On a real multi-host
// deployment this is where machine lifecycle and netem shaper calls
// attach; the standalone agent keeps the state and the proof.
type Replica struct {
	mu     sync.Mutex
	active map[int32]bool
	links  map[[2]int32]int32
	digest uint64

	frames    int
	snapshots int

	// history retains the last DefaultRetention applied diff frames,
	// which the benchmark reads back through Diffs; its head is the
	// replica's generation. A snapshot is a resync point and resets it.
	history *difflog.Log[*DiffFrame]
}

// NewReplica returns an empty replica at generation 0.
func NewReplica() *Replica {
	return &Replica{
		active:  make(map[int32]bool),
		links:   make(map[[2]int32]int32),
		digest:  ChainSeed,
		history: difflog.New[*DiffFrame](DefaultRetention),
	}
}

func linkKey(a, b int32) [2]int32 {
	if a > b {
		a, b = b, a
	}
	return [2]int32{a, b}
}

// ApplySnapshot replaces the replica's state wholesale and adopts the
// snapshot's generation and chain digest.
func (r *Replica) ApplySnapshot(s *Snapshot) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	clear(r.active)
	clear(r.links)
	for _, id := range s.Active {
		r.active[id] = true
	}
	for _, id := range s.Inactive {
		r.active[id] = false
	}
	for _, l := range s.Links {
		r.links[linkKey(l.A, l.B)] = l.DelayQ
	}
	r.digest = s.Digest
	r.snapshots++
	r.history.Reset(s.Generation)
	return nil
}

// ApplyDiff folds one in-order diff frame into the replica, in the order a
// DiffRecord is applied: Removed, then Added, then DelayChanged. Frames
// that do not extend the cursor by exactly one generation — including Full
// frames, which carry no deltas — return ErrGap.
func (r *Replica) ApplyDiff(f *DiffFrame) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if gen := r.history.Head(); f.Full || f.Generation != gen+1 {
		return fmt.Errorf("%w: frame %d onto replica at %d", ErrGap, f.Generation, gen)
	}
	for _, l := range f.Removed {
		delete(r.links, linkKey(int32(l.A), int32(l.B)))
	}
	for _, l := range f.Added {
		r.links[linkKey(int32(l.A), int32(l.B))] = l.NewQ
	}
	for _, l := range f.DelayChanged {
		r.links[linkKey(int32(l.A), int32(l.B))] = l.NewQ
	}
	for _, id := range f.Activated {
		r.active[id] = true
	}
	for _, id := range f.Deactivated {
		r.active[id] = false
	}
	r.digest = FoldDiff(r.digest, f)
	r.frames++
	// The frame is retained without a copy: ReadFrame hands the replica a
	// freshly decoded value, never a reused buffer.
	*r.history.Append(f.Generation) = f
	return nil
}

// Diffs returns the retained diff frames in (since, gen], oldest first.
// ok=false means since fell outside the history window (evicted, or
// before the last snapshot resync, or ahead of the cursor) and the
// follower must resync from full state. The returned frames are shared
// and must be treated as immutable.
func (r *Replica) Diffs(since uint64) ([]*DiffFrame, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.history.Since(since)
}

// Cursor returns the replica's applied generation and chain digest.
func (r *Replica) Cursor() (gen, digest uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.history.Head(), r.digest
}

// Counts returns the replica's tracked state sizes and how it got there.
func (r *Replica) Counts() (active, inactive, links, frames, snapshots int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, a := range r.active {
		if a {
			active++
		} else {
			inactive++
		}
	}
	return active, inactive, len(r.links), r.frames, r.snapshots
}

// Agent is the client side of the wire protocol: it dials the
// coordinator, identifies its shard, follows the frame stream into its
// Replica, acks every applied generation, and reconnects with its cursor
// after any failure — the resync then comes from the coordinator's
// retention ring, or a snapshot when the ring has moved on.
type Agent struct {
	// ID is the shard this agent owns; Addr the coordinator's listen
	// address.
	ID   int
	Addr string
	// Replica is the state being maintained; nil gets a fresh one.
	Replica *Replica
	// Heartbeat must match the coordinator's (both sides time out after
	// three missed intervals); zero means DefaultHeartbeat.
	Heartbeat time.Duration
	// ReconnectWait spaces redial attempts; zero means 500ms.
	ReconnectWait time.Duration
	// Token is presented in the Hello frame when the coordinator
	// requires bearer auth; TLS, when set, wraps the connection.
	Token string
	TLS   *tls.Config
	// Apply requests authoritative remote apply: the coordinator sends
	// Propose frames and this agent answers them through engines built
	// by NewApplier (one per served shard, seeded from the Welcome
	// frame). NewApplier is required when Apply is set.
	Apply      bool
	NewApplier func(shard int, seed int64) ResultApplier
	// Logf, when set, receives connection lifecycle notes.
	Logf func(format string, args ...any)

	mu       sync.Mutex
	replicas map[int]*Replica      // adopted shards (ID's lives in Replica)
	engines  map[int]ResultApplier // per-shard apply engines
	seed     int64                 // fan-out seed from the Welcome frame
	stats    AgentStats
}

// AgentStats counts the agent side of the commit protocol and shard
// adoption — wall-clock telemetry, never part of the run report.
type AgentStats struct {
	Applies          int // Propose frames answered
	ApplyErrors      int // engine errors (still answered)
	Commits          int // Commit frames received
	CommitMismatches int // commits whose chain digest differed at our cursor
	Reassigns        int // Reassign frames received
}

// Stats returns a copy of the agent's protocol counters.
func (a *Agent) Stats() AgentStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// ReplicaFor returns the replica tracking one shard: the agent's own
// Replica for its shard, a lazily created secondary for adopted shards.
func (a *Agent) ReplicaFor(shard int) *Replica {
	if shard == a.ID {
		return a.Replica
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.replicas == nil {
		a.replicas = make(map[int]*Replica)
	}
	rep := a.replicas[shard]
	if rep == nil {
		rep = NewReplica()
		a.replicas[shard] = rep
	}
	return rep
}

// engineFor returns the shard's apply engine, building it on first use
// with the negotiated fan-out seed.
func (a *Agent) engineFor(shard int) ResultApplier {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.engines == nil {
		a.engines = make(map[int]ResultApplier)
	}
	e := a.engines[shard]
	if e == nil && a.NewApplier != nil {
		e = a.NewApplier(shard, a.seed)
		a.engines[shard] = e
	}
	return e
}

// Run follows the coordinator until a clean Bye (returns nil) or the
// context is canceled (returns the context error). Connection failures
// and generation gaps trigger reconnect-and-resync, not failure.
func (a *Agent) Run(ctx context.Context) error {
	if a.Replica == nil {
		a.Replica = NewReplica()
	}
	if a.Heartbeat <= 0 {
		a.Heartbeat = DefaultHeartbeat
	}
	wait := a.ReconnectWait
	if wait <= 0 {
		wait = 500 * time.Millisecond
	}
	for {
		done, err := a.session(ctx)
		if done {
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		a.logf("hostlink agent %d: reconnecting in %v: %v", a.ID, wait, err)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(wait):
		}
	}
}

func (a *Agent) logf(format string, args ...any) {
	if a.Logf != nil {
		a.Logf(format, args...)
	}
}

// session runs one connection: handshake, then frames until error or Bye.
// done is true only on a clean Bye or context cancellation.
func (a *Agent) session(ctx context.Context) (done bool, err error) {
	d := net.Dialer{Timeout: 10 * time.Second}
	conn, err := d.DialContext(ctx, "tcp", a.Addr)
	if err != nil {
		return false, err
	}
	if a.TLS != nil {
		conn = tls.Client(conn, a.TLS)
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	var flags uint8
	if a.Apply {
		flags |= HelloApply
	}
	gen, digest := a.Replica.Cursor()
	buf, err := WriteFrame(conn, nil, &Hello{
		Version: ProtocolVersion,
		Agent:   int32(a.ID),
		Cursor:  gen,
		Digest:  digest,
		Flags:   flags,
		Token:   a.Token,
	})
	if err != nil {
		return false, err
	}
	_ = conn.SetReadDeadline(time.Now().Add(3 * a.Heartbeat))
	f, rbuf, err := ReadFrame(conn, nil)
	if err != nil {
		return ctx.Err() != nil, err
	}
	apply := false
	switch f := f.(type) {
	case *Welcome:
		if f.Version != ProtocolVersion {
			return true, &VersionError{Got: f.Version, Want: ProtocolVersion}
		}
		apply = a.Apply && f.Flags&HelloApply != 0 && a.NewApplier != nil
		a.mu.Lock()
		a.seed = f.Seed
		a.mu.Unlock()
		a.logf("hostlink agent %d: attached to %s at generation %d (apply=%v)", a.ID, a.Addr, f.Generation, apply)
	case *Bye:
		return true, fmt.Errorf("hostlink: coordinator refused: %s", f.Reason)
	default:
		return false, fmt.Errorf("hostlink: handshake got %T", f)
	}

	for {
		_ = conn.SetReadDeadline(time.Now().Add(3 * a.Heartbeat))
		f, rbuf, err = ReadFrame(conn, rbuf)
		if err != nil {
			return ctx.Err() != nil, err
		}
		switch f := f.(type) {
		case *Snapshot:
			if err := a.ReplicaFor(int(f.Agent)).ApplySnapshot(f); err != nil {
				return false, err
			}
			if buf, err = a.ack(conn, buf, int(f.Agent)); err != nil {
				return false, err
			}
		case *DiffFrame:
			if err := a.ReplicaFor(int(f.Agent)).ApplyDiff(f); err != nil {
				// A gap: reconnect with the current cursor and let the
				// coordinator resync us.
				return false, err
			}
			if buf, err = a.ack(conn, buf, int(f.Agent)); err != nil {
				return false, err
			}
		case *Propose:
			if !apply {
				continue
			}
			if buf, err = a.applyPropose(conn, buf, f); err != nil {
				return false, err
			}
		case *Commit:
			a.noteCommit(f)
		case *Reassign:
			// The announced shard's snapshot follows, and ReplicaFor
			// creates its replica then.
			a.mu.Lock()
			a.stats.Reassigns++
			a.mu.Unlock()
			a.logf("hostlink agent %d: adopted shard %d (epoch %d)", a.ID, f.Shard, f.Epoch)
		case *Heartbeat:
			gen, _ := a.Replica.Cursor()
			_ = conn.SetWriteDeadline(time.Now().Add(DefaultWriteTimeout))
			if buf, err = WriteFrame(conn, buf, &Heartbeat{Generation: gen}); err != nil {
				return false, err
			}
		case *Bye:
			a.logf("hostlink agent %d: coordinator said goodbye: %s", a.ID, f.Reason)
			return true, nil
		}
	}
}

// applyPropose answers one commit-protocol proposal: run the shard's
// engine over the proposed generation's policy flags and report the
// result digest plus retry counters. Engine errors are reported in the
// digest-carrying Applied frame all the same — the coordinator's mirror
// is authoritative and must hear from us either way.
func (a *Agent) applyPropose(conn net.Conn, buf []byte, p *Propose) ([]byte, error) {
	e := a.engineFor(int(p.Agent))
	if e == nil {
		return buf, fmt.Errorf("hostlink: no apply engine for shard %d", p.Agent)
	}
	err := e.ApplyDiff(&DiffFrame{Agent: p.Agent, Generation: p.Generation, Flags: p.Flags})
	res := e.LastResult()
	a.mu.Lock()
	a.stats.Applies++
	if err != nil {
		a.stats.ApplyErrors++
	}
	a.mu.Unlock()
	_ = conn.SetWriteDeadline(time.Now().Add(DefaultWriteTimeout))
	return WriteFrame(conn, buf, &Applied{
		Agent:      p.Agent,
		Generation: res.Generation,
		Digest:     res.Digest,
		Attempts:   res.Attempts,
		Retried:    res.Retried,
	})
}

// noteCommit verifies a committed generation against the shard replica
// when their cursors line up — a cheap continuous audit of the chain.
func (a *Agent) noteCommit(c *Commit) {
	gen, digest := a.ReplicaFor(int(c.Agent)).Cursor()
	a.mu.Lock()
	a.stats.Commits++
	if gen == c.Generation && digest != c.Digest {
		a.stats.CommitMismatches++
	}
	a.mu.Unlock()
}

// ack reports one shard replica's cursor and digest.
func (a *Agent) ack(conn net.Conn, buf []byte, shard int) ([]byte, error) {
	gen, digest := a.ReplicaFor(shard).Cursor()
	_ = conn.SetWriteDeadline(time.Now().Add(DefaultWriteTimeout))
	return WriteFrame(conn, buf, &Ack{Agent: int32(shard), Generation: gen, Digest: digest})
}
