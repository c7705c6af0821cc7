package hostlink

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	"celestial/internal/supervise"
)

// remote is one attached agent connection's bookkeeping. Everything here
// is wall-clock state: it feeds the /agents status document and the
// end-of-run barrier, never the simulation or the run report.
type remote struct {
	agent int
	conn  net.Conn
	addr  string
	apply bool

	// done is closed when the connection is torn down (reader error,
	// replacement, Close).
	done chan struct{}

	// wmu serializes frame writes (see Fanout.write): the writer goroutine
	// streams frames, the reader goroutine answers Applied with Commit,
	// and Close says goodbye — interleaved writes would corrupt the stream.
	wmu  sync.Mutex
	cbuf []byte // commit scratch, owned by the reader goroutine

	// streams[shard] is the delivery state of one shard this connection
	// serves: its own shard plus any it adopted after a rebalance. The
	// map and the ack/propose fields are guarded by fo.mu; the cursor
	// belongs to the writer goroutine.
	streams map[int]*stream

	lastSeen  time.Time
	helloUsed bool
	gone      bool
}

// stream is one shard's delivery state on one connection.
type stream struct {
	shard int

	// Writer-owned: the replay cursor; announced is the remote-ownership
	// epoch last announced with a Reassign frame (own-shard streams never
	// announce); frames holds the shard's views of the generations being
	// replayed, copied out of the log and reused pass after pass.
	cursor    uint64
	announced uint64
	epoch     uint64
	frames    []DiffFrame

	// Guarded by fo.mu.
	acked          uint64
	ackDigest      uint64
	sent           uint64
	proposed       uint64
	resolved       uint64
	snapshots      int
	replays        int
	collapsed      int
	digestMismatch int
	applies        int
	retried        int
	forceSnap      bool
}

// RemoteStatus describes one attached agent connection for the /agents
// document. The cursor fields are the agent's own shard stream; Owns
// lists every shard the connection currently serves (its own plus any
// adopted after a rebalance).
type RemoteStatus struct {
	Connected      bool   `json:"connected"`
	Addr           string `json:"addr,omitempty"`
	Apply          bool   `json:"apply,omitempty"`
	Owns           []int  `json:"owns,omitempty"`
	Acked          uint64 `json:"acked"`
	AckDigest      string `json:"ack_digest,omitempty"`
	Sent           uint64 `json:"sent"`
	Proposed       uint64 `json:"proposed,omitempty"`
	Resolved       uint64 `json:"resolved,omitempty"`
	Applies        int    `json:"applies,omitempty"`
	ApplyRetries   int    `json:"apply_retries,omitempty"`
	Snapshots      int    `json:"snapshots"`
	Replays        int    `json:"replays"`
	Collapsed      int    `json:"collapsed"`
	DigestMismatch int    `json:"digest_mismatches"`
	LastSeenUnixMs int64  `json:"last_seen_unix_ms,omitempty"`
}

// Serve accepts agent connections on ln until the listener is closed.
// Each accepted connection is handshaken and then served by a writer
// goroutine (frames out) and a reader goroutine (acks/heartbeats in).
func (fo *Fanout) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go fo.serveConn(conn)
	}
}

// serveConn handshakes one agent connection and runs its writer loop.
func (fo *Fanout) serveConn(conn net.Conn) {
	defer conn.Close()
	hb := fo.cfg.Heartbeat
	_ = conn.SetReadDeadline(time.Now().Add(3 * hb))
	f, buf, err := ReadFrame(conn, nil)
	if err != nil {
		return
	}
	hello, ok := f.(*Hello)
	if !ok {
		return
	}
	if hello.Version != ProtocolVersion {
		_, _ = WriteFrame(conn, buf, &Bye{Reason: (&VersionError{Got: hello.Version, Want: ProtocolVersion}).Error()})
		return
	}
	if fo.cfg.Token != "" && subtle.ConstantTimeCompare([]byte(hello.Token), []byte(fo.cfg.Token)) != 1 {
		_, _ = WriteFrame(conn, buf, &Bye{Reason: "unauthorized"})
		return
	}
	agent := int(hello.Agent)
	if agent < 0 || agent >= fo.cfg.Shards {
		_, _ = WriteFrame(conn, buf, &Bye{Reason: fmt.Sprintf("agent %d out of range [0, %d)", agent, fo.cfg.Shards)})
		return
	}

	r := &remote{
		agent:    agent,
		conn:     conn,
		addr:     conn.RemoteAddr().String(),
		apply:    hello.Flags&HelloApply != 0,
		done:     make(chan struct{}),
		streams:  make(map[int]*stream),
		lastSeen: time.Now(),
	}

	fo.mu.Lock()
	if fo.closed {
		fo.mu.Unlock()
		_, _ = WriteFrame(conn, buf, &Bye{Reason: "shutting down"})
		return
	}
	if prev := fo.remotes[agent]; prev != nil {
		// Latest connection wins; the replaced one unblocks and exits.
		prev.detachLocked()
	}
	fo.remotes[agent] = r
	// Reclaim the agent's own shard if a survivor adopted it while the
	// agent was away — unless the shard died on the virtual plane, which
	// is permanent.
	if !fo.deadShard[agent] && fo.remoteOwner[agent] != agent {
		fo.remoteOwner[agent] = agent
		fo.remoteEpoch[agent]++
	}
	head := fo.published
	fo.mu.Unlock()
	fo.wakeAcks()

	buf, err = WriteFrame(conn, buf, &Welcome{
		Version:    ProtocolVersion,
		Agent:      int32(agent),
		Shards:     int32(fo.cfg.Shards),
		Generation: head,
		Flags:      hello.Flags & HelloApply,
		Seed:       fo.cfg.Seed,
	})
	if err != nil {
		fo.detach(r)
		return
	}

	go fo.readLoop(r)
	fo.writeLoop(r, hello, buf)
	fo.detach(r)
}

// detachLocked marks a remote replaced/gone under fo.mu.
func (r *remote) detachLocked() {
	if !r.gone {
		r.gone = true
		close(r.done)
		r.conn.Close()
	}
}

// detach removes a remote from the attach table (if it is still the
// current one), hands its shards to a survivor, and wakes the barrier.
func (fo *Fanout) detach(r *remote) {
	fo.mu.Lock()
	r.detachLocked()
	if fo.remotes[r.agent] == r {
		fo.remotes[r.agent] = nil
		if !fo.closed {
			for s := 0; s < fo.cfg.Shards; s++ {
				if fo.remoteOwner[s] == r.agent {
					fo.reassignRemoteLocked(s)
				}
			}
		}
	}
	fo.mu.Unlock()
	fo.wakeAcks()
}

// reassignRemoteLocked moves a shard's remote stream after its owner
// detached or died: the lowest attached agent adopts it; with no
// survivor it reverts to its own agent (resuming if that agent returns)
// unless the shard is virtually dead, in which case it goes unserved (-1).
func (fo *Fanout) reassignRemoteLocked(shard int) {
	best := -1
	for a, r := range fo.remotes {
		if r != nil && !r.gone && (!fo.deadShard[shard] || a != shard) {
			best = a
			break
		}
	}
	if best == -1 && !fo.deadShard[shard] {
		best = shard
	}
	if fo.remoteOwner[shard] != best {
		fo.remoteOwner[shard] = best
		fo.remoteEpoch[shard]++
	}
}

// readLoop consumes acks, apply results and heartbeats until the
// connection dies. A silent agent is disconnected after three missed
// heartbeat intervals — the deadline-based loss detection the wire
// contract promises.
func (fo *Fanout) readLoop(r *remote) {
	defer fo.detach(r)
	var buf []byte
	for {
		_ = r.conn.SetReadDeadline(time.Now().Add(3 * fo.cfg.Heartbeat))
		f, b, err := ReadFrame(r.conn, buf)
		buf = b
		if err != nil {
			return
		}
		switch f := f.(type) {
		case *Ack:
			fo.noteAck(r, f)
		case *Applied:
			fo.noteApplied(r, f)
		case *Heartbeat:
			fo.mu.Lock()
			r.lastSeen = time.Now()
			fo.mu.Unlock()
		case *Bye:
			return
		}
	}
}

// noteAck records a stream's applied cursor and verifies its digest
// chain against the coordinator's. A mismatch forces a snapshot resync
// on the next writer pass — divergence is healed, not accumulated.
func (fo *Fanout) noteAck(r *remote, a *Ack) {
	shard := int(a.Agent)
	if shard < 0 || shard >= fo.cfg.Shards {
		return
	}
	fo.mu.Lock()
	r.lastSeen = time.Now()
	if st := r.streams[shard]; st != nil {
		st.acked = a.Generation
		st.ackDigest = a.Digest
		if m, ok := fo.markAt(shard, a.Generation); ok && m.chain != a.Digest {
			st.digestMismatch++
			st.forceSnap = true
		}
	}
	fo.mu.Unlock()
	fo.wakeAcks()
}

// noteApplied resolves one commit-protocol proposal: the agent's result
// digest is compared against the loopback engine's; a mismatch counts as
// a fallback apply (the coordinator's mirror is authoritative either
// way). The generation is then committed back to the agent with the
// coordinator's chain digest.
func (fo *Fanout) noteApplied(r *remote, a *Applied) {
	shard := int(a.Agent)
	if shard < 0 || shard >= fo.cfg.Shards {
		return
	}
	var commit uint64
	fo.mu.Lock()
	r.lastSeen = time.Now()
	st := r.streams[shard]
	if st == nil {
		fo.mu.Unlock()
		return
	}
	m, _ := fo.markAt(shard, a.Generation)
	if m.flags == 0 || m.result != a.Digest {
		fo.fallback[shard]++
	}
	if a.Generation > st.resolved {
		st.resolved = a.Generation
	}
	st.applies++
	st.retried += int(a.Retried)
	commit = m.chain
	fo.mu.Unlock()
	fo.wakeAcks()

	r.cbuf, _ = fo.write(r, r.cbuf, &Commit{Agent: a.Agent, Generation: a.Generation, Digest: commit})
}

// write sends one frame to an agent under the connection's write lock and
// the write deadline, reusing buf.
func (fo *Fanout) write(r *remote, buf []byte, f any) ([]byte, error) {
	r.wmu.Lock()
	defer r.wmu.Unlock()
	_ = r.conn.SetWriteDeadline(time.Now().Add(fo.cfg.WriteTimeout))
	return WriteFrame(r.conn, buf, f)
}

// syncStreams reconciles the connection's stream set with the current
// remote-ownership table: adopted shards appear, reassigned-away shards
// vanish. Returns the streams to serve, in shard order, the published
// head, and the wake channel taken with it: whatever changes after this
// call — a publication, an ack, an ownership move — closes that channel.
func (fo *Fanout) syncStreams(r *remote, hello *Hello) ([]*stream, uint64, <-chan struct{}) {
	fo.mu.Lock()
	defer fo.mu.Unlock()
	for s := 0; s < fo.cfg.Shards; s++ {
		if fo.remoteOwner[s] != r.agent {
			delete(r.streams, s)
			continue
		}
		st := r.streams[s]
		if st == nil {
			st = &stream{shard: s, announced: ^uint64(0)}
			if s == r.agent && !r.helloUsed {
				// Resume the agent's own replica from its Hello cursor if
				// the log still vouches for its chain digest there;
				// anything else starts from a snapshot.
				if m, ok := fo.markAt(s, hello.Cursor); ok && m.chain == hello.Digest {
					st.cursor = hello.Cursor
				}
				r.helloUsed = true
			}
			r.streams[s] = st
		}
		st.epoch = fo.remoteEpoch[s]
	}
	out := make([]*stream, 0, len(r.streams))
	for _, st := range r.streams {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].shard < out[j].shard })
	return out, fo.published, fo.ackNotify
}

// writeLoop streams frames to one agent: per owned shard,
// resume-or-snapshot from the cursor, ring replay as generations land,
// commit-protocol proposals in apply mode, Reassign announcements when a
// shard is adopted, heartbeats when idle, and snapshot collapse when a
// stream falls too far behind.
func (fo *Fanout) writeLoop(r *remote, hello *Hello, buf []byte) {
	var err error
	// One heartbeat timer for the whole loop, re-armed per idle wait: a
	// time.After per wake would stay live until it fired, one per tick.
	// Reset leaves no stale tick behind (Go 1.23 timer semantics, which
	// go.mod's floor selects), whether the timer fired, was read or runs.
	heartbeat := time.NewTimer(fo.cfg.Heartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.done:
			return
		default:
		}
		streams, head, wake := fo.syncStreams(r, hello)
		progress := false
		for _, st := range streams {
			var p bool
			p, buf, err = fo.serveStream(r, st, head, buf)
			if err != nil {
				return
			}
			progress = progress || p
		}
		if progress {
			continue
		}

		// Caught up (or nothing published yet): wait for the next
		// publication, ack or ownership change, heartbeating so the agent
		// knows we are alive.
		heartbeat.Reset(fo.cfg.Heartbeat)
		select {
		case <-r.done:
			return
		case <-wake:
		case <-heartbeat.C:
			if buf, err = fo.write(r, buf, &Heartbeat{Generation: head}); err != nil {
				return
			}
		}
	}
}

// serveStream advances one shard stream as far as it can without
// blocking on the producer: Reassign announcement, snapshot resync,
// ring replay with proposals. Reports whether it made progress.
func (fo *Fanout) serveStream(r *remote, st *stream, head uint64, buf []byte) (bool, []byte, error) {
	progress := false
	var err error

	// An adopted shard announces its ownership epoch before any frames:
	// the agent creates (or resets expectations for) a secondary replica.
	if st.shard != r.agent && st.announced != st.epoch {
		if buf, err = fo.write(r, buf, &Reassign{Shard: int32(st.shard), Epoch: st.epoch, Generation: head}); err != nil {
			return false, buf, err
		}
		st.announced = st.epoch
		st.cursor = 0 // adopted state starts from a snapshot
		progress = true
	}

	fo.mu.Lock()
	force := st.forceSnap
	st.forceSnap = false
	fo.mu.Unlock()

	// The shard ladder's top rung is the backlog rung of its remote
	// follower too: a stream past it has its backlog collapsed into a
	// single snapshot instead of replaying every retained generation.
	lag := head - st.cursor
	collapse := st.cursor > 0 && lag > supervise.ActivityOnlyLag
	if collapse {
		fo.mu.Lock()
		st.collapsed++
		fo.mu.Unlock()
	}
	if st.cursor == 0 || force || collapse {
		if head == 0 {
			st.cursor = 0
			return progress, buf, nil
		}
		var sent bool
		sent, buf, err = fo.sendSnapshot(r, st, buf)
		if err != nil || !sent {
			return progress, buf, err
		}
		progress = true
	}

	if st.cursor > 0 && st.cursor < head {
		frames, ok := fo.replayViews(st, head)
		if !ok {
			// The log evicted the cursor while we slept: forced full
			// resync on the next pass.
			return true, buf, nil
		}
		for i := range frames {
			if buf, err = fo.write(r, buf, &frames[i]); err != nil {
				return progress, buf, err
			}
			st.cursor = frames[i].Generation
			if buf, err = fo.propose(r, st, st.cursor, buf); err != nil {
				return progress, buf, err
			}
		}
		fo.mu.Lock()
		st.sent = st.cursor
		st.replays++
		fo.mu.Unlock()
		fo.wakeAcks() // the barrier waits for sent as well as for the ack
		progress = true
	}
	return progress, buf, nil
}

// replayViews copies the stream's views of the generations in (cursor,
// head] out of the log, under fo.mu because Advance refills the slots in
// place; head is published, so every one of them is retained or evicted,
// never in progress. When the log has evicted the cursor it returns false
// instead, counts a forced resync and makes the next pass snapshot.
func (fo *Fanout) replayViews(st *stream, head uint64) ([]DiffFrame, bool) {
	fo.mu.Lock()
	defer fo.mu.Unlock()
	if _, ok := fo.log.At(st.cursor + 1); !ok {
		st.forceSnap = true
		fo.forcedResyncs++
		return nil, false
	}
	n := int(head - st.cursor)
	for len(st.frames) < n {
		st.frames = append(st.frames, DiffFrame{})
	}
	frames := st.frames[:n]
	for i := range frames {
		g, _ := fo.log.At(st.cursor + 1 + uint64(i))
		fo.buildFrameInto(&frames[i], st.shard, &g.Record)
		frames[i].Agent = int32(st.shard)
	}
	return frames, true
}

// propose runs the commit protocol for one generation in apply mode: if
// the loopback engine recorded a result for it (Distribute publishes a
// generation after applying it), wait until the stream's previous
// proposal is resolved, then ship a Propose. One proposal is in flight per
// stream.
func (fo *Fanout) propose(r *remote, st *stream, gen uint64, buf []byte) ([]byte, error) {
	if !r.apply {
		return buf, nil
	}
	fo.mu.Lock()
	m, _ := fo.markAt(st.shard, gen)
	fo.mu.Unlock()
	if m.flags == 0 {
		return buf, nil
	}
	fo.awaitResolved(r, st)
	// The proposal counts as in flight before its first byte is written:
	// the barrier reads resolved < proposed, and must not pass while the
	// write below is still blocked. A failed write tears the connection
	// down, and a detached remote is no longer waited for.
	fo.mu.Lock()
	st.proposed = gen
	fo.mu.Unlock()
	return fo.write(r, buf, &Propose{Agent: int32(st.shard), Generation: gen, Flags: m.flags})
}

// awaitResolved blocks until the stream's previous proposal is resolved.
// One left unanswered for the write timeout is charged as one fallback
// apply — the coordinator's mirror already applied that generation, so the
// run proceeds, never silently — and counts as resolved.
func (fo *Fanout) awaitResolved(r *remote, st *stream) {
	var timeout *time.Timer // armed by the first wait; most proposals are answered
	for {
		fo.mu.Lock()
		pending := st.resolved < st.proposed
		ch := fo.ackNotify
		fo.mu.Unlock()
		if !pending {
			return
		}
		if timeout == nil {
			timeout = time.NewTimer(fo.cfg.WriteTimeout)
			defer timeout.Stop()
		}
		select {
		case <-r.done:
			return
		case <-ch:
		case <-timeout.C:
			fo.mu.Lock()
			if st.resolved < st.proposed {
				fo.fallback[st.shard]++
				st.resolved = st.proposed
			}
			fo.mu.Unlock()
			fo.wakeAcks()
			return
		}
	}
}

// sendSnapshot ships a full shard snapshot at the producer's newest
// generation and advances the stream cursor. Returns false (without error)
// when that generation is not published yet, or when the log no longer
// holds it — it was evicted while the snapshot was built, so the
// producer has moved on. With nothing sent the writer falls through to its
// idle wait, which retries on the next publication.
func (fo *Fanout) sendSnapshot(r *remote, st *stream, buf []byte) (bool, []byte, error) {
	snap, err := fo.cfg.Snapshot(st.shard)
	if err != nil {
		return false, buf, err
	}
	fo.mu.Lock()
	m, ok := fo.markAt(st.shard, snap.Generation)
	ok = ok && snap.Generation <= fo.published
	fo.mu.Unlock()
	if !ok {
		st.cursor = 0
		return false, buf, nil
	}
	snap.Agent = int32(st.shard)
	snap.Digest = m.chain
	if buf, err = fo.write(r, buf, snap); err != nil {
		return false, buf, err
	}
	fo.mu.Lock()
	st.snapshots++
	st.sent = snap.Generation
	fo.mu.Unlock()
	fo.wakeAcks()
	st.cursor = snap.Generation
	return true, buf, nil
}

// wakeAcks wakes WaitRemotes waiters and idle writers.
func (fo *Fanout) wakeAcks() {
	fo.mu.Lock()
	close(fo.ackNotify)
	fo.ackNotify = make(chan struct{})
	fo.mu.Unlock()
}

// ConnectedAgents returns how many agents are currently attached.
func (fo *Fanout) ConnectedAgents() int {
	fo.mu.Lock()
	defer fo.mu.Unlock()
	n := 0
	for _, r := range fo.remotes {
		if r != nil {
			n++
		}
	}
	return n
}

// servingLocked returns the attached remote serving shard s's stream, nil
// when the shard goes unserved (owner -1) or its owner is not attached.
func (fo *Fanout) servingLocked(s int) *remote {
	if owner := fo.remoteOwner[s]; owner >= 0 {
		if r := fo.remotes[owner]; r != nil && !r.gone {
			return r
		}
	}
	return nil
}

// remoteLagLocked reports whether any served stream is behind the
// published head: not sent or not acked up to it, or a proposal
// unresolved. Sent counts because the writer records it after its
// proposals up to head, and the ack of a frame can arrive before them. A
// shard whose remote owner is attached but whose stream has not
// materialized yet counts as behind — the barrier must not pass between a
// detach and the survivor's adoption.
func (fo *Fanout) remoteLagLocked() bool {
	for s := 0; s < fo.cfg.Shards; s++ {
		r := fo.servingLocked(s)
		if r == nil {
			continue
		}
		st := r.streams[s]
		if st == nil || st.sent < fo.published || st.acked < fo.published || st.resolved < st.proposed {
			return true
		}
	}
	return false
}

// WaitRemotes blocks until every served shard stream has been sent and
// has acked the published head and resolved its proposals, or the timeout
// elapses. Detached agents do not count — a killed agent must not stall
// the run; its shard is adopted by a survivor or resyncs when it
// returns. Reports whether all served streams were caught up on return.
func (fo *Fanout) WaitRemotes(timeout time.Duration) bool {
	expired := time.NewTimer(timeout)
	defer expired.Stop()
	for {
		fo.mu.Lock()
		caughtUp := !fo.remoteLagLocked()
		ch := fo.ackNotify
		fo.mu.Unlock()
		if caughtUp {
			return true
		}
		select {
		case <-ch:
		case <-expired.C:
			return false
		}
	}
}

// VerifyRemotes checks every served shard stream's final state against
// the coordinator: sent and acked at the published head, chain digest
// identical, proposals resolved. It is the distributed run's proof of
// equivalence with the loopback path.
func (fo *Fanout) VerifyRemotes() error {
	fo.mu.Lock()
	defer fo.mu.Unlock()
	head := fo.published
	var errs []error
	for s := 0; s < fo.cfg.Shards; s++ {
		r := fo.servingLocked(s)
		if r == nil {
			continue
		}
		owner := r.agent
		st := r.streams[s]
		if st == nil {
			errs = append(errs, fmt.Errorf("hostlink: shard %d has no stream on agent %d", s, owner))
			continue
		}
		if st.sent < head || st.acked != head {
			errs = append(errs, fmt.Errorf("hostlink: shard %d on agent %d sent generation %d and acked %d, head is %d", s, owner, st.sent, st.acked, head))
			continue
		}
		if m, ok := fo.markAt(s, head); ok && m.chain != st.ackDigest {
			errs = append(errs, fmt.Errorf("hostlink: shard %d digest %016x diverged from coordinator %016x at generation %d",
				s, st.ackDigest, m.chain, head))
		}
		if st.resolved < st.proposed {
			errs = append(errs, fmt.Errorf("hostlink: shard %d on agent %d resolved generation %d behind proposal %d", s, owner, st.resolved, st.proposed))
		}
	}
	return errors.Join(errs...)
}

// Close says goodbye to every attached agent and refuses new ones.
func (fo *Fanout) Close() {
	fo.mu.Lock()
	fo.closed = true
	remotes := slices.Clone(fo.remotes)
	fo.mu.Unlock()
	for _, r := range remotes {
		if r == nil {
			continue
		}
		_, _ = fo.write(r, nil, &Bye{Reason: "run complete"})
		fo.detach(r)
	}
}

// AgentStatus is one shard's status document entry: the deterministic
// loopback counters plus, when a remote agent is attached, its wall-clock
// connection state.
type AgentStatus struct {
	ShardStats
	Remote *RemoteStatus `json:"remote,omitempty"`
}

// AgentsStatus returns the per-shard status documents for the /agents
// endpoint. The ShardStats half is the per-tick snapshot published by
// Distribute (the simulation owns the live counters); the Remote half
// exists only here.
func (fo *Fanout) AgentsStatus() []AgentStatus {
	fo.mu.Lock()
	defer fo.mu.Unlock()
	stats := fo.statsSnap
	out := make([]AgentStatus, len(stats))
	for i, st := range stats {
		out[i] = AgentStatus{ShardStats: st}
		if r := fo.remotes[i]; r != nil && !r.gone {
			rs := &RemoteStatus{
				Connected:      true,
				Addr:           r.addr,
				Apply:          r.apply,
				LastSeenUnixMs: r.lastSeen.UnixMilli(),
			}
			for s, stm := range r.streams {
				rs.Owns = append(rs.Owns, s)
				rs.Applies += stm.applies
				rs.ApplyRetries += stm.retried
				rs.Snapshots += stm.snapshots
				rs.Replays += stm.replays
				rs.Collapsed += stm.collapsed
				rs.DigestMismatch += stm.digestMismatch
				if s == r.agent {
					rs.Acked = stm.acked
					rs.AckDigest = fmt.Sprintf("%016x", stm.ackDigest)
					rs.Sent = stm.sent
					rs.Proposed = stm.proposed
					rs.Resolved = stm.resolved
				}
			}
			sort.Ints(rs.Owns)
			out[i].Remote = rs
		}
	}
	return out
}
