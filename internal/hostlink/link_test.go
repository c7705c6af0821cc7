package hostlink

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"celestial/internal/leaktest"
	"celestial/internal/supervise"
)

// tcpHarness runs a Fanout serving real TCP agents against the memSource
// producer. The loopback half still ticks deterministically; the remote
// half is exercised with small heartbeats so tests stay fast.
type tcpHarness struct {
	*harness
	t      *testing.T
	ln     net.Listener
	agents []*agentProc // every agent ever started, for the cleanup's join
	mu     sync.Mutex
}

// agentProc is one running Agent; done is closed when its Run returns.
type agentProc struct {
	agent  *Agent
	cancel context.CancelFunc
	done   chan struct{}
}

func newTCPHarness(t *testing.T, shards, retention int, mod func(*Config)) *tcpHarness {
	t.Helper()
	// Every goroutine the harness starts — the accept loop, each
	// connection's writer and reader, each agent — must be gone when the
	// test is: a writer that never wakes is a leak.
	leaktest.Check(t)
	h := newHarness(t, shards, retention, func(c *Config) {
		c.Heartbeat = 50 * time.Millisecond
		c.WriteTimeout = time.Second
		if mod != nil {
			mod(c)
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	th := &tcpHarness{harness: h, t: t, ln: ln}
	go th.fo.Serve(ln)
	t.Cleanup(func() {
		th.fo.Close()
		ln.Close()
		th.mu.Lock()
		for _, p := range th.agents {
			p.cancel()
		}
		// The agents log through t.Logf, which panics once the test has
		// completed: wait for every one of them to return.
		for _, p := range th.agents {
			<-p.done
		}
		th.mu.Unlock()
	})
	return th
}

// startAgent launches (or relaunches) an agent for a shard, reusing the
// given replica so reconnects resume from its cursor.
func (th *tcpHarness) startAgent(id int, r *Replica) *agentProc {
	return th.launch(&Agent{ID: id, Replica: r})
}

// startApplyAgent is startAgent in apply mode: proposals are answered
// through the engines newEngine builds.
func (th *tcpHarness) startApplyAgent(id int, r *Replica, newEngine func(shard int, seed int64) ResultApplier) *agentProc {
	return th.launch(&Agent{ID: id, Replica: r, Apply: true, NewApplier: newEngine})
}

// launch runs agent a against the harness's listener, with the
// coordinator's heartbeat.
func (th *tcpHarness) launch(a *Agent) *agentProc {
	ctx, cancel := context.WithCancel(context.Background())
	a.Addr = th.ln.Addr().String()
	a.Heartbeat = th.fo.cfg.Heartbeat
	a.ReconnectWait = 20 * time.Millisecond
	a.Logf = th.t.Logf
	p := &agentProc{agent: a, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(p.done)
		_ = a.Run(ctx) // returns ctx's error once cancelled
	}()
	th.mu.Lock()
	th.agents = append(th.agents, p)
	th.mu.Unlock()
	return p
}

func (th *tcpHarness) waitAttached(n int) {
	th.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for th.fo.ConnectedAgents() < n {
		if time.Now().After(deadline) {
			th.t.Fatalf("only %d/%d agents attached", th.fo.ConnectedAgents(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// kill hard-kills an agent (connection torn down, no Bye) and returns
// once the kill has landed on both ends: the agent's Run has returned and
// the coordinator has detached the connection, leaving remaining agents
// attached. Cancelling alone is asynchronous — a test that ticks on right
// after it can still be served by the "dead" agent.
func (th *tcpHarness) kill(p *agentProc, remaining int) {
	th.t.Helper()
	p.cancel()
	<-p.done
	deadline := time.Now().Add(5 * time.Second)
	for th.fo.ConnectedAgents() > remaining {
		if time.Now().After(deadline) {
			th.t.Fatal("killed agent never detached")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (th *tcpHarness) barrier() {
	th.t.Helper()
	if !th.fo.WaitRemotes(5 * time.Second) {
		th.t.Fatal("remote agents did not ack the head generation in time")
	}
}

func TestTCPAgentsFollowAndVerify(t *testing.T) {
	th := newTCPHarness(t, 2, 64, nil)
	r0, r1 := NewReplica(), NewReplica()
	th.startAgent(0, r0)
	th.startAgent(1, r1)
	th.waitAttached(2)

	for i := 0; i < 8; i++ {
		th.tick(supervise.LevelFull)
		th.barrier()
	}
	if err := th.fo.VerifyRemotes(); err != nil {
		t.Fatalf("digest verification failed: %v", err)
	}
	stats := th.fo.ShardStats()
	for i, r := range []*Replica{r0, r1} {
		gen, digest := r.Cursor()
		if gen != 8 {
			t.Errorf("replica %d cursor = %d, want 8", i, gen)
		}
		if digest != stats[i].Digest {
			t.Errorf("replica %d digest %016x != coordinator %016x", i, digest, stats[i].Digest)
		}
		if _, _, _, frames, snaps := r.Counts(); frames == 0 && snaps == 0 {
			t.Errorf("replica %d consumed nothing", i)
		}
	}
	status := th.fo.AgentsStatus()
	if len(status) != 2 {
		t.Fatalf("AgentsStatus returned %d entries, want 2", len(status))
	}
	for i, st := range status {
		if st.Remote == nil || !st.Remote.Connected {
			t.Errorf("agent %d status missing remote half: %+v", i, st)
		} else if st.Remote.Acked != 8 {
			t.Errorf("agent %d acked %d, want 8", i, st.Remote.Acked)
		}
	}
}

func TestTCPAgentHardKillAndRejoinResyncsFromRing(t *testing.T) {
	th := newTCPHarness(t, 2, 64, nil)
	r0, r1 := NewReplica(), NewReplica()
	th.startAgent(0, r0)
	p1 := th.startAgent(1, r1)
	th.waitAttached(2)

	for i := 0; i < 3; i++ {
		th.tick(supervise.LevelFull)
		th.barrier()
	}
	// The fresh replica bootstraps from one snapshot (the gen-1 Full frame
	// carries no deltas); everything after rejoin must be ring replay.
	_, _, _, _, baseSnaps := r1.Counts()

	// Hard-kill agent 1 (connection torn down, no Bye) and keep ticking:
	// the run must not stall on the dead remote.
	th.kill(p1, 1)
	for i := 0; i < 3; i++ {
		th.tick(supervise.LevelFull)
		th.barrier() // only agent 0 attached; must not block
	}

	// The rejoining agent reuses its replica: its Hello cursor is 3,
	// still inside the 64-deep ring, so it catches up by replay.
	th.startAgent(1, r1)
	th.waitAttached(2)
	th.tick(supervise.LevelFull)
	th.barrier()
	if err := th.fo.VerifyRemotes(); err != nil {
		t.Fatalf("digest verification after rejoin failed: %v", err)
	}
	gen, digest := r1.Cursor()
	if gen != 7 {
		t.Errorf("rejoined replica cursor = %d, want 7", gen)
	}
	if want := th.fo.ShardStats()[1].Digest; digest != want {
		t.Errorf("rejoined replica digest %016x != coordinator %016x", digest, want)
	}
	if _, _, _, _, snaps := r1.Counts(); snaps != baseSnaps {
		t.Errorf("ring replay expected, but rejoin took %d extra snapshots", snaps-baseSnaps)
	}
}

func TestTCPAgentRejoinAfterEvictionSnapshots(t *testing.T) {
	th := newTCPHarness(t, 1, 4, nil) // tiny ring
	r0 := NewReplica()
	p0 := th.startAgent(0, r0)
	th.waitAttached(1)
	th.tick(supervise.LevelFull)
	th.barrier()

	th.kill(p0, 0)
	// Outrun the 4-deep ring while the agent is away.
	for i := 0; i < 10; i++ {
		th.tick(supervise.LevelFull)
	}

	th.startAgent(0, r0)
	th.waitAttached(1)
	th.barrier()
	if err := th.fo.VerifyRemotes(); err != nil {
		t.Fatalf("digest verification after eviction resync failed: %v", err)
	}
	gen, digest := r0.Cursor()
	if gen != 11 {
		t.Errorf("replica cursor = %d, want 11", gen)
	}
	if want := th.fo.ShardStats()[0].Digest; digest != want {
		t.Errorf("replica digest %016x != coordinator %016x", digest, want)
	}
	if _, _, _, _, snaps := r0.Counts(); snaps < 2 {
		t.Errorf("replica snapshots = %d, want ≥ 2 (initial + eviction resync)", snaps)
	}
}

// TestTCPAgentEvictedCursorForcesOneResync: a remote writer whose cursor
// the log evicted while it slept sends its agent back to a snapshot and
// counts exactly one forced resync. The writer cannot replay gap by gap:
// four generations are retained before one of them is published, so the
// one wake it gets finds generations 4–6 in a three-deep log and its
// cursor at 2.
func TestTCPAgentEvictedCursorForcesOneResync(t *testing.T) {
	th := newTCPHarness(t, 1, 3, nil)
	r0 := NewReplica()
	th.startAgent(0, r0)
	th.waitAttached(1)
	for i := 0; i < 2; i++ {
		th.tick(supervise.LevelFull)
		th.barrier()
	}
	if got := th.fo.RingStats().ForcedResyncs; got != 0 {
		t.Fatalf("forced resyncs = %d while the writer kept up, want 0", got)
	}
	_, _, _, _, snaps := r0.Counts()

	for i := 0; i < 4; i++ {
		th.advance()
	}
	if err := th.fo.Distribute(supervise.LevelFull); err != nil {
		t.Fatal(err)
	}
	th.barrier()
	if err := th.fo.VerifyRemotes(); err != nil {
		t.Fatalf("digest verification after the forced resync failed: %v", err)
	}
	rs := th.fo.RingStats()
	if rs.ForcedResyncs != 1 {
		t.Errorf("forced resyncs = %d, want 1", rs.ForcedResyncs)
	}
	if rs.Capacity != 3 || rs.Length != 3 || rs.Evictions != 3 {
		t.Errorf("ring stats = %+v, want capacity 3, length 3, 3 evictions", rs)
	}
	if gen, _ := r0.Cursor(); gen != 6 {
		t.Errorf("replica cursor = %d, want 6", gen)
	}
	if _, _, _, _, after := r0.Counts(); after != snaps+1 {
		t.Errorf("the resync took %d snapshots, want 1", after-snaps)
	}
}

// TestWriterIdleCheckAgainstProducerLock is the regression test of a
// lock-order inversion: the producer calls Advance (fo.mu) while holding its
// own lock, so a writer must not call back into the producer while holding
// fo.mu. Four writers replay every generation from the tier's log under
// fo.mu against a producer ticking as fast as it can, and bootstrap
// through Snapshot, the producer callback; with an inversion the run stops
// within a few hundred ticks.
func TestWriterIdleCheckAgainstProducerLock(t *testing.T) {
	const shards, ticks = 4, 3000
	th := newTCPHarness(t, shards, 64, nil)
	replicas := make([]*Replica, shards)
	for i := range replicas {
		replicas[i] = NewReplica()
		th.startAgent(i, replicas[i])
	}
	th.waitAttached(shards)

	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for i := 0; i < ticks; i++ {
			th.tick(supervise.LevelFull)
		}
	}()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("producer and writers deadlocked")
	}
	th.barrier()
	if err := th.fo.VerifyRemotes(); err != nil {
		t.Fatalf("digest verification failed: %v", err)
	}
	for i, r := range replicas {
		if gen, _ := r.Cursor(); gen != ticks {
			t.Errorf("replica %d cursor = %d, want %d", i, gen, ticks)
		}
	}
}
