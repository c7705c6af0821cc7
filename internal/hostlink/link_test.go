package hostlink

import (
	"bytes"
	"context"
	"math"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"celestial/internal/constellation"
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

// TestTCPAgentReceivesTheShardView takes one record the whole way an
// agent's frames travel — Advance filters it for shard 1 of 2 (odd node
// IDs), the remote writer encodes the frame onto a TCP connection, the
// agent decodes it into its replica — and checks that the replica retains
// the shard's view of the record as the test works it out by hand. The
// record has a link appearing, one disappearing and one changing delay on
// the shard, one of each off it, and activity flips on both. Each link
// keeps its old delay: an appearing link's is -1, not 0.
func TestTCPAgentReceivesTheShardView(t *testing.T) {
	th := newTCPHarness(t, 2, 8, nil)
	rep := NewReplica()
	th.startAgent(1, rep)
	push := func(d *constellation.Diff) {
		t.Helper()
		th.gen++
		th.src.push(th.gen, d, th.fo.Advance)
		if err := th.fo.Distribute(supervise.LevelFull); err != nil {
			t.Fatal(err)
		}
	}

	// The agent attaches from a snapshot of generation 1, then follows.
	push(&constellation.Diff{DiffRecord: constellation.DiffRecord{T: 2, BaseT: math.NaN(), Full: true}})
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if gen, _ := rep.Cursor(); gen == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the agent never attached")
		}
	}
	diff := &constellation.Diff{DiffRecord: constellation.DiffRecord{
		T: 4, BaseT: 2, Degraded: 1, CarriedPaths: 3, RepairedPaths: 2, RepairFallbacks: 1,
		Added:        []constellation.LinkDelta{{A: 1, B: 2, OldQ: -1, NewQ: 7}, {A: 0, B: 2, OldQ: -1, NewQ: 6}},
		Removed:      []constellation.LinkDelta{{A: 2, B: 4, OldQ: 8, NewQ: -1}, {A: 4, B: 3, OldQ: 9, NewQ: -1}},
		DelayChanged: []constellation.LinkDelta{{A: 5, B: 4, OldQ: 4, NewQ: 5}, {A: 6, B: 8, OldQ: 2, NewQ: 3}},
		Activated:    []int32{2, 3},
		Deactivated:  []int32{4},
	}}
	rec := diff.AppendRecord(constellation.DiffRecord{})
	view := rec
	view.Added, view.Removed, view.DelayChanged = rec.Added[:1], rec.Removed[1:], rec.DelayChanged[:1]
	view.Activated, view.Deactivated = []int32{3}, nil
	push(diff)
	th.barrier()
	if err := th.fo.VerifyRemotes(); err != nil {
		t.Fatal(err)
	}

	frames, ok := rep.Diffs(1)
	if !ok || len(frames) != 1 {
		t.Fatalf("Diffs(1) = %d frames, ok=%v; want generation 2 alone", len(frames), ok)
	}
	got := frames[0]
	if got.Agent != 1 || got.Generation != 2 || got.Full {
		t.Errorf("frame header = agent %d generation %d full %v, want 1/2/false", got.Agent, got.Generation, got.Full)
	}
	if g, w := constellation.AppendRecordWire(nil, 2, &got.DiffRecord), constellation.AppendRecordWire(nil, 2, &view); !bytes.Equal(g, w) {
		t.Errorf("the agent decoded\n%+v\nwant the shard's view\n%+v", got.DiffRecord, view)
	}
	// The delays, spelled out.
	for _, c := range []struct {
		list string
		got  []constellation.LinkDelta
		want constellation.LinkDelta
	}{
		{"added", got.Added, constellation.LinkDelta{A: 1, B: 2, OldQ: -1, NewQ: 7}},
		{"removed", got.Removed, constellation.LinkDelta{A: 4, B: 3, OldQ: 9, NewQ: -1}},
		{"delay_changed", got.DelayChanged, constellation.LinkDelta{A: 5, B: 4, OldQ: 4, NewQ: 5}},
	} {
		if len(c.got) != 1 || c.got[0] != c.want {
			t.Errorf("%s = %+v, want [%+v]", c.list, c.got, c.want)
		}
	}
	if !reflect.DeepEqual(got.Activated, []int32{3}) || len(got.Deactivated) != 0 {
		t.Errorf("activity flips = +%v -%v, want +[3] -[]", got.Activated, got.Deactivated)
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
