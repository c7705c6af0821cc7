package hostlink

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"celestial/internal/constellation"
	"celestial/internal/supervise"
)

// TestFoldDiffPinned holds the digest chain to the values it had while a
// DiffFrame still carried LinkState{A, B, DelayQ}: every shard digest in a
// run report, a checkpoint or a bench golden is a fold of these. The frames
// are those frames with what a record adds — old quanta, BaseT, path-cache
// counters — filled in, none of which may reach the chain.
func TestFoldDiffPinned(t *testing.T) {
	delta := &DiffFrame{
		Agent: 3, Generation: 8, Flags: FlagChanged | FlagActivity,
		DiffRecord: constellation.DiffRecord{
			T: 16.5, BaseT: 14.5, Degraded: 2,
			CarriedPaths: 4, RepairedPaths: 2, RepairFallbacks: 1,
			Added:        []constellation.LinkDelta{{A: 1, B: 3, OldQ: -1, NewQ: 9}},
			Removed:      []constellation.LinkDelta{{A: 1, B: 2, OldQ: 30, NewQ: -1}},
			DelayChanged: []constellation.LinkDelta{{A: 2, B: 5, OldQ: 12, NewQ: 13}},
			Activated:    []int32{3},
			Deactivated:  []int32{5},
		},
	}
	full := &DiffFrame{Generation: 1, DiffRecord: constellation.DiffRecord{T: 2, BaseT: math.NaN(), Full: true}}
	if got := FoldDiff(ChainSeed, delta); got != 0x5ce9145d9c986851 {
		t.Errorf("delta frame folds to %#x, want 0x5ce9145d9c986851", got)
	}
	if got := FoldDiff(ChainSeed, full); got != 0xd4df724b9912514b {
		t.Errorf("full frame folds to %#x, want 0xd4df724b9912514b", got)
	}
	if got := FoldDiff(FoldDiff(ChainSeed, full), delta); got != 0xbc0fa2324ce83ef7 {
		t.Errorf("chain of both folds to %#x, want 0xbc0fa2324ce83ef7", got)
	}
}

// TestVersionSkewRefusedByCoordinator: an agent of the previous protocol
// revision is told why it is refused, in the VersionError's words, and is
// never attached.
func TestVersionSkewRefusedByCoordinator(t *testing.T) {
	th := newTCPHarness(t, 1, 8, nil)
	conn, err := net.Dial("tcp", th.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := WriteFrame(conn, nil, &Hello{Version: ProtocolVersion - 1, Agent: 0}); err != nil {
		t.Fatal(err)
	}
	f, _, err := ReadFrame(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := (&VersionError{Got: ProtocolVersion - 1, Want: ProtocolVersion}).Error()
	if bye, ok := f.(*Bye); !ok || bye.Reason != want {
		t.Fatalf("a v%d Hello was answered with %#v, want Bye %q", ProtocolVersion-1, f, want)
	}
	if _, _, err := ReadFrame(conn, nil); err == nil {
		t.Error("the coordinator kept the refused connection open")
	}
	if n := th.fo.ConnectedAgents(); n != 0 {
		t.Errorf("%d agents attached after the refusal", n)
	}
}

// TestVersionSkewEndsAgentRun: a coordinator of the previous revision is
// not something a redial fixes — Run returns the *VersionError after the
// one handshake.
func TestVersionSkewEndsAgentRun(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var dials atomic.Int32
	served := make(chan struct{})
	go func() {
		defer close(served)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			dials.Add(1)
			f, buf, err := ReadFrame(conn, nil)
			if hello, ok := f.(*Hello); err != nil || !ok || hello.Version != ProtocolVersion {
				t.Errorf("handshake opened with %#v, %v", f, err)
			}
			_, _ = WriteFrame(conn, buf, &Welcome{Version: ProtocolVersion - 1, Shards: 1})
			conn.Close()
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	a := &Agent{ID: 0, Addr: ln.Addr().String(), ReconnectWait: time.Millisecond}
	err = a.Run(ctx)
	ln.Close()
	<-served
	var ve *VersionError
	if !errors.As(err, &ve) || ve.Got != ProtocolVersion-1 || ve.Want != ProtocolVersion {
		t.Fatalf("Run = %v, want a VersionError{Got: %d, Want: %d}", err, ProtocolVersion-1, ProtocolVersion)
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("the agent dialed %d times, want 1", n)
	}
}

// resultApplier is a loopback applier that takes part in the commit
// protocol the way applyengine.Engine does: every applied generation has a
// result digest, so the fan-out tier has something to propose. Each diff
// takes delay to apply.
type resultApplier struct {
	delay time.Duration
	last  ApplyResult
}

func (a *resultApplier) ApplySnapshot(s *Snapshot) error {
	a.last = ApplyResult{Generation: s.Generation, Digest: ResultDigest(s.Generation, FlagInvalidate|FlagSweep)}
	return nil
}

func (a *resultApplier) ApplyDiff(f *DiffFrame) error {
	time.Sleep(a.delay)
	a.last = ApplyResult{Generation: f.Generation, Digest: ResultDigest(f.Generation, f.Flags&(FlagInvalidate|FlagSweep|FlagNote))}
	return nil
}

func (a *resultApplier) LastResult() ApplyResult { return a.last }

// hungEngine is an agent's engine that answers no proposal until release
// is closed.
type hungEngine struct {
	resultApplier
	release <-chan struct{}
}

func (e *hungEngine) ApplyDiff(f *DiffFrame) error {
	<-e.release
	return e.resultApplier.ApplyDiff(f)
}

// TestProposalsExactUnderSlowLoopback is the regression test of skipped
// proposals: a writer used to hear of a generation from the producer's log,
// before Distribute had recorded the loopback result a proposal needs, and
// then proposed nothing for it. With a loopback apply slow enough to lose
// that race every time, each apply-mode agent must be proposed every
// generation after the one it bootstraps from by snapshot, and the barrier
// must not pass before the proposal at head has been sent.
func TestProposalsExactUnderSlowLoopback(t *testing.T) {
	const shards, ticks = 2, 40
	th := newTCPHarness(t, shards, 64, func(c *Config) {
		c.Appliers = []Applier{&resultApplier{delay: 2 * time.Millisecond}, &resultApplier{delay: 2 * time.Millisecond}}
	})
	agents := make([]*agentProc, shards)
	for i := range agents {
		agents[i] = th.startApplyAgent(i, NewReplica(), func(int, int64) ResultApplier { return &resultApplier{} })
	}
	th.waitAttached(shards)
	for i := 0; i < ticks; i++ {
		th.tick(supervise.LevelFull)
		th.barrier()
		if th.gen == 1 {
			continue // the snapshot proposes nothing
		}
		for s, st := range th.fo.AgentsStatus() {
			if st.Remote == nil || st.Remote.Proposed != th.gen {
				t.Fatalf("the barrier passed at generation %d with shard %d's remote at %+v", th.gen, s, st.Remote)
			}
		}
	}
	for i, p := range agents {
		if st := p.agent.Stats(); st.Applies != ticks-1 || st.CommitMismatches != 0 {
			t.Errorf("agent %d answered %d proposals with %d commit mismatches, want %d and none", i, st.Applies, st.CommitMismatches, ticks-1)
		}
	}
	for _, st := range th.fo.ShardStats() {
		if st.FallbackApplies != 0 {
			t.Errorf("shard %d: %d fallback applies", st.Agent, st.FallbackApplies)
		}
	}
}

// TestTimedOutProposalChargesOneFallback is the regression test of a
// timed-out proposal charged as every generation since the stream began:
// resolved starts at 0, so proposed − resolved read 2 fallback applies for
// an agent that attached at generation 1 and 7 for one that attached at 6.
// The agent's engine never answers; its first proposal times out when the
// writer comes to propose the next generation, and is one fallback apply.
func TestTimedOutProposalChargesOneFallback(t *testing.T) {
	for _, attachAt := range []int{1, 6} {
		t.Run(fmt.Sprintf("attach at %d", attachAt), func(t *testing.T) {
			th := newTCPHarness(t, 1, 64, func(c *Config) {
				c.Appliers = []Applier{&resultApplier{}}
				// Long enough that the silent agent is not detached before
				// its proposal times out.
				c.Heartbeat = time.Second
				c.WriteTimeout = 50 * time.Millisecond
			})
			release := make(chan struct{})
			t.Cleanup(func() { close(release) }) // runs before the harness joins the agent
			th.run(attachAt)
			th.startApplyAgent(0, NewReplica(), func(int, int64) ResultApplier { return &hungEngine{release: release} })
			th.waitAttached(1)
			th.barrier() // bootstrapped by snapshot at attachAt
			th.run(2)    // attachAt+1 is proposed and never answered; attachAt+2 waits it out
			for deadline := time.Now().Add(5 * time.Second); th.fo.ShardStats()[0].FallbackApplies == 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the unanswered proposal was never charged")
				}
			}
			if got := th.fo.ShardStats()[0].FallbackApplies; got != 1 {
				t.Errorf("one unanswered proposal charged %d fallback applies, want 1", got)
			}
		})
	}
}

// TestBarrierHoldsWhileProposeIsInFlight is the regression test of a
// barrier that could pass too early: proposed was recorded after the
// Propose frame had been written, so for as long as that write was blocked
// the stream looked resolved and WaitRemotes reported it caught up. The
// peer is hand-rolled over net.Pipe, whose writes block until they are
// read: it acks the diff frame, reads one byte of what comes next — the
// writer is now inside the Propose write — and stops reading.
func TestBarrierHoldsWhileProposeIsInFlight(t *testing.T) {
	h := newHarness(t, 1, 8, func(c *Config) {
		c.Appliers = []Applier{&resultApplier{}}
		// Nothing here may time out underneath the test.
		c.Heartbeat = 10 * time.Second
		c.WriteTimeout = 10 * time.Second
	})
	h.tick(supervise.LevelFull)

	server, peer := net.Pipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		h.fo.serveConn(server)
	}()
	defer func() {
		peer.Close()
		<-served
	}()
	_ = peer.SetDeadline(time.Now().Add(5 * time.Second))
	var rbuf, wbuf []byte
	read := func() any {
		t.Helper()
		f, b, err := ReadFrame(peer, rbuf)
		if err != nil {
			t.Fatal(err)
		}
		rbuf = b
		return f
	}
	write := func(f any) {
		t.Helper()
		b, err := WriteFrame(peer, wbuf, f)
		if err != nil {
			t.Fatal(err)
		}
		wbuf = b
	}

	write(&Hello{Version: ProtocolVersion, Agent: 0, Flags: HelloApply})
	if w, ok := read().(*Welcome); !ok || w.Flags&HelloApply == 0 {
		t.Fatalf("handshake answered with %#v", w)
	}
	snap, ok := read().(*Snapshot)
	if !ok || snap.Generation != 1 {
		t.Fatalf("attach did not start from a snapshot at generation 1: %#v", snap)
	}
	replica := NewReplica()
	if err := replica.ApplySnapshot(snap); err != nil {
		t.Fatal(err)
	}
	write(&Ack{Agent: 0, Generation: 1, Digest: snap.Digest})

	h.tick(supervise.LevelFull)
	diff, ok := read().(*DiffFrame)
	if !ok || diff.Generation != 2 {
		t.Fatalf("generation 2 arrived as %#v", diff)
	}
	if err := replica.ApplyDiff(diff); err != nil {
		t.Fatal(err)
	}
	gen, digest := replica.Cursor()
	write(&Ack{Agent: 0, Generation: gen, Digest: digest})
	var one [1]byte
	if _, err := peer.Read(one[:]); err != nil {
		t.Fatal(err)
	}
	// The ack travels through the reader goroutine; the barrier must be
	// judged on the proposal alone.
	for deadline := time.Now().Add(5 * time.Second); h.fo.AgentsStatus()[0].Remote.Acked != 2; {
		if time.Now().After(deadline) {
			t.Fatal("the ack of generation 2 was never recorded")
		}
		time.Sleep(time.Millisecond)
	}
	if h.fo.WaitRemotes(50 * time.Millisecond) {
		t.Fatal("the barrier passed with a Propose frame still being written")
	}
	if err := h.fo.VerifyRemotes(); err == nil {
		t.Error("VerifyRemotes accepted a stream with its proposal unresolved")
	}
}
