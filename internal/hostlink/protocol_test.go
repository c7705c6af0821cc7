package hostlink

import (
	"context"
	"errors"
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
// result digest, so the fan-out tier has something to propose.
type resultApplier struct{ last ApplyResult }

func (a *resultApplier) ApplySnapshot(s *Snapshot) error {
	a.last = ApplyResult{Generation: s.Generation, Digest: ResultDigest(s.Generation, FlagInvalidate|FlagSweep)}
	return nil
}

func (a *resultApplier) ApplyDiff(f *DiffFrame) error {
	a.last = ApplyResult{Generation: f.Generation, Digest: ResultDigest(f.Generation, f.Flags&(FlagInvalidate|FlagSweep|FlagNote))}
	return nil
}

func (a *resultApplier) LastResult() ApplyResult { return a.last }

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

	// Generation 2 is distributed — its loopback result recorded — while
	// the writer is still blocked handing the peer the diff frame, so the
	// proposal cannot be skipped for want of a result.
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
