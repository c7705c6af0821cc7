package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"celestial/internal/applyengine"
	"celestial/internal/hostlink"
	"celestial/internal/scenario"
)

// agentsShape is the p1-agents-tcp harness: the coordinator's fan-out tier
// served on a loopback TCP listener and one in-process hostlink.Agent per
// shard attached to it in apply mode — what `celestial -agents-listen`
// plus N `celestial-agent -apply` processes do, in one process.
type agentsShape struct {
	fo     *hostlink.Fanout
	ln     net.Listener
	served chan struct{} // closed when Fanout.Serve returns
	cancel context.CancelFunc
	wg     sync.WaitGroup
	agents []*hostlink.Agent

	head       func() uint64 // the coordinator's generation
	reconnects atomic.Int64
	timeouts   int // barriers that ran out of time
	res        *iterResult
}

func attachAgents(h *harness) (*agentsShape, error) {
	fo := h.run.Coordinator().Fanout()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	a := &agentsShape{
		fo: fo, ln: ln, served: make(chan struct{}), cancel: cancel, res: h.res,
		head: h.run.Coordinator().Generation,
	}
	go func() {
		defer close(a.served)
		_ = fo.Serve(ln) // returns nil once the listener is closed
	}()
	for i := 0; i < fo.Shards(); i++ {
		ag := &hostlink.Agent{
			ID: i, Addr: ln.Addr().String(), Replica: hostlink.NewReplica(),
			ReconnectWait: 20 * time.Millisecond,
			Apply:         true,
			NewApplier: func(shard int, seed int64) hostlink.ResultApplier {
				return applyengine.New(applyengine.Config{
					Shard: shard, Backend: &applyengine.ReplicaBackend{}, Seed: seed,
				})
			},
			// The agent reports connection lifecycle only through Logf;
			// a reconnect is the one event the benchmark must count.
			Logf: func(format string, _ ...any) {
				if strings.Contains(format, "reconnecting") {
					a.reconnects.Add(1)
				}
			},
		}
		a.agents = append(a.agents, ag)
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			_ = ag.Run(ctx) // nil on the coordinator's Bye, ctx.Err() on close
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for fo.ConnectedAgents() < fo.Shards() {
		if time.Now().After(deadline) {
			a.close()
			return nil, fmt.Errorf("only %d of %d agents attached", fo.ConnectedAgents(), fo.Shards())
		}
		time.Sleep(time.Millisecond)
	}
	return a, nil
}

// barrier is the CLI's per-tick barrier: hold the tick until every
// attached agent has acked the new generation and resolved its proposals.
// It returns when the barrier did; the span is the commit latency.
func (a *agentsShape) barrier(h *harness, tick int, start time.Time) time.Time {
	sp := h.tr.begin("Fanout.WaitRemotes", h.tickSpan, tick)
	ok := a.fo.WaitRemotes(barrierTimeout)
	h.tr.end(sp)
	end := time.Now()
	if tick > warmupTicks {
		a.res.CommitMs = append(a.res.CommitMs, msOf(int64(end.Sub(start))))
	}
	// Harness time from here on.
	if !ok || !a.settle() {
		a.timeouts++
	}
	return end
}

// settlePause is how long settle stands still once the writers have
// nothing left to send: each of them was woken one last time by the final
// Applied frame and needs a few microseconds of processor to run its idle
// check and block again.
const settlePause = 300 * time.Microsecond

// settle waits until the fan-out's remote writers have nothing left to do
// for the current generation — every stream has sent up to the head (so the
// decision whether to propose it has been taken), every proposal is
// resolved, and every agent has received its Commit — and then gives them
// settlePause to go back to sleep. WaitRemotes alone can return while a
// proposal is still on its way, and a writer that is awake during the next
// tick's update can deadlock against it (README, "Known hazards"); letting
// the writers go idle first keeps that race out of the measurement. The
// CLI has no such step.
func (a *agentsShape) settle() bool {
	deadline := time.Now().Add(barrierTimeout)
	for !a.quiet() {
		if time.Now().After(deadline) {
			return false
		}
		runtime.Gosched()
	}
	time.Sleep(settlePause)
	return true
}

func (a *agentsShape) quiet() bool {
	// The agents' own counters first: reading them allocates nothing, and
	// the Commit frames are what the loop usually waits for.
	for _, ag := range a.agents {
		if st := ag.Stats(); st.Commits < st.Applies {
			return false
		}
	}
	head := a.head()
	for _, st := range a.fo.AgentsStatus() {
		if r := st.Remote; r == nil || r.Sent < head || r.Resolved < r.Proposed {
			return false
		}
	}
	return true
}

// finish settles the fan-out like the CLI does at the end of a
// distributed run, checks the proof of equivalence, and accounts the
// commit protocol's operations.
func (a *agentsShape) finish(rep *scenario.Report) {
	res := a.res
	if !a.fo.WaitRemotes(barrierTimeout) {
		a.timeouts++
	}
	if err := a.fo.VerifyRemotes(); err != nil {
		res.failf("VerifyRemotes: %v", err)
	}
	res.Failed += a.timeouts
	if a.timeouts > 0 {
		res.failf("%d tick barriers timed out after %v", a.timeouts, barrierTimeout)
	}
	for i, ag := range a.agents {
		st := ag.Stats()
		shard := rep.Fanout.Shards[i]
		res.Attempted += st.Applies
		res.Failed += shard.FallbackApplies + st.CommitMismatches
		if shard.FallbackApplies != 0 {
			res.failf("shard %d: %d fallback applies", i, shard.FallbackApplies)
		}
		if st.CommitMismatches != 0 {
			res.failf("agent %d: %d commit mismatches", i, st.CommitMismatches)
		}
		if _, digest := ag.Replica.Cursor(); fmt.Sprintf("%016x", digest) != shard.Digest {
			res.failf("agent %d: replica digest %016x, report says %s", i, digest, shard.Digest)
		}
	}
}

// close says goodbye to the agents and joins every goroutine the shape
// started. Safe to call twice.
func (a *agentsShape) close() {
	a.fo.Close() // Bye: each Agent.Run returns nil
	a.cancel()   // and any agent mid-reconnect gives up
	a.wg.Wait()
	a.ln.Close()
	<-a.served
}
