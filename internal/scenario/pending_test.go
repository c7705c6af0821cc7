package scenario

import (
	"errors"
	"hash/fnv"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// rpcRun parses doc, overrides the first flow's timeout when timeout is
// positive (to the nanosecond, which a TOML float of seconds cannot spell),
// and runs the scenario to its horizon.
func rpcRun(t *testing.T, doc string, timeout time.Duration) (*Runner, *Report) {
	t.Helper()
	sc, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if timeout > 0 {
		sc.Flows[0].Timeout = timeout
	}
	r, err := NewRunner(sc)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r, rep
}

// checkRPCAccounting: every request of an rpc flow ends delivered, timed
// out, failed to send, or still in flight at the horizon — exactly one of
// them — and every delivered response recorded one latency sample.
func checkRPCAccounting(t *testing.T, r *Runner, fr FlowReport) {
	t.Helper()
	if fr.Delivered+fr.Timeouts+fr.SendErrors+fr.InFlight != fr.Sent {
		t.Errorf("flow %s: delivered %d + timeouts %d + send errors %d + in flight %d != sent %d",
			fr.Name, fr.Delivered, fr.Timeouts, fr.SendErrors, fr.InFlight, fr.Sent)
	}
	for _, f := range r.flows {
		if f.cfg.Name == fr.Name && int64(len(f.latenciesMs)) != fr.Delivered {
			t.Errorf("flow %s: %d latency samples for %d delivered", fr.Name, len(f.latenciesMs), fr.Delivered)
		}
	}
}

// oneRPC is a scenario whose only flow sends exactly one request, at 1 s.
const oneRPC = `
name = "one-rpc"
seed = 3
horizon = 4.0

[[flow]]
name = "once"
type = "rpc"
source = "accra"
target = "johannesburg"
arrival = "cbr"
rate = 1.0
stop = 1.5
request_bytes = 100
response_bytes = 300
timeout = 2.0
` + testbedTOML

// TestRPCTimeoutTieGoesToTheTimeout pins the deadline rule to the
// nanosecond. The request's round trip is measured under a generous
// timeout; with the timeout set to exactly that round trip the response
// arrives at sentAt+Timeout and is a timeout — as it was when the timeout
// was an event, scheduled before the response's delivery and so fired
// first at the tie — and with one nanosecond more it is delivered.
func TestRPCTimeoutTieGoesToTheTimeout(t *testing.T) {
	r, rep := rpcRun(t, oneRPC, 0)
	if fr := rep.Flows[0]; fr.Sent != 1 || fr.Delivered != 1 {
		t.Fatalf("reference run: %+v", fr)
	}
	rtt := time.Duration(math.Round(r.flows[0].latenciesMs[0] * float64(time.Millisecond)))
	if rtt <= 0 {
		t.Fatalf("round trip %v", rtt)
	}
	for _, tc := range []struct {
		timeout             time.Duration
		delivered, timeouts int64
	}{
		{rtt, 0, 1},
		{rtt + 1, 1, 0},
		{rtt - 1, 0, 1},
	} {
		r, rep := rpcRun(t, oneRPC, tc.timeout)
		fr := rep.Flows[0]
		if fr.Delivered != tc.delivered || fr.Timeouts != tc.timeouts || fr.InFlight != 0 {
			t.Errorf("timeout %v against a %v round trip: %+v, want %d delivered and %d timed out",
				tc.timeout, rtt, fr, tc.delivered, tc.timeouts)
		}
		checkRPCAccounting(t, r, fr)
	}
}

// TestRPCDuplicatesAndLateResponses: with every message duplicated, a
// request reaches its server twice and draws up to four responses, but is
// answered once; with a timeout shorter than any round trip, every response
// arrives late and is ignored although the network delivered it.
func TestRPCDuplicatesAndLateResponses(t *testing.T) {
	const flow = `
name = "dups"
seed = 5
horizon = 6.0

[[event]]
at = 0.0
action = "impair"
duplicate = 1.0

[[flow]]
name = "dup"
type = "rpc"
source = "accra"
target = "johannesburg"
arrival = "poisson"
rate = 50.0
request_bytes = 100
response_bytes = 300
timeout = 1.0
` + testbedTOML
	r, rep := rpcRun(t, flow, 0)
	fr := rep.Flows[0]
	if fr.Delivered == 0 || fr.Timeouts != 0 {
		t.Fatalf("duplicated run: %+v", fr)
	}
	// Each answered request was delivered twice and answered four times.
	if rep.Network.Delivered < 6*uint64(fr.Delivered) {
		t.Errorf("network delivered %d messages for %d answered requests", rep.Network.Delivered, fr.Delivered)
	}
	checkRPCAccounting(t, r, fr)

	r, rep = rpcRun(t, flow, time.Millisecond)
	fr = rep.Flows[0]
	if fr.Delivered != 0 || fr.Timeouts == 0 || rep.Network.Delivered == 0 {
		t.Errorf("late responses: %+v, network %+v", fr, rep.Network)
	}
	checkRPCAccounting(t, r, fr)
}

// rpcLoad is a lossy, jittered rpc flow whose timeout is close to its round
// trip, so at any tick boundary some requests are answered, some timed out
// and some still in flight.
const rpcLoad = `
name = "rpc-load"
seed = 9
horizon = 7.3

[[event]]
at = 1.0
action = "impair"
loss = 0.2
jitter_ms = 4.0

[[flow]]
name = "load"
type = "rpc"
source = "accra"
target = "johannesburg"
arrival = "poisson"
rate = 300.0
request_bytes = 200
response_bytes = 800
timeout = 0.04
` + testbedTOML

// TestRPCInFlightAtTheHorizon: a horizon that is not a multiple of the
// resolution cuts the run off with requests on the wire; they are reported
// in flight — not timed out, not lost — and the counts are the ones the
// run produced when every timeout was a scheduled event.
func TestRPCInFlightAtTheHorizon(t *testing.T) {
	r, rep := rpcRun(t, rpcLoad, 0)
	fr := rep.Flows[0]
	checkRPCAccounting(t, r, fr)
	want := FlowReport{Sent: 2225, Delivered: 1211, Timeouts: 1000, InFlight: 14}
	if fr.Sent != want.Sent || fr.Delivered != want.Delivered || fr.Timeouts != want.Timeouts || fr.InFlight != want.InFlight {
		t.Errorf("sent %d delivered %d timeouts %d in flight %d, want %d %d %d %d",
			fr.Sent, fr.Delivered, fr.Timeouts, fr.InFlight,
			want.Sent, want.Delivered, want.Timeouts, want.InFlight)
	}
}

// TestCheckpointPendingRPCs: a checkpoint taken with requests in flight
// holds the count and the (id, sent-at) digest of exactly those requests,
// pinned at the values written when the pending set was a map sorted by id
// at capture and every timeout a scheduled event.
func TestCheckpointPendingRPCs(t *testing.T) {
	sc, err := Parse(strings.NewReader(rpcLoad))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(sc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	stop := errors.New("stop")
	_, err = r.RunWith(RunOptions{
		CheckpointPath: path,
		TickHook: func(tick int) error {
			if tick == 2 {
				return stop
			}
			return nil
		},
	})
	if !errors.Is(err, stop) {
		t.Fatalf("run ended with %v", err)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	fr, fc := cp.Report.Flows[0], cp.Flows[0]
	wantReport := FlowReport{Sent: 1211, Delivered: 728, Timeouts: 467, InFlight: 16}
	if fr.Sent != wantReport.Sent || fr.Delivered != wantReport.Delivered || fr.Timeouts != wantReport.Timeouts ||
		fr.InFlight != wantReport.InFlight {
		t.Errorf("checkpoint flow report %+v, want %+v", fr, wantReport)
	}
	want := FlowCheckpoint{NextID: 1211, PendingDigest: 0x62f16fa4f89f4dd2}
	if fc.NextID != want.NextID || fc.PendingDigest != want.PendingDigest {
		t.Errorf("checkpoint flow state %+v, want %+v", fc, want)
	}
	if fr.InFlight == 0 {
		t.Error("no request in flight at the checkpoint: the digest pins nothing")
	}
}

// TestPendingRingMatchesMap drives the ring through growth and wrap-around
// against the structure it replaced — a map of pending ids, a timeout event
// per request, a digest over the ids sorted — with responses out of order,
// duplicated, late and on the exact deadline, and failed sends taking ids.
// The ring settles only where the runner settles it, when a request is
// issued and at tick boundaries, and is compared at the boundaries.
func TestPendingRingMatchesMap(t *testing.T) {
	const timeout = 50 * time.Microsecond
	var ring pendingRPCs
	model := map[uint64]time.Duration{}
	var ringTimeouts, modelTimeouts int64
	state := uint64(1)
	next := func(n uint64) uint64 { // a SplitMix64 draw below n
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return (z ^ z>>31) % n
	}
	var id uint64
	now := time.Duration(0)
	ties, grown := 0, 0
	for step := 0; step < 50000; step++ {
		now += time.Duration(next(3)) * time.Microsecond
		// The model fires every timeout due by now, as the events did.
		for i, sent := range model {
			if sent+timeout <= now {
				delete(model, i)
				modelTimeouts++
			}
		}
		switch next(8) {
		case 0, 1, 2: // issue a request; one in ten fails to send
			id++
			ringTimeouts += ring.settle(now, timeout) // as fire does
			failed := next(10) == 0
			ring.push(id, now, failed)
			if !failed {
				model[id] = now
			}
			grown = max(grown, len(ring.slots))
		case 3, 4, 5, 6: // a response to a recent id, possibly answered already
			if id == 0 {
				continue
			}
			resp := id - next(min(id, 40))
			sent, ok := ring.answer(resp, now, timeout)
			wantSent, wantOK := model[resp]
			if ok != wantOK || (ok && sent != wantSent) {
				t.Fatalf("step %d: answer(%d) at %v = %v, %v; model %v, %v", step, resp, now, sent, ok, wantSent, wantOK)
			}
			if !ok && resp >= ring.base && resp-ring.base < uint64(ring.n) {
				if e := ring.slots[(ring.head+int(resp-ring.base))&(len(ring.slots)-1)]; e.sentAt+timeout == now {
					ties++
				}
			}
			delete(model, resp)
		case 7: // a tick boundary
			ringTimeouts += ring.settle(now, timeout)
			if ringTimeouts != modelTimeouts || ring.open != len(model) {
				t.Fatalf("step %d: ring has %d timeouts and %d open, model %d and %d",
					step, ringTimeouts, ring.open, modelTimeouts, len(model))
			}
			a, b := fnv.New64a(), fnv.New64a()
			ring.digest(a)
			ids := make([]uint64, 0, len(model))
			for i := range model {
				ids = append(ids, i)
			}
			slices.Sort(ids)
			for _, i := range ids {
				writeUint64(b, i)
				writeUint64(b, uint64(model[i]))
			}
			if a.Sum64() != b.Sum64() {
				t.Fatalf("step %d: ring digest %#x, model %#x", step, a.Sum64(), b.Sum64())
			}
		}
	}
	if grown < 32 || ties == 0 {
		t.Errorf("the ring grew to %d slots and refused %d responses on their deadline: the run exercised too little", grown, ties)
	}
	if grown > 128 {
		t.Errorf("ring grew to %d slots for a window of about %d requests", grown, timeout/time.Microsecond)
	}
}

// TestMessageTagLimits: a scenario with more flows than a tag addresses is
// refused up front, and a flow that would issue an rpc id the tag cannot
// hold ends the run with an error instead of aliasing an earlier request.
func TestMessageTagLimits(t *testing.T) {
	sc, err := Parse(strings.NewReader(oneRPC))
	if err != nil {
		t.Fatal(err)
	}
	many := *sc
	many.Flows = make([]Flow, maxFlows+1)
	for i := range many.Flows {
		many.Flows[i] = sc.Flows[0]
	}
	if _, err := NewRunner(&many); err == nil || !strings.Contains(err.Error(), "flows") {
		t.Errorf("%d flows: %v", len(many.Flows), err)
	}

	if got := msgTag(msgResponse, maxFlows-1, maxRPCID); got>>tagIDShift != maxRPCID ||
		int(got>>tagKindBits&(maxFlows-1)) != maxFlows-1 || got&(1<<tagKindBits-1) != msgResponse {
		t.Fatalf("the largest flow and id do not round-trip the tag: %#x", got)
	}
	// Two requests: the first takes the last id that fits, the second
	// the first that does not.
	sc, err = Parse(strings.NewReader(strings.Replace(oneRPC, "stop = 1.5", "stop = 2.5", 1)))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(sc)
	if err != nil {
		t.Fatal(err)
	}
	r.flows[0].nextID = maxRPCID - 1
	if _, err := r.Run(); err == nil || !strings.Contains(err.Error(), "does not fit") {
		t.Fatalf("run past the last rpc id: %v", err)
	}
	if f := r.flows[0]; f.nextID != maxRPCID+1 || f.pending.n != 1 {
		t.Errorf("next id %d, %d requests held: the first request should have been sent", f.nextID, f.pending.n)
	}
}
