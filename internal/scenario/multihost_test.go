package scenario

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"celestial/internal/applyengine"
	"celestial/internal/hostlink"
)

// hostsFaultTOML layers the fan-out tier onto the unit scenario: two
// agents sharing the two hosts, seeded frame faults on the loopback wire,
// and a scripted kill/rejoin of agent 1
// (the satellite-only shard — the ground stations live on host 0).
const hostsFaultTOML = `
[hosts]
agents = 2
diff_ring = 16
frame_drop_rate = 0.2
frame_dup_rate = 0.1
frame_delay_rate = 0.2
frame_delay_ms = 40.0

[[event]]
at = 5.0
action = "agent-kill"
agent = 1

[[event]]
at = 9.0
action = "agent-rejoin"
agent = 1
`

// TestHostsFaultDeterminism extends the repeatability gate to the fan-out
// tier: with frame drops, duplicates, delays and an agent kill/rejoin all
// in play, two runs still produce byte-identical reports — the loopback
// wire's fault processes are seeded and run on virtual time.
func TestHostsFaultDeterminism(t *testing.T) {
	doc := workloadTOML + hostsFaultTOML + testbedTOML
	a, err := run(t, doc).JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(t, doc).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("reports differ between identical runs:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
}

// TestHostsFaultReportCounters pins what the kill/rejoin scenario must
// actually record: the fan-out report carries both shards, the killed
// shard buffered the generations it missed and recovered them by ring
// replay, and the agent events appear in the timeline with synthesized
// node labels and no errors.
func TestHostsFaultReportCounters(t *testing.T) {
	rep := run(t, workloadTOML+hostsFaultTOML+testbedTOML)

	fo := rep.Fanout
	if fo.Agents != 2 || len(fo.Shards) != 2 {
		t.Fatalf("fanout = %d agents, %d shards", fo.Agents, len(fo.Shards))
	}
	if fo.RingCapacity != 16 {
		t.Errorf("ring capacity = %d, want 16 from diff_ring", fo.RingCapacity)
	}
	head := uint64(rep.Ticks.Ticks)
	for _, sh := range fo.Shards {
		if sh.Applied != head {
			t.Errorf("shard %d applied = %d, want head %d (Converge must settle trailing faults)",
				sh.Agent, sh.Applied, head)
		}
		if sh.Digest == "" || sh.Digest == fmt.Sprintf("%016x", uint64(0)) {
			t.Errorf("shard %d digest %q looks unfolded", sh.Agent, sh.Digest)
		}
	}
	s1 := fo.Shards[1]
	if s1.Killed != 1 || s1.Rejoined != 1 {
		t.Errorf("shard 1 killed/rejoined = %d/%d, want 1/1", s1.Killed, s1.Rejoined)
	}
	// Kill at t=5, rejoin at t=9 at 2 s resolution: the ticks at 6 and 8
	// land while the agent is down and must be buffered, then recovered
	// from the retention ring on rejoin.
	if s1.Buffered == 0 {
		t.Error("shard 1 buffered no generations while down")
	}
	if s1.Replayed == 0 {
		t.Error("shard 1 replayed nothing on rejoin")
	}
	if s1.Dead {
		t.Error("shard 1 reported dead without a dead_after declaration")
	}
	faults := 0
	for _, sh := range fo.Shards {
		faults += sh.Dropped + sh.Duplicated + sh.Delayed
	}
	if faults == 0 {
		t.Error("no frame faults recorded despite 20%/10%/20% rates")
	}
	var agentEvents []EventReport
	for _, ev := range rep.Events {
		if ev.Action == ActionAgentKill || ev.Action == ActionAgentRejoin {
			agentEvents = append(agentEvents, ev)
		}
	}
	if len(agentEvents) != 2 {
		t.Fatalf("recorded %d agent events, want 2: %+v", len(agentEvents), rep.Events)
	}
	for _, ev := range agentEvents {
		if ev.Node != "agent-1" {
			t.Errorf("event %s node = %q, want agent-1", ev.Action, ev.Node)
		}
		if ev.Error != "" {
			t.Errorf("event %s errored: %s", ev.Action, ev.Error)
		}
	}
}

// multihostTestbedTOML is the unit testbed spread over four hosts, so the
// default fan-out layout yields four shards — one per remote agent in the
// TCP differential below.
const multihostTestbedTOML = `
[testbed]
name = "multihost-testbed"
resolution = 2.0
hosts = 4

[testbed.network_params]
min_elevation = 25.0

[[testbed.shell]]
planes = 24
sats = 22
altitude_km = 550
inclination = 53.0
arc_of_ascending_nodes = 360.0
phasing_factor = 13
model = "kepler"

[[testbed.ground_station]]
name = "accra"
lat = 5.6037
long = -0.187

[[testbed.ground_station]]
name = "johannesburg"
lat = -26.2041
long = 28.0473
`

// TestMultiHostTCPAgentsMatchSingleProcess is the distributed-mode
// equivalence gate, in-process: the full unit scenario (flows, impair,
// fault burst, bandwidth cap, node churn) runs once single-process as the
// reference, then again with four celestial-agent replicas attached over
// real TCP in authoritative remote apply mode — each answers the
// coordinator's Propose frames through its own applyengine. One agent is
// hard-killed mid-run and rejoins with its retained replica state;
// another is killed permanently, so its shard is reassigned to a
// surviving agent. The second run's report must be byte-identical to the
// reference (including fallback_applies = 0 — every proposal resolved),
// every served stream must end digest-verified against the coordinator's
// chain, and each replica's digest must equal the one the report printed
// for its shard.
func TestMultiHostTCPAgentsMatchSingleProcess(t *testing.T) {
	doc := workloadTOML + multihostTestbedTOML
	ref, err := run(t, doc).JSON()
	if err != nil {
		t.Fatal(err)
	}

	sc, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(sc)
	if err != nil {
		t.Fatal(err)
	}
	fo := r.Coordinator().Fanout()
	if fo.Shards() != 4 {
		t.Fatalf("fan-out has %d shards, want 4", fo.Shards())
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { _ = fo.Serve(ln) }()

	// One replica and one agent process (goroutine) per shard, each in
	// apply mode with the same engine construction cmd/celestial-agent
	// uses. Short heartbeats and redial waits keep kill cycles fast.
	replicas := make([]*hostlink.Replica, 4)
	agents := make([]*hostlink.Agent, 4)
	cancels := make([]context.CancelFunc, 4)
	exited := make([]chan struct{}, 4)
	start := func(id int) {
		ctx, cancel := context.WithCancel(context.Background())
		cancels[id] = cancel
		done := make(chan struct{})
		exited[id] = done
		a := &hostlink.Agent{
			ID: id, Addr: ln.Addr().String(), Replica: replicas[id],
			Heartbeat: 100 * time.Millisecond, ReconnectWait: 20 * time.Millisecond,
			Apply: true,
			NewApplier: func(shard int, seed int64) hostlink.ResultApplier {
				return applyengine.New(applyengine.Config{
					Shard:   shard,
					Backend: &applyengine.ReplicaBackend{},
					Seed:    seed,
				})
			},
		}
		agents[id] = a
		go func() {
			defer close(done)
			_ = a.Run(ctx)
		}()
	}
	for id := range replicas {
		replicas[id] = hostlink.NewReplica()
		start(id)
	}
	defer func() {
		for id, cancel := range cancels {
			cancel()
			<-exited[id]
		}
	}()
	waitAttached := func(n int) {
		deadline := time.Now().Add(10 * time.Second)
		for fo.ConnectedAgents() != n {
			if time.Now().After(deadline) {
				t.Fatalf("only %d/%d agents attached", fo.ConnectedAgents(), n)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitAttached(4)
	// kill hard-kills one agent and returns only once the kill has fully
	// landed. Cancelling is asynchronous on both ends — the agent closes
	// its connection from a context.AfterFunc, the coordinator notices at
	// its next read — so without the wait the "killed" agent can keep
	// acking for some ticks (the short run then ends with it still
	// attached), and a restart's waitAttached can be satisfied by the
	// stale connection.
	kill := func(id, remaining int) {
		cancels[id]()
		<-exited[id]
		waitAttached(remaining)
	}

	// The tick barrier the CLI's -agents-barrier flag implements, plus
	// the scripted agent failures: agent 2 is hard-killed (context
	// cancel, no Bye) after tick 2 and restarted with its retained
	// replica after tick 4, forcing a disconnect detection, ring
	// buffering, and a replay resync; agent 3 is killed after tick 5 and
	// never returns, so the coordinator must reassign its shard stream to
	// a survivor — all while the run keeps ticking.
	rep, err := r.RunWith(RunOptions{TickHook: func(tick int) error {
		switch tick {
		case 2:
			kill(2, 3)
		case 4:
			start(2)
			waitAttached(4)
		case 5:
			kill(3, 3)
		}
		if !fo.WaitRemotes(10 * time.Second) {
			t.Errorf("tick %d: attached agents did not ack in time", tick)
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}

	if !fo.WaitRemotes(10 * time.Second) {
		t.Fatal("agents did not reach the final generation")
	}
	if err := fo.VerifyRemotes(); err != nil {
		t.Fatalf("remote verification: %v", err)
	}
	got, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref, got) {
		t.Fatalf("multi-host report differs from single-process reference:\n--- single\n%s\n--- multi\n%s", ref, got)
	}
	head := uint64(rep.Ticks.Ticks)
	for id, replica := range replicas {
		if id == 3 {
			continue // killed permanently; its shard lives on below
		}
		gen, digest := replica.Cursor()
		if gen != head {
			t.Errorf("replica %d cursor = %d, want %d", id, gen, head)
		}
		if want := rep.Fanout.Shards[id].Digest; fmt.Sprintf("%016x", digest) != want {
			t.Errorf("replica %d digest %016x != report shard digest %s", id, digest, want)
		}
	}
	// The dead agent's shard was adopted by the lowest surviving agent:
	// agent 0's secondary replica must have converged on shard 3's chain.
	adopted := agents[0].ReplicaFor(3)
	if gen, digest := adopted.Cursor(); gen != head {
		t.Errorf("adopted shard 3 cursor = %d, want %d", gen, head)
	} else if want := rep.Fanout.Shards[3].Digest; fmt.Sprintf("%016x", digest) != want {
		t.Errorf("adopted shard 3 digest %016x != report shard digest %s", digest, want)
	}
	if st := agents[0].Stats(); st.Reassigns == 0 {
		t.Error("agent 0 saw no Reassign frame despite adopting shard 3")
	}
	// Authoritative apply actually ran: the surviving agents answered
	// proposals and were committed; no shard fell back to loopback-only.
	applies := 0
	for id, a := range agents {
		st := a.Stats()
		applies += st.Applies
		if st.CommitMismatches != 0 {
			t.Errorf("agent %d recorded %d commit mismatches", id, st.CommitMismatches)
		}
	}
	if applies == 0 {
		t.Error("no agent answered a single Propose frame in apply mode")
	}
	for _, sh := range rep.Fanout.Shards {
		if sh.FallbackApplies != 0 {
			t.Errorf("shard %d fallback applies = %d, want 0 on the happy path", sh.Agent, sh.FallbackApplies)
		}
		if sh.Rebalances != 0 {
			t.Errorf("shard %d virtual rebalances = %d, want 0 (remote reassignment must stay off the report)", sh.Agent, sh.Rebalances)
		}
	}
	// The killed replica must have healed by ring replay, not by a second
	// snapshot: its bootstrap snapshot stays the only one.
	if _, _, _, _, snaps := replicas[2].Counts(); snaps != 1 {
		t.Errorf("killed replica took %d snapshots, want 1 (bootstrap only; rejoin must replay the ring)", snaps)
	}
	fo.Close()
}
