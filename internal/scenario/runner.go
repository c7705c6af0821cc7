package scenario

import (
	"fmt"
	"time"

	"celestial/internal/constellation"
	"celestial/internal/coordinator"
	"celestial/internal/rng"
	"celestial/internal/vnet"
)

// Runner executes one scenario on a freshly built coordinator, driving the
// update loop tick-by-tick, firing flow arrivals and timeline events on
// the simulation clock, and collecting the run report. All randomness —
// arrival gaps, fault sampling, netem impairment draws — derives from the
// scenario seed, so a Runner's report is a pure function of the scenario.
type Runner struct {
	sc    *Scenario
	coord *coordinator.Coordinator
	sim   *vnet.Sim
	net   *vnet.Network
	epoch time.Time

	flows  []*flowState
	events []EventReport
	ticks  TickReport
	// err is the first failure inside an event callback, which cannot
	// return one; RunWith ends the run with it at the next boundary.
	err error
}

// flowState is the live state of one workload flow. Like every random
// process of a run its stream is an rng.Stream, whose complete state is one
// exportable word: a checkpoint persists it and a resumed replay proves it
// reconstructed the identical random sequence.
type flowState struct {
	r        *Runner
	idx      int
	cfg      Flow
	src, dst int
	rng      *rng.Stream

	// arrive is the one event callback of the flow, re-armed for every
	// arrival; nextAt is the arrival it is armed for.
	arrive func()
	nextAt time.Time

	nextID  uint64
	pending pendingRPCs

	sent, delivered     int64
	sendErrors          int64
	timeouts, corrupted int64
	latenciesMs         []float64
}

// A scenario message carries no boxed payload: its vnet.Message.Tag holds
// the message kind in the low tagKindBits bits, the flow's index above them
// and, for rpc messages, the request id in the remaining high bits. Flows
// are addressed by index so one node can terminate any number of flows of
// either type.
const (
	msgStream uint64 = iota
	msgRequest
	msgResponse

	tagKindBits = 2
	tagFlowBits = 16
	tagIDShift  = tagKindBits + tagFlowBits
	// maxFlows and maxRPCID bound what the tag can address.
	maxFlows = 1 << tagFlowBits
	maxRPCID = 1<<(64-tagIDShift) - 1
)

// msgTag encodes a scenario message's tag.
func msgTag(kind uint64, flow int, id uint64) uint64 {
	return kind | uint64(flow)<<tagKindBits | id<<tagIDShift
}

// NewRunner builds the coordinator (and its hosts, machines and network)
// for a scenario and resolves every node reference. Call Run to execute.
func NewRunner(sc *Scenario) (*Runner, error) {
	// Host fan-out tier: retention, shard layout and seeded frame faults
	// (the [hosts] table). The fan-out seed lives in its own index range
	// (1<<25) so frame faults never alias another random process. The tick
	// watchdog budgets every tick against the update resolution.
	o := coordinator.Options{Fanout: sc.Hosts.FanoutOptions}
	if sc.Hosts.Enabled() {
		o.Fanout.Retry = sc.Supervision.Retry
		o.Fanout.Seed = rng.Derive(sc.Seed, 1<<25)
	}
	if sc.Supervision.Watchdog {
		o.Watchdog = sc.Config.Resolution
	}
	coord, err := coordinator.New(sc.Config, o)
	if err != nil {
		return nil, err
	}
	r := &Runner{
		sc:    sc,
		coord: coord,
		sim:   coord.Sim(),
		net:   coord.Network(),
		epoch: coord.Sim().Now(),
	}
	// The scenario seed also drives the network's loss/jitter/reorder
	// draws (distinct per directed pair, derived from this base).
	r.net.SetSeed(sc.Seed)

	// Robustness middleware: seeded fault injection and retries on every
	// host and on shaper programming. All seeds derive from the scenario
	// seed in disjoint index ranges, so the random processes never alias:
	// flows from 0, fault bursts 1<<20+i, host retry 1<<21+id and faults
	// 1<<22+id, shaper retry 1<<23 and faults 1<<24, the fan-out 1<<25,
	// and vnet's directed pairs 1<<62|from<<31|to.
	if sup := sc.Supervision; sup.Enabled() {
		for _, h := range coord.Hosts() {
			h.LifecycleOps().SetPolicy(sup.Retry, rng.Derive(sc.Seed, uint64(1<<21+h.ID())))
			h.LifecycleOps().SetFaults(sup.ApplyFaultRate, rng.Derive(sc.Seed, uint64(1<<22+h.ID())))
		}
		r.net.ShaperOps().SetPolicy(sup.Retry, rng.Derive(sc.Seed, 1<<23))
		r.net.ShaperOps().SetFaults(sup.ShaperFaultRate, rng.Derive(sc.Seed, 1<<24))
	}

	if len(sc.Flows) > maxFlows {
		return nil, fmt.Errorf("scenario: %d flows, at most %d are supported", len(sc.Flows), maxFlows)
	}
	cons := coord.Constellation()
	handled := map[int]bool{}
	for i := range sc.Flows {
		f := &sc.Flows[i]
		src, err := cons.NodeByRef(f.Source)
		if err != nil {
			return nil, fmt.Errorf("scenario: flow %q: %w", f.Name, err)
		}
		dst, err := cons.NodeByRef(f.Target)
		if err != nil {
			return nil, fmt.Errorf("scenario: flow %q: %w", f.Name, err)
		}
		if src == dst {
			return nil, fmt.Errorf("scenario: flow %q: source and target are both node %d", f.Name, src)
		}
		fs := &flowState{
			r: r, idx: i, cfg: *f, src: src, dst: dst,
			rng: rng.New(rng.Derive(sc.Seed, uint64(i))),
		}
		fs.arrive = fs.onArrival
		r.flows = append(r.flows, fs)
		for _, node := range []int{src, dst} {
			if !handled[node] {
				handled[node] = true
				r.net.Handle(node, r.dispatchFor(node))
			}
		}
	}
	for i := range sc.Events {
		if n := sc.Events[i].Node; n != "" {
			if _, err := cons.NodeByRef(n); err != nil {
				return nil, fmt.Errorf("scenario: event %d (%s): %w", i, sc.Events[i].Action, err)
			}
		}
		switch sc.Events[i].Action {
		case ActionAgentKill, ActionAgentRejoin:
			if a, shards := sc.Events[i].Agent, coord.Fanout().Shards(); a >= shards {
				return nil, fmt.Errorf("scenario: event %d (%s): agent %d out of range [0, %d)",
					i, sc.Events[i].Action, a, shards)
			}
		}
	}
	return r, nil
}

// Coordinator exposes the coordinator driving the scenario.
func (r *Runner) Coordinator() *coordinator.Coordinator { return r.coord }

// dispatchFor builds the message handler of one node, routing stream
// packets, rpc requests and rpc responses of every flow terminating there.
func (r *Runner) dispatchFor(node int) vnet.Handler {
	return func(m vnet.Message) {
		f := r.flows[m.Tag>>tagKindBits&(maxFlows-1)]
		switch id := m.Tag >> tagIDShift; m.Tag & (1<<tagKindBits - 1) {
		case msgStream:
			f.delivered++
			if m.Corrupted {
				f.corrupted++
			}
			f.latenciesMs = append(f.latenciesMs, float64(m.Latency())/float64(time.Millisecond))
		case msgRequest:
			if m.Corrupted {
				f.corrupted++
			}
			// Serve the request; a failed response send behaves like
			// network loss and surfaces as a client timeout.
			_ = r.net.SendTag(node, m.From, f.cfg.ResponseBytes, msgTag(msgResponse, f.idx, id))
		case msgResponse:
			now := r.sim.Now().Sub(r.epoch)
			sentAt, ok := f.pending.answer(id, now, f.cfg.Timeout)
			if !ok {
				return // a duplicate, or after the timeout
			}
			f.delivered++
			if m.Corrupted {
				f.corrupted++
			}
			f.latenciesMs = append(f.latenciesMs, float64(now-sentAt)/float64(time.Millisecond))
		}
	}
}

// schedule sets up a flow's first arrival. Subsequent arrivals re-arm from
// the previous arrival time, so the whole point process is fixed by the
// flow's RNG.
func (f *flowState) schedule() error {
	return f.armNext(f.r.epoch.Add(f.cfg.Start))
}

// gap draws the next inter-arrival time.
func (f *flowState) gap() time.Duration {
	switch f.cfg.Arrival {
	case ArrivalPoisson:
		return time.Duration(f.rng.ExpFloat64() / f.cfg.Rate * float64(time.Second))
	default: // ArrivalCBR
		return time.Duration(float64(time.Second) / f.cfg.Rate)
	}
}

// armNext schedules the arrival after `from`, unless it falls past the
// flow's window.
func (f *flowState) armNext(from time.Time) error {
	at := from.Add(f.gap())
	if at.After(f.r.epoch.Add(f.cfg.Stop)) {
		return nil
	}
	f.nextAt = at
	return f.r.sim.At(at, f.arrive)
}

// onArrival is the flow's event callback: it sends the arrival it was armed
// for and arms the next one.
func (f *flowState) onArrival() {
	at := f.nextAt
	f.fire(at)
	// Scheduling forward from a just-executed event cannot fail.
	if err := f.armNext(at); err != nil {
		panic(fmt.Sprintf("scenario: rescheduling flow %q: %v", f.cfg.Name, err))
	}
}

// fire sends one arrival.
func (f *flowState) fire(at time.Time) {
	f.sent++
	switch f.cfg.Type {
	case FlowStream:
		if err := f.r.net.SendTag(f.src, f.dst, f.cfg.RequestBytes, msgTag(msgStream, f.idx, 0)); err != nil {
			f.sendErrors++
		}
	case FlowRPC:
		f.nextID++
		id := f.nextID
		if id > maxRPCID {
			if f.r.err == nil {
				f.r.err = fmt.Errorf("scenario: flow %q: rpc id %d does not fit a message tag", f.cfg.Name, id)
			}
			return
		}
		sentAt := at.Sub(f.r.epoch)
		f.settle(sentAt)
		err := f.r.net.SendTag(f.src, f.dst, f.cfg.RequestBytes, msgTag(msgRequest, f.idx, id))
		if err != nil {
			f.sendErrors++
		}
		f.pending.push(id, sentAt, err != nil)
	}
}

// settle counts the requests whose deadline has passed by now, an offset
// from the epoch, as timeouts. The counters are exact after it: the runner
// settles every flow before it reads them.
func (f *flowState) settle(now time.Duration) {
	f.timeouts += f.pending.settle(now, f.cfg.Timeout)
}

// settle settles every flow at the current virtual time.
func (r *Runner) settle() {
	now := r.sim.Now().Sub(r.epoch)
	for _, f := range r.flows {
		f.settle(now)
	}
}

// runEvent executes one timeline event and records its outcome.
func (r *Runner) runEvent(i int) {
	ev := r.sc.Events[i]
	rep := EventReport{AtS: ev.At.Seconds(), Action: ev.Action, Node: ev.Node}
	if ev.Action == ActionAgentKill || ev.Action == ActionAgentRejoin {
		rep.Node = fmt.Sprintf("agent-%d", ev.Agent)
	}
	err := func() error {
		switch ev.Action {
		case ActionFaultBurst:
			window := ev.Window
			if remaining := r.epoch.Add(r.sc.Horizon).Sub(r.sim.Now()); window > remaining {
				window = remaining
			}
			return r.coord.InjectFaultsFor(ev.Faults, rng.Derive(r.sc.Seed, uint64(1<<20+i)), window)
		case ActionImpair:
			return r.net.SetImpairments(ev.Impair)
		case ActionBandwidthCap:
			return r.net.SetBandwidthCap(ev.BandwidthKbps)
		case ActionNodeDown:
			node, err := r.coord.Constellation().NodeByRef(ev.Node)
			if err != nil {
				return err
			}
			m, err := r.coord.Machine(node)
			if err != nil {
				return err
			}
			return m.Crash(r.sim.Now(), "scenario: scripted outage")
		case ActionNodeUp:
			node, err := r.coord.Constellation().NodeByRef(ev.Node)
			if err != nil {
				return err
			}
			h, err := r.coord.HostOf(node)
			if err != nil {
				return err
			}
			return h.StartMachine(node)
		case ActionAgentKill:
			return r.coord.Fanout().Kill(ev.Agent)
		case ActionAgentRejoin:
			return r.coord.Fanout().Rejoin(ev.Agent)
		}
		return fmt.Errorf("scenario: unknown action %q", ev.Action)
	}()
	if err != nil {
		rep.Error = err.Error()
	}
	r.events = append(r.events, rep)
}

// observeTick folds the coordinator's latest diff into the tick counters.
func (r *Runner) observeTick() {
	d := r.coord.LastDiff()
	t := &r.ticks
	t.Ticks++
	switch {
	case d.Full:
		t.FullDiffs++
	case d.Empty:
		t.EmptyDiffs++
	}
	t.LinksAdded += d.Added
	t.LinksRemoved += d.Removed
	t.DelayChanged += d.DelayChanged
	t.Activated += d.Activated
	t.Deactivated += d.Deactivated
	t.CarriedPaths += d.CarriedPaths
	t.RepairedPaths += d.RepairedPaths
	t.RepairFallbacks += d.RepairFallbacks
	if d.GraphPatched {
		t.PatchedTicks++
	}
	t.PatchedEdges += d.PatchedEdges
	if d.Degraded > 0 {
		t.DegradedTicks++
	}
}

// RunOptions control how RunWith executes the scenario. The zero value is
// a plain run to the horizon.
type RunOptions struct {
	// CheckpointPath, when set, persists a crash-safe checkpoint of the
	// run state to this file every CheckpointEvery ticks (atomically:
	// write-temp, fsync, rename).
	CheckpointPath string
	// CheckpointEvery is the checkpoint period in ticks; zero means 1.
	CheckpointEvery int
	// Resume verifies the run against a checkpoint from a previous,
	// killed execution of the same scenario: the run replays
	// deterministically from the epoch, and when it reaches the
	// checkpoint's tick its recomputed state — the report so far and each
	// flow's hidden state — is compared against the persisted one. Any
	// mismatch — a changed scenario file, binary, or corrupted checkpoint
	// — aborts the resume instead of silently continuing a different run,
	// and so does a run that never reaches the checkpoint's tick.
	Resume *Checkpoint
	// TickHook, when set, runs at every tick boundary after checkpoint
	// persistence with the 1-based tick index. A non-nil error aborts the
	// run (the in-process kill used by the crash/resume differential
	// tests and the -crash-after-ticks CLI flag).
	TickHook func(tick int) error
}

// RunWith executes the scenario: it boots the testbed, schedules every
// flow and timeline event, advances virtual time to the horizon and
// returns the run report, under the given options (checkpointing, resume
// verification, per-tick hooks). It must only be called once per Runner.
//
// Resume works by deterministic re-execution: simulation state includes
// scheduled events (in-flight deliveries, armed fault events, flow
// arrivals) that no checkpoint format could faithfully serialize, so a
// resumed run replays the entire prefix from the epoch — cheap, since
// virtual time costs no wall-clock waiting — and uses the checkpoint to
// *prove* the replay reconstructed the killed run exactly (the report so
// far, every flow's RNG word and its pending-RPC and latency digests).
// The remainder then continues from reconstructed state, so the final
// report is byte-identical to an uninterrupted run.
func (r *Runner) RunWith(opts RunOptions) (*Report, error) {
	if opts.Resume != nil {
		if err := opts.Resume.Matches(r.sc); err != nil {
			return nil, err
		}
	}
	// Start performs the first constellation update and flushes
	// zero-delay boot completions, so flows scheduled below (same
	// timestamp, scheduled later) find machines usable.
	if err := r.coord.Start(); err != nil {
		return nil, err
	}
	r.observeTick()
	for _, f := range r.flows {
		if err := f.schedule(); err != nil {
			return nil, fmt.Errorf("scenario: scheduling flow %q: %w", f.cfg.Name, err)
		}
	}
	for i := range r.sc.Events {
		if err := r.sim.At(r.epoch.Add(r.sc.Events[i].At), func() { r.runEvent(i) }); err != nil {
			return nil, fmt.Errorf("scenario: scheduling event %d: %w", i, err)
		}
	}
	// The explicit per-tick loop: each iteration advances the simulation
	// one update resolution, which executes the coordinator's update and
	// every flow and timeline event due in that window, then observes the
	// fresh diff and runs the checkpoint/hook machinery at the boundary.
	// Checkpoint capture only reads state, so a checkpointed run and a
	// plain run execute identical event sequences.
	horizon := r.epoch.Add(r.sc.Horizon)
	res := r.sc.Config.Resolution
	every := opts.CheckpointEvery
	if every <= 0 {
		every = 1
	}
	tick, verified := 0, false
	for t := r.epoch.Add(res); !t.After(horizon); t = t.Add(res) {
		// Through the coordinator rather than the simulation, so an update
		// that failed inside the window ends the run with its error.
		if err := r.coord.Run(t.Sub(r.sim.Now())); err != nil {
			return nil, err
		}
		if r.err != nil {
			return nil, r.err
		}
		r.settle()
		r.observeTick()
		tick++
		if opts.Resume != nil && tick == opts.Resume.Tick {
			if err := opts.Resume.Verify(r.capture(tick)); err != nil {
				return nil, fmt.Errorf("scenario: resume verification at tick %d: %w", tick, err)
			}
			verified = true
		}
		if opts.CheckpointPath != "" && tick%every == 0 {
			if err := r.capture(tick).WriteFile(opts.CheckpointPath); err != nil {
				return nil, fmt.Errorf("scenario: writing checkpoint: %w", err)
			}
		}
		if opts.TickHook != nil {
			if err := opts.TickHook(tick); err != nil {
				return nil, err
			}
		}
	}
	if opts.Resume != nil && !verified {
		return nil, fmt.Errorf("scenario: resume checkpoint is at tick %d, but the run has %d ticks", opts.Resume.Tick, tick)
	}
	// The tail past the last full tick (a horizon that is not a multiple
	// of the resolution).
	if err := r.coord.Run(horizon.Sub(r.sim.Now())); err != nil {
		return nil, err
	}
	if r.err != nil {
		return nil, r.err
	}
	// Settle the fan-out tier: a frame fault on the final generation has
	// no successor tick to heal the gap, so force every live shard to its
	// head before reading the report counters.
	r.coord.Fanout().Converge()
	r.settle()
	return r.report(), nil
}

// report assembles the final run report.
func (r *Runner) report() *Report {
	cfg := r.sc.Config
	rep := &Report{
		Scenario:       r.sc.Name,
		Seed:           r.sc.Seed,
		HorizonS:       r.sc.Horizon.Seconds(),
		ResolutionS:    cfg.Resolution.Seconds(),
		Satellites:     cfg.TotalSatellites(),
		GroundStations: len(cfg.GroundStations),
		Hosts:          cfg.Hosts,
		Events:         r.events,
		Ticks:          r.ticks,
	}
	if rep.Events == nil {
		rep.Events = []EventReport{}
	}
	delivered, dropped := r.net.Stats()
	rep.Network = NetworkReport{Delivered: delivered, Dropped: dropped}
	rep.Robustness = r.robustness()
	rep.Fanout = r.fanout()
	for _, f := range r.flows {
		rep.Flows = append(rep.Flows, FlowReport{
			Name:       f.cfg.Name,
			Type:       f.cfg.Type,
			Source:     f.cfg.Source,
			Target:     f.cfg.Target,
			Sent:       f.sent,
			Delivered:  f.delivered,
			SendErrors: f.sendErrors,
			Timeouts:   f.timeouts,
			InFlight:   int64(f.pending.open),
			Corrupted:  f.corrupted,
			Latency:    summarizeLatency(f.latenciesMs),
		})
	}
	if rep.Flows == nil {
		rep.Flows = []FlowReport{}
	}
	return rep
}

// robustness reads the failure-handling counters from where they live: the
// watchdog (when one is installed), the fan-out tier's failed frame
// applications, every host's lifecycle guard and the network's shaper
// guard.
func (r *Runner) robustness() RobustnessReport {
	var rep RobustnessReport
	if wd := r.coord.Watchdog(); wd != nil {
		rep.Watchdog = wd.Stats()
	}
	n, last := r.coord.Fanout().ApplyErrors()
	rep.ApplyErrors = n
	if last != nil {
		rep.LastApplyErr = last.Error()
	}
	for _, h := range r.coord.Hosts() {
		rep.HostRetries.Add(h.LifecycleOps().Stats())
	}
	rep.ShaperRetries = r.net.ShaperOps().Stats()
	return rep
}

// fanout converts the fan-out tier's per-shard counters to their report
// form. Ring forced-resync counts are excluded: they depend on remote
// client behavior, not the scenario.
func (r *Runner) fanout() FanoutReport {
	fo := r.coord.Fanout()
	ring := r.coord.RingStats()
	rep := FanoutReport{
		Agents:        fo.Shards(),
		RingCapacity:  ring.Capacity,
		RingEvictions: ring.Evictions,
		WireRetries:   fo.RetryStats(),
		Shards:        []ShardReport{},
	}
	for _, st := range fo.ShardStats() {
		rep.Shards = append(rep.Shards, ShardReport{
			Agent:           st.Agent,
			Machines:        st.Machines,
			Frames:          st.Frames,
			Applied:         st.Applied,
			Digest:          fmt.Sprintf("%016x", st.Digest),
			Coalesced:       st.Coalesced,
			ActivityOnly:    st.ActivityOnly,
			Dropped:         st.Dropped,
			Duplicated:      st.Duplicated,
			Delayed:         st.Delayed,
			Buffered:        st.Buffered,
			Replayed:        st.Replayed,
			Resyncs:         st.Resyncs,
			SnapshotResyncs: st.SnapshotResyncs,
			Killed:          st.Killed,
			Rejoined:        st.Rejoined,
			Dead:            st.Dead,
			Owner:           st.Owner,
			Epoch:           st.Epoch,
			Rebalances:      st.Rebalances,
			FallbackApplies: st.FallbackApplies,
			Escalations:     st.Escalations,
			Recoveries:      st.Recoveries,
			ApplyErrors:     st.ApplyErrors,
		})
	}
	return rep
}

// ActiveSatellites returns the number of active satellites in the current
// state (for progress reporting by callers).
func (r *Runner) ActiveSatellites() int {
	st := r.coord.State()
	if st == nil {
		return 0
	}
	n := 0
	for id, node := range r.coord.Constellation().Nodes() {
		if node.Kind == constellation.KindSatellite && st.Active[id] {
			n++
		}
	}
	return n
}
