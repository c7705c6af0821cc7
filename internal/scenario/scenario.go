// Package scenario implements Celestial's declarative experiment engine:
// a TOML scenario file describes the complete experiment — the testbed
// (constellation shells, ground stations, network and compute parameters),
// the simulation horizon, seeded traffic workloads (request/response and
// one-way streaming flows with Poisson or constant-bitrate arrivals over
// the virtual network), and a timeline of scripted events (radiation fault
// bursts, tc-netem-style impairment and bandwidth changes, node outages).
//
// A Runner drives the coordinator tick-by-tick, executes due events
// deterministically and emits a machine-readable run report: per-flow
// latency and loss percentiles plus per-tick diff/repair counters. A
// single seed fixes the entire run — two runs of the same scenario with
// the same seed produce byte-identical reports, which is the paper's
// repeatability property ("repeatable LEO edge software experiments",
// §3.1) lifted from hand-wired Go programs to data.
package scenario

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"celestial/internal/config"
	"celestial/internal/coordinator"
	"celestial/internal/faults"
	"celestial/internal/hostlink"
	"celestial/internal/netem"
	"celestial/internal/retry"
	"celestial/internal/toml"
)

// Flow types.
const (
	// FlowRPC is a request/response workload: each arrival sends a
	// request to the target, which answers with a response; the flow
	// records round-trip latencies and timeouts.
	FlowRPC = "rpc"
	// FlowStream is a one-way datagram workload: each arrival sends one
	// packet to the target; the flow records one-way delivery latencies.
	FlowStream = "stream"
)

// Arrival processes.
const (
	// ArrivalPoisson draws exponential inter-arrival gaps (memoryless
	// request traffic).
	ArrivalPoisson = "poisson"
	// ArrivalCBR spaces arrivals evenly at 1/rate (constant-bitrate
	// streams, periodic probes).
	ArrivalCBR = "cbr"
)

// Event actions.
const (
	// ActionFaultBurst schedules a radiation SEU fault burst on every
	// satellite machine over a window (internal/faults).
	ActionFaultBurst = "fault-burst"
	// ActionImpair replaces the network-wide netem impairments (loss,
	// jitter, duplication, corruption, reordering).
	ActionImpair = "impair"
	// ActionBandwidthCap caps every path's bandwidth (0 clears the cap).
	ActionBandwidthCap = "bandwidth-cap"
	// ActionNodeDown crashes a node's machine (ground-station churn,
	// targeted satellite outages).
	ActionNodeDown = "node-down"
	// ActionNodeUp reboots a node's machine.
	ActionNodeUp = "node-up"
	// ActionAgentKill marks a host agent down: its shard's frames buffer
	// against the coordinator's diff retention ring until it rejoins (or
	// is declared dead after the [hosts] dead_after window).
	ActionAgentKill = "agent-kill"
	// ActionAgentRejoin brings a killed host agent back; it resyncs from
	// the retention ring, or from a full snapshot when the ring has
	// moved past its cursor.
	ActionAgentRejoin = "agent-rejoin"
)

// Flow is one seeded traffic workload between two nodes.
type Flow struct {
	// Name labels the flow in the run report.
	Name string
	// Type is FlowRPC or FlowStream.
	Type string
	// Source and Target are node references: a ground-station name
	// ("berlin") or a "SAT.SHELL" satellite pair ("878.0").
	Source, Target string
	// Arrival is ArrivalPoisson or ArrivalCBR.
	Arrival string
	// Rate is the arrival rate per second, at most 1e9.
	Rate float64
	// RequestBytes sizes each request (rpc) or packet (stream).
	RequestBytes int
	// ResponseBytes sizes each rpc response.
	ResponseBytes int
	// Timeout fails an rpc request with no response in time.
	Timeout time.Duration
	// Start and Stop bound the flow's active window; Stop zero means
	// the scenario horizon.
	Start, Stop time.Duration
}

// Event is one scripted timeline entry.
type Event struct {
	// At is the event's offset from the epoch.
	At time.Duration
	// Action selects what happens (Action* constants).
	Action string
	// Faults and Window configure ActionFaultBurst: the SEU model
	// applied to every satellite machine over Window (zero means the
	// rest of the horizon).
	Faults faults.SEUModel
	Window time.Duration
	// Impair configures ActionImpair.
	Impair netem.Params
	// BandwidthKbps configures ActionBandwidthCap.
	BandwidthKbps float64
	// Node references the machine of ActionNodeDown / ActionNodeUp.
	Node string
	// Agent is the host agent of ActionAgentKill / ActionAgentRejoin;
	// -1 when absent.
	Agent int
}

// Hosts configures the host fan-out tier (the [hosts] table): how many
// agents share the machines, the diff retention backing their resyncs, and
// seeded frame-fault injection on the coordinator-to-agent wire. The
// per-shard degradation ladder runs on fixed rungs (supervise.CoalesceLag,
// supervise.ActivityOnlyLag) and has no key. Like [supervision] fault
// injection, all frame faults are deterministic scenario events — a
// scenario with frame faults is still byte-identical across runs.
type Hosts struct {
	// FanoutOptions is the tier's own configuration, passed to the
	// coordinator as it is. The file sets Agents, Retention (diff_ring:
	// how far behind an agent may fall and still catch up by replay), the
	// frame fault rates, Delay and DeadAfter; NewRunner fills Retry (from
	// [supervision]) and Seed (from the scenario seed); the wall-clock and
	// deployment options have no key, and cmd/celestial sets Token.
	coordinator.FanoutOptions
}

// Enabled reports whether the table configures anything beyond the
// defaults. The agent token is a deployment secret, not a property of the
// run, so it never changes what the run derives.
func (h Hosts) Enabled() bool {
	h.Token = ""
	return h != (Hosts{})
}

// Supervision configures the run's robustness middleware (the [supervision]
// table): deterministic transient-fault injection into machine lifecycle
// operations and shaper programming, the retry policy that absorbs those
// faults, and optionally the tick watchdog. Fault injection and retries are
// fully seeded — a scenario with injected faults is still byte-identical
// across runs. The watchdog is the exception: its decisions depend on
// wall-clock stage timings, so enabling it trades the determinism gate for
// bounded tick latency (leave it off in checked-in CI scenarios).
type Supervision struct {
	// Watchdog enables tick supervision with graceful degradation, every
	// tick budgeted against the testbed's update resolution.
	Watchdog bool
	// ApplyFaultRate injects transient failures into each host machine
	// lifecycle attempt (start, suspend, resume) with this probability.
	ApplyFaultRate float64
	// ShaperFaultRate injects transient failures into each shaper
	// programming attempt with this probability.
	ShaperFaultRate float64
	// Retry bounds the retry middleware absorbing transient failures;
	// zero fields adopt retry.Default.
	Retry retry.Policy
}

// Enabled reports whether any robustness middleware is configured.
func (s Supervision) Enabled() bool {
	return s.Watchdog || s.ApplyFaultRate > 0 || s.ShaperFaultRate > 0 || s.Retry != (retry.Policy{})
}

// Scenario is one complete declarative experiment.
type Scenario struct {
	// Name labels the run.
	Name string
	// Seed fixes every random process of the run: flow arrivals, fault
	// bursts, netem loss/jitter draws.
	Seed int64
	// Horizon is how much virtual time the run covers. It overrides the
	// testbed config's duration; zero adopts it.
	Horizon time.Duration
	// Config is the testbed description (inline [testbed] table or a
	// referenced file).
	Config *config.Config

	// Supervision is the run's robustness middleware configuration.
	Supervision Supervision
	// Hosts is the host fan-out tier configuration.
	Hosts Hosts

	Flows  []Flow
	Events []Event
}

// Parse decodes a scenario document. The testbed must be inline (a
// [testbed] table); use ParseFile to allow `config = "file.toml"`
// references resolved relative to the scenario file.
func Parse(r io.Reader) (*Scenario, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("scenario: reading: %w", err)
	}
	return parse(string(data), "", false)
}

// ParseFile reads and validates a scenario file. A `config = "..."`
// testbed reference is resolved relative to the scenario file's directory.
func ParseFile(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return parse(string(data), filepath.Dir(path), true)
}

func parse(text, baseDir string, allowRef bool) (*Scenario, error) {
	doc, err := toml.Parse(text)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	t := toml.NewTable(doc)
	sc := &Scenario{
		Name:    t.String("name"),
		Seed:    t.Int64("seed"),
		Horizon: t.Seconds("horizon"),
	}

	// Testbed: inline table or file reference.
	ref := t.String("config")
	switch {
	case t.Has("config") && t.Has("testbed"):
		return nil, fmt.Errorf("scenario: both config reference and inline [testbed] given")
	case t.Has("config"):
		if !allowRef {
			return nil, fmt.Errorf("scenario: config file references require ParseFile")
		}
		if !filepath.IsAbs(ref) {
			ref = filepath.Join(baseDir, ref)
		}
		sc.Config, err = config.ParseFile(ref)
	case t.Has("testbed"):
		sc.Config, err = config.FromTable(t.Table("testbed"))
	default:
		return nil, fmt.Errorf("scenario: missing testbed (inline [testbed] table or config reference)")
	}
	if err != nil {
		return nil, fmt.Errorf("scenario: testbed: %w", err)
	}

	for i, ft := range t.Tables("flow") {
		sc.Flows = append(sc.Flows, flowFromTable(ft, i))
	}
	for _, et := range t.Tables("event") {
		sc.Events = append(sc.Events, eventFromTable(et))
	}
	sc.Supervision = supervisionFromTable(t.Table("supervision"))
	sc.Hosts = hostsFromTable(t.Table("hosts"))
	if err := t.Err(); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := sc.finalize(); err != nil {
		return nil, err
	}
	return sc, nil
}

// supervisionFromTable decodes the [supervision] table.
func supervisionFromTable(t *toml.Table) Supervision {
	return Supervision{
		Watchdog:        t.Bool("watchdog"),
		ApplyFaultRate:  t.Float("apply_fault_rate"),
		ShaperFaultRate: t.Float("shaper_fault_rate"),
		Retry: retry.Policy{
			MaxAttempts: t.Int("retry_max_attempts"),
			Initial:     t.Millis("retry_initial_ms"),
			Max:         t.Millis("retry_max_ms"),
			Multiplier:  t.Float("retry_multiplier"),
			Jitter:      t.Float("retry_jitter"),
			Budget:      t.Millis("retry_budget_ms"),
		},
	}
}

// hostsFromTable decodes the [hosts] table.
func hostsFromTable(t *toml.Table) Hosts {
	return Hosts{
		FanoutOptions: coordinator.FanoutOptions{
			Agents: t.Int("agents"),
			Options: hostlink.Options{
				Retention: t.Int("diff_ring"),
				DropRate:  t.Float("frame_drop_rate"),
				DupRate:   t.Float("frame_dup_rate"),
				DelayRate: t.Float("frame_delay_rate"),
				Delay:     t.Millis("frame_delay_ms"),
				DeadAfter: t.Seconds("dead_after"),
			},
		},
	}
}

func flowFromTable(t *toml.Table, idx int) Flow {
	f := Flow{
		Name:          t.String("name"),
		Type:          t.String("type"),
		Source:        t.String("source"),
		Target:        t.String("target"),
		Arrival:       t.String("arrival"),
		Rate:          t.Float("rate"),
		RequestBytes:  t.Int("request_bytes"),
		ResponseBytes: t.Int("response_bytes"),
		Timeout:       t.Seconds("timeout"),
		Start:         t.Seconds("start"),
		Stop:          t.Seconds("stop"),
	}
	if f.Name == "" {
		f.Name = fmt.Sprintf("flow-%d", idx)
	}
	return f
}

func eventFromTable(t *toml.Table) Event {
	ev := Event{
		At:     t.Seconds("at"),
		Action: t.String("action"),
		Window: t.Seconds("window"),
		Faults: faults.SEUModel{
			RatePerHour:  t.Float("rate_per_hour"),
			ShutdownProb: t.Float("shutdown_prob"),
			RebootAfter:  t.Seconds("reboot_after"),
			DegradeTo:    t.Float("degrade_to"),
			DegradeFor:   t.Seconds("degrade_for"),
		},
		Impair: netem.Params{
			LossProb:          t.Float("loss"),
			Jitter:            t.Millis("jitter_ms"),
			DupProb:           t.Float("duplicate"),
			CorruptProb:       t.Float("corrupt"),
			ReorderProb:       t.Float("reorder"),
			ReorderExtraDelay: t.Millis("reorder_extra_ms"),
		},
		BandwidthKbps: t.Float("bandwidth_kbits"),
		Node:          t.String("node"),
		Agent:         -1,
	}
	if t.Has("agent") {
		ev.Agent = t.Int("agent")
	}
	return ev
}

// Truncate shortens the scenario's horizon to d: flow windows are clamped
// and events past the new horizon dropped. CI smoke runs use this to
// replay full scenarios over a short prefix.
func (sc *Scenario) Truncate(d time.Duration) error {
	if d <= 0 {
		return fmt.Errorf("scenario: horizon must be positive, have %v", d)
	}
	if d > sc.Horizon {
		return fmt.Errorf("scenario: cannot extend horizon %v to %v", sc.Horizon, d)
	}
	if sc.Config.Resolution > d {
		return fmt.Errorf("scenario: resolution %v exceeds horizon %v", sc.Config.Resolution, d)
	}
	sc.Horizon = d
	sc.Config.Duration = d
	flows := sc.Flows[:0]
	for _, f := range sc.Flows {
		if f.Start >= d {
			continue
		}
		if f.Stop > d {
			f.Stop = d
		}
		flows = append(flows, f)
	}
	sc.Flows = flows
	events := sc.Events[:0]
	for _, ev := range sc.Events {
		if ev.At > d {
			continue
		}
		events = append(events, ev)
	}
	sc.Events = events
	return nil
}

// finalize applies defaults and validates the scenario against its
// testbed-independent constraints (node references are checked by the
// Runner, which has the constellation).
func (sc *Scenario) finalize() error {
	if sc.Config == nil {
		return fmt.Errorf("scenario: missing testbed config")
	}
	if sc.Name == "" {
		sc.Name = sc.Config.Name
	}
	if sc.Name == "" {
		sc.Name = "scenario"
	}
	if sc.Horizon == 0 {
		sc.Horizon = sc.Config.Duration
	}
	if sc.Horizon <= 0 {
		return fmt.Errorf("scenario: horizon must be positive, have %v", sc.Horizon)
	}
	// The horizon is the experiment duration: the coordinator's update
	// loop and every flow window are bounded by it.
	sc.Config.Duration = sc.Horizon
	if sc.Config.Resolution > sc.Horizon {
		return fmt.Errorf("scenario: resolution %v exceeds horizon %v", sc.Config.Resolution, sc.Horizon)
	}

	for i := range sc.Flows {
		f := &sc.Flows[i]
		if f.Type == "" {
			f.Type = FlowRPC
		}
		if f.Type != FlowRPC && f.Type != FlowStream {
			return fmt.Errorf("scenario: flow %q: unknown type %q (want %q or %q)", f.Name, f.Type, FlowRPC, FlowStream)
		}
		if f.Source == "" || f.Target == "" {
			return fmt.Errorf("scenario: flow %q: source and target are required", f.Name)
		}
		if f.Arrival == "" {
			f.Arrival = ArrivalCBR
		}
		if f.Arrival != ArrivalPoisson && f.Arrival != ArrivalCBR {
			return fmt.Errorf("scenario: flow %q: unknown arrival %q (want %q or %q)", f.Name, f.Arrival, ArrivalPoisson, ArrivalCBR)
		}
		if f.Rate <= 0 {
			return fmt.Errorf("scenario: flow %q: rate must be positive, have %v", f.Name, f.Rate)
		}
		// A faster flow's gap truncates to 0 ns, and its arrivals would
		// re-arm at the same instant forever.
		if f.Rate > 1e9 {
			return fmt.Errorf("scenario: flow %q: rate %v exceeds 1e9 per second (at most one arrival per virtual nanosecond)", f.Name, f.Rate)
		}
		if f.RequestBytes == 0 {
			f.RequestBytes = 256
		}
		if f.RequestBytes < 0 {
			return fmt.Errorf("scenario: flow %q: negative request size %d", f.Name, f.RequestBytes)
		}
		if f.ResponseBytes == 0 {
			f.ResponseBytes = f.RequestBytes
		}
		if f.ResponseBytes < 0 {
			return fmt.Errorf("scenario: flow %q: negative response size %d", f.Name, f.ResponseBytes)
		}
		if f.Timeout == 0 {
			f.Timeout = time.Second
		}
		if f.Timeout < 0 {
			return fmt.Errorf("scenario: flow %q: negative timeout %v", f.Name, f.Timeout)
		}
		if f.Stop == 0 {
			f.Stop = sc.Horizon
		}
		if f.Start < 0 || f.Stop > sc.Horizon || f.Start >= f.Stop {
			return fmt.Errorf("scenario: flow %q: window [%v, %v] outside (0, %v]", f.Name, f.Start, f.Stop, sc.Horizon)
		}
	}

	sup := &sc.Supervision
	if sup.ApplyFaultRate < 0 || sup.ApplyFaultRate > 1 {
		return fmt.Errorf("scenario: supervision: apply fault rate %v outside [0, 1]", sup.ApplyFaultRate)
	}
	if sup.ShaperFaultRate < 0 || sup.ShaperFaultRate > 1 {
		return fmt.Errorf("scenario: supervision: shaper fault rate %v outside [0, 1]", sup.ShaperFaultRate)
	}
	if err := sup.Retry.Validate(); err != nil {
		return fmt.Errorf("scenario: supervision: %w", err)
	}

	if h := sc.Hosts; h.Agents < 0 || h.Retention < 0 {
		return fmt.Errorf("scenario: hosts: negative agents %d or diff_ring %d", h.Agents, h.Retention)
	} else if err := h.Options.Validate(); err != nil {
		return fmt.Errorf("scenario: hosts: %w", err)
	}

	for i := range sc.Events {
		ev := &sc.Events[i]
		if ev.At < 0 || ev.At > sc.Horizon {
			return fmt.Errorf("scenario: event %d (%s): at %v outside [0, horizon %v]", i, ev.Action, ev.At, sc.Horizon)
		}
		switch ev.Action {
		case ActionFaultBurst:
			if ev.Window == 0 {
				ev.Window = sc.Horizon - ev.At
			}
			if ev.Window <= 0 {
				return fmt.Errorf("scenario: event %d: fault burst window must be positive, have %v", i, ev.Window)
			}
			if err := ev.Faults.Validate(); err != nil {
				return fmt.Errorf("scenario: event %d: %w", i, err)
			}
			if ev.Faults.RatePerHour == 0 {
				return fmt.Errorf("scenario: event %d: fault burst needs rate_per_hour > 0", i)
			}
		case ActionImpair:
			if err := ev.Impair.Validate(); err != nil {
				return fmt.Errorf("scenario: event %d: %w", i, err)
			}
		case ActionBandwidthCap:
			if ev.BandwidthKbps < 0 {
				return fmt.Errorf("scenario: event %d: negative bandwidth cap %v", i, ev.BandwidthKbps)
			}
		case ActionNodeDown, ActionNodeUp:
			if ev.Node == "" {
				return fmt.Errorf("scenario: event %d: %s needs a node", i, ev.Action)
			}
		case ActionAgentKill, ActionAgentRejoin:
			if ev.Agent < 0 {
				return fmt.Errorf("scenario: event %d: %s needs an agent", i, ev.Action)
			}
		case "":
			return fmt.Errorf("scenario: event %d: missing action", i)
		default:
			return fmt.Errorf("scenario: event %d: unknown action %q", i, ev.Action)
		}
	}
	return nil
}
