package scenario

import (
	"encoding/json"
	"fmt"
	"io"

	"celestial/internal/retry"
	"celestial/internal/stats"
	"celestial/internal/supervise"
)

// Report is the machine-readable outcome of one scenario run. It is a pure
// function of the scenario (including its seed): two runs of the same
// scenario produce byte-identical JSON encodings, which is what the CI
// determinism gate diffs.
type Report struct {
	Scenario       string  `json:"scenario"`
	Seed           int64   `json:"seed"`
	HorizonS       float64 `json:"horizon_s"`
	ResolutionS    float64 `json:"resolution_s"`
	Satellites     int     `json:"satellites"`
	GroundStations int     `json:"ground_stations"`
	Hosts          int     `json:"hosts"`

	Flows      []FlowReport     `json:"flows"`
	Events     []EventReport    `json:"events"`
	Ticks      TickReport       `json:"ticks"`
	Network    NetworkReport    `json:"network"`
	Robustness RobustnessReport `json:"robustness"`
	Fanout     FanoutReport     `json:"fanout"`
}

// FlowReport summarizes one workload flow.
type FlowReport struct {
	Name   string `json:"name"`
	Type   string `json:"type"`
	Source string `json:"source"`
	Target string `json:"target"`
	// Sent counts arrivals; Delivered counts stream packets delivered or
	// rpc responses received; SendErrors counts arrivals refused by the
	// network (unreachable / endpoint down); Timeouts counts rpc requests
	// with no response in time; InFlight counts rpc requests still
	// outstanding at the horizon; Corrupted counts deliveries flagged by
	// the netem corruption model.
	Sent       int64 `json:"sent"`
	Delivered  int64 `json:"delivered"`
	SendErrors int64 `json:"send_errors"`
	Timeouts   int64 `json:"timeouts"`
	InFlight   int64 `json:"in_flight"`
	Corrupted  int64 `json:"corrupted"`
	// Latency summarizes delivery latencies in milliseconds: one-way for
	// stream flows, round-trip for rpc flows.
	Latency LatencyStats `json:"latency_ms"`
}

// LatencyStats are the latency percentiles of one flow in milliseconds.
type LatencyStats struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// summarizeLatency folds latency samples into LatencyStats.
func summarizeLatency(ms []float64) LatencyStats {
	s := stats.Summarize(ms)
	return LatencyStats{
		Count: s.Count, Mean: s.Mean, P50: s.Median,
		P95: s.P95, P99: s.P99, Min: s.Min, Max: s.Max,
	}
}

// EventReport records one executed timeline event.
type EventReport struct {
	AtS    float64 `json:"at_s"`
	Action string  `json:"action"`
	Node   string  `json:"node,omitempty"`
	Error  string  `json:"error,omitempty"`
}

// TickReport accumulates the per-tick constellation diff counters over the
// run: how much topology actually changed at emulation granularity, and
// how the shortest-path cache was preserved (carried, repaired, or
// recomputed) across ticks.
type TickReport struct {
	Ticks           int `json:"ticks"`
	FullDiffs       int `json:"full_diffs"`
	EmptyDiffs      int `json:"empty_diffs"`
	LinksAdded      int `json:"links_added"`
	LinksRemoved    int `json:"links_removed"`
	DelayChanged    int `json:"delay_changed"`
	Activated       int `json:"activated"`
	Deactivated     int `json:"deactivated"`
	CarriedPaths    int `json:"carried_paths"`
	RepairedPaths   int `json:"repaired_paths"`
	RepairFallbacks int `json:"repair_fallbacks"`
	PatchedTicks    int `json:"patched_ticks"`
	PatchedEdges    int `json:"patched_edges"`
	// DegradedTicks counts updates the tick watchdog ran at a reduced
	// level (always 0 in unsupervised runs).
	DegradedTicks int `json:"degraded_ticks"`
}

// RobustnessReport summarizes the run's failure handling: retry middleware
// counters for host machine lifecycle operations (summed over every host)
// and shaper programming, activity sweeps that still failed after retries,
// and the tick watchdog's decisions. The counters are the middleware's own
// retry.Stats and supervise.Stats, encoded where they are declared. With
// fault injection configured but the watchdog off, every field is a pure
// function of the scenario seed and stays inside the determinism gate. The
// watchdog section is all zero when the watchdog is off and driven by wall
// clock when it is on, so a supervised run can be neither gated nor resumed.
type RobustnessReport struct {
	HostRetries   retry.Stats     `json:"host_retries"`
	ShaperRetries retry.Stats     `json:"shaper_retries"`
	ApplyErrors   int             `json:"apply_errors"`
	LastApplyErr  string          `json:"last_apply_error,omitempty"`
	Watchdog      supervise.Stats `json:"watchdog"`
}

// FanoutReport summarizes the host fan-out tier: the diff retention ring
// feeding agent resyncs, the wire-send retry middleware, and one entry
// per shard. Loopback agents run on virtual time with seeded faults, so
// every field is a pure function of the scenario and stays inside the
// determinism gate (remote TCP agent counters are deliberately excluded —
// they live on the /agents endpoint).
type FanoutReport struct {
	Agents        int           `json:"agents"`
	RingCapacity  int           `json:"ring_capacity"`
	RingEvictions uint64        `json:"ring_evictions"`
	WireRetries   retry.Stats   `json:"wire_retries"`
	Shards        []ShardReport `json:"shards"`
}

// ShardReport is hostlink.ShardStats on the wire. It is a type of its own
// because Digest, the shard's chain digest at its newest generation, is
// rendered as 16 hex digits — the value a fully caught-up replica must ack,
// the anchor the multi-host differential tests compare against remote
// replicas, and the string the benchmark's goldens read — and because the
// report leaves out Down, which its Killed, Rejoined and Dead imply.
// Owner is the shard currently applying this shard's machines (its own
// agent id until a rebalance moves it; -1 when the coordinator's
// loopback adopted it), Epoch counts ownership transfers, Rebalances
// counts dead-agent handoffs, and FallbackApplies counts generations the
// commit protocol had to apply on the loopback after a proposal timed
// out. All four are virtual-plane values: wall-clock remote
// reassignments never touch them.
type ShardReport struct {
	Agent           int    `json:"agent"`
	Machines        int    `json:"machines"`
	Frames          int    `json:"frames"`
	Applied         uint64 `json:"applied"`
	Digest          string `json:"digest"`
	Coalesced       int    `json:"coalesced"`
	ActivityOnly    int    `json:"activity_only"`
	Dropped         int    `json:"dropped"`
	Duplicated      int    `json:"duplicated"`
	Delayed         int    `json:"delayed"`
	Buffered        int    `json:"buffered"`
	Replayed        int    `json:"replayed"`
	Resyncs         int    `json:"resyncs"`
	SnapshotResyncs int    `json:"snapshot_resyncs"`
	Killed          int    `json:"killed"`
	Rejoined        int    `json:"rejoined"`
	Dead            bool   `json:"dead"`
	Owner           int    `json:"owner"`
	Epoch           uint64 `json:"epoch"`
	Rebalances      int    `json:"rebalances"`
	FallbackApplies int    `json:"fallback_applies"`
	Escalations     int    `json:"escalations"`
	Recoveries      int    `json:"recoveries"`
	ApplyErrors     int    `json:"apply_errors"`
}

// NetworkReport are the virtual network's global delivery counters.
type NetworkReport struct {
	Delivered uint64 `json:"delivered"`
	Dropped   uint64 `json:"dropped"`
}

// JSON renders the report as deterministic, indented JSON with a trailing
// newline.
func (r *Report) JSON() ([]byte, error) {
	enc, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: encoding report: %w", err)
	}
	return append(enc, '\n'), nil
}

// WriteJSON writes the JSON encoding to w.
func (r *Report) WriteJSON(w io.Writer) error {
	enc, err := r.JSON()
	if err != nil {
		return err
	}
	_, err = w.Write(enc)
	return err
}
