package scenario

import (
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
)

// CheckpointVersion is the on-disk checkpoint format version. Load rejects
// any other value: a checkpoint written by a different format must never be
// silently reinterpreted. Version 2 added the per-agent fan-out state.
const CheckpointVersion = 2

// Checkpoint is the crash-safe record of a run's state at one tick
// boundary. It deliberately does not try to serialize the simulation event
// queue — scheduled events (in-flight deliveries, armed fault events, flow
// arrivals) have no faithful wire form. Instead it captures
// everything a deterministic replay can be checked against: every flow's
// complete RNG state (one SplitMix64 word), its counters and digests over
// its pending-RPC and latency samples, the tick and event cursors, the
// network totals and the retry-middleware counters. A resumed run replays
// the prefix from the epoch and proves, field for field, that it
// reconstructed this exact state before continuing (see RunOptions.Resume).
type Checkpoint struct {
	Version int `json:"version"`
	// Scenario identity: a checkpoint only resumes the exact scenario
	// that wrote it.
	Scenario    string  `json:"scenario"`
	Seed        int64   `json:"seed"`
	HorizonS    float64 `json:"horizon_s"`
	ResolutionS float64 `json:"resolution_s"`
	// Tick is the 1-based index of the completed tick this checkpoint
	// describes; SimS the simulation offset from the epoch in seconds.
	Tick int     `json:"tick"`
	SimS float64 `json:"sim_s"`
	// Generation and TopologyVersion pin the coordinator's update cursor.
	Generation      uint64 `json:"generation"`
	TopologyVersion uint64 `json:"topology_version"`
	// Ticks are the accumulated per-tick diff counters.
	Ticks TickReport `json:"ticks"`
	// EventsRun counts executed timeline events; EventsDigest hashes
	// their reports (action, time, node, outcome) in execution order.
	EventsRun    int    `json:"events_run"`
	EventsDigest uint64 `json:"events_digest"`
	// Flows is the per-flow state, in scenario order.
	Flows []FlowCheckpoint `json:"flows"`
	// Network are the global delivery counters.
	Network NetworkReport `json:"network"`
	// Retries pins the robustness middleware counters (host lifecycle
	// and shaper programming), so a resume under a different fault or
	// retry configuration cannot pass verification.
	Retries RetryCheckpoint `json:"retries"`
	// Agents pins the fan-out tier's per-shard delivery state — cursor,
	// chain digest, liveness — so a resume under a different [hosts]
	// configuration (agent count, frame fault rates, kill/rejoin
	// schedule) cannot pass verification.
	Agents []AgentCheckpoint `json:"agents"`
	// Digest is FNV-1a over the checkpoint's JSON encoding with this
	// field zeroed; Load rejects files whose digest does not match
	// (truncated or torn writes, manual edits).
	Digest uint64 `json:"digest"`
}

// FlowCheckpoint is one flow's complete checkpointed state. Pending RPCs
// and latency samples are captured as order-insensitive/ordered digests
// rather than full dumps: verification needs equality evidence, not the
// data itself (the replay reconstructs the data).
type FlowCheckpoint struct {
	Name       string `json:"name"`
	Sent       int64  `json:"sent"`
	Delivered  int64  `json:"delivered"`
	SendErrors int64  `json:"send_errors"`
	Timeouts   int64  `json:"timeouts"`
	Corrupted  int64  `json:"corrupted"`
	NextID     uint64 `json:"next_id"`
	// RNGState is the flow's complete SplitMix64 generator state.
	RNGState uint64 `json:"rng_state"`
	// Pending counts outstanding RPCs; PendingDigest hashes their
	// (id, sent-at) pairs in id order.
	Pending       int    `json:"pending"`
	PendingDigest uint64 `json:"pending_digest"`
	// LatencyCount counts recorded latency samples; LatencyDigest hashes
	// their bit patterns in record order.
	LatencyCount  int    `json:"latency_count"`
	LatencyDigest uint64 `json:"latency_digest"`
}

// AgentCheckpoint pins one fan-out shard's delivery state.
type AgentCheckpoint struct {
	Agent           int    `json:"agent"`
	Applied         uint64 `json:"applied"`
	Digest          uint64 `json:"digest"`
	Down            bool   `json:"down"`
	Dead            bool   `json:"dead"`
	Frames          int    `json:"frames"`
	Resyncs         int    `json:"resyncs"`
	SnapshotResyncs int    `json:"snapshot_resyncs"`
}

// RetryCheckpoint pins the retry middleware's aggregate counters.
type RetryCheckpoint struct {
	HostOps        int64 `json:"host_ops"`
	HostAttempts   int64 `json:"host_attempts"`
	ShaperOps      int64 `json:"shaper_ops"`
	ShaperAttempts int64 `json:"shaper_attempts"`
	ApplyErrors    int64 `json:"apply_errors"`
}

// capture records the run's state at the just-completed tick boundary. It
// only reads state — a checkpointed run executes the identical event
// sequence as a plain run.
func (r *Runner) capture(tick int) *Checkpoint {
	cp := &Checkpoint{
		Version:         CheckpointVersion,
		Scenario:        r.sc.Name,
		Seed:            r.sc.Seed,
		HorizonS:        r.sc.Horizon.Seconds(),
		ResolutionS:     r.sc.Config.Resolution.Seconds(),
		Tick:            tick,
		SimS:            r.sim.Now().Sub(r.epoch).Seconds(),
		Generation:      r.coord.Generation(),
		TopologyVersion: r.coord.TopologyVersion(),
		Ticks:           r.ticks,
		EventsRun:       len(r.events),
		EventsDigest:    digestEvents(r.events),
		Flows:           make([]FlowCheckpoint, 0, len(r.flows)),
	}
	for _, f := range r.flows {
		cp.Flows = append(cp.Flows, f.checkpoint())
	}
	delivered, dropped := r.net.Stats()
	cp.Network = NetworkReport{Delivered: delivered, Dropped: dropped}
	rb := r.coord.Robustness()
	cp.Retries = RetryCheckpoint{
		HostOps:        rb.HostRetries.Ops,
		HostAttempts:   rb.HostRetries.Attempts,
		ShaperOps:      rb.ShaperRetries.Ops,
		ShaperAttempts: rb.ShaperRetries.Attempts,
		ApplyErrors:    int64(rb.ApplyErrors),
	}
	cp.Agents = make([]AgentCheckpoint, 0, r.coord.Fanout().Shards())
	for _, st := range r.coord.Fanout().ShardStats() {
		cp.Agents = append(cp.Agents, AgentCheckpoint{
			Agent:           st.Agent,
			Applied:         st.Applied,
			Digest:          st.Digest,
			Down:            st.Down,
			Dead:            st.Dead,
			Frames:          st.Frames,
			Resyncs:         st.Resyncs,
			SnapshotResyncs: st.SnapshotResyncs,
		})
	}
	cp.Digest = cp.computeDigest()
	return cp
}

// checkpoint captures one flow's state.
func (f *flowState) checkpoint() FlowCheckpoint {
	h := fnv.New64a()
	f.pending.digest(h)
	pendingDigest := h.Sum64()
	h.Reset()
	for _, ms := range f.latenciesMs {
		writeUint64(h, floatBits(ms))
	}
	return FlowCheckpoint{
		Name:          f.cfg.Name,
		Sent:          f.sent,
		Delivered:     f.delivered,
		SendErrors:    f.sendErrors,
		Timeouts:      f.timeouts,
		Corrupted:     f.corrupted,
		NextID:        f.nextID,
		RNGState:      f.rng.State(),
		Pending:       f.pending.open,
		PendingDigest: pendingDigest,
		LatencyCount:  len(f.latenciesMs),
		LatencyDigest: h.Sum64(),
	}
}

// digestEvents hashes the executed-event reports in execution order.
func digestEvents(events []EventReport) uint64 {
	h := fnv.New64a()
	for _, ev := range events {
		writeUint64(h, floatBits(ev.AtS))
		h.Write([]byte(ev.Action))
		h.Write([]byte{0})
		h.Write([]byte(ev.Node))
		h.Write([]byte{0})
		h.Write([]byte(ev.Error))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// computeDigest hashes the checkpoint's canonical JSON with Digest zeroed.
func (cp *Checkpoint) computeDigest() uint64 {
	c := *cp
	c.Digest = 0
	enc, err := json.Marshal(&c)
	if err != nil {
		// Checkpoint contains only plain data fields; encoding cannot
		// fail.
		panic(fmt.Sprintf("scenario: encoding checkpoint: %v", err))
	}
	h := fnv.New64a()
	h.Write(enc)
	return h.Sum64()
}

// writeUint64 feeds one little-endian word to the hash.
func writeUint64(h hash.Hash, v uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	h.Write(b[:])
}

// floatBits maps a float to hashable bits (canonical for the values that
// occur here; the runner never records NaN).
func floatBits(f float64) uint64 { return math.Float64bits(f) }

// WriteFile persists the checkpoint atomically: it writes a temporary file
// in the destination directory, syncs it to stable storage and renames it
// over the destination, so a crash mid-write leaves either the previous
// checkpoint or the new one — never a torn file.
func (cp *Checkpoint) WriteFile(path string) error {
	enc, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return fmt.Errorf("scenario: encoding checkpoint: %w", err)
	}
	enc = append(enc, '\n')
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("scenario: checkpoint temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(enc); err != nil {
		tmp.Close()
		return fmt.Errorf("scenario: writing checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("scenario: syncing checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("scenario: closing checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("scenario: publishing checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads and integrity-checks a checkpoint file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: reading checkpoint: %w", err)
	}
	cp := &Checkpoint{}
	if err := json.Unmarshal(data, cp); err != nil {
		return nil, fmt.Errorf("scenario: decoding checkpoint %s: %w", path, err)
	}
	if cp.Version != CheckpointVersion {
		return nil, fmt.Errorf("scenario: checkpoint %s has version %d, want %d", path, cp.Version, CheckpointVersion)
	}
	if got := cp.computeDigest(); got != cp.Digest {
		return nil, fmt.Errorf("scenario: checkpoint %s is corrupt: digest %#x, recomputed %#x", path, cp.Digest, got)
	}
	return cp, nil
}

// Matches reports whether the checkpoint belongs to this scenario: same
// name, seed, horizon and resolution. It runs before the replay so an
// obviously foreign checkpoint fails fast.
func (cp *Checkpoint) Matches(sc *Scenario) error {
	switch {
	case cp.Scenario != sc.Name:
		return fmt.Errorf("scenario: checkpoint is for scenario %q, not %q", cp.Scenario, sc.Name)
	case cp.Seed != sc.Seed:
		return fmt.Errorf("scenario: checkpoint seed %d does not match scenario seed %d", cp.Seed, sc.Seed)
	case cp.HorizonS != sc.Horizon.Seconds():
		return fmt.Errorf("scenario: checkpoint horizon %vs does not match scenario horizon %v", cp.HorizonS, sc.Horizon)
	case cp.ResolutionS != sc.Config.Resolution.Seconds():
		return fmt.Errorf("scenario: checkpoint resolution %vs does not match testbed resolution %v", cp.ResolutionS, sc.Config.Resolution)
	}
	return nil
}

// Verify compares the persisted checkpoint against the state a replay
// recomputed at the same tick, field for field. Any difference means the
// replay is NOT the run that wrote the checkpoint — a changed scenario
// file, different binary, or environment drift — and resuming would
// silently produce a franken-run, so the caller aborts instead.
func (cp *Checkpoint) Verify(replayed *Checkpoint) error {
	if cp.Tick != replayed.Tick {
		return fmt.Errorf("tick %d vs replayed %d", cp.Tick, replayed.Tick)
	}
	a, b := *cp, *replayed
	a.Digest, b.Digest = 0, 0
	aFlows, bFlows := a.Flows, b.Flows
	a.Flows, b.Flows = nil, nil
	aEnc, _ := json.Marshal(&a)
	bEnc, _ := json.Marshal(&b)
	if string(aEnc) != string(bEnc) {
		return fmt.Errorf("replayed run state diverged from checkpoint:\n  checkpoint: %s\n  replayed:   %s", aEnc, bEnc)
	}
	if len(aFlows) != len(bFlows) {
		return fmt.Errorf("checkpoint has %d flows, replay has %d", len(aFlows), len(bFlows))
	}
	for i := range aFlows {
		if aFlows[i] != bFlows[i] {
			return fmt.Errorf("flow %q diverged from checkpoint:\n  checkpoint: %+v\n  replayed:   %+v", aFlows[i].Name, aFlows[i], bFlows[i])
		}
	}
	return nil
}
