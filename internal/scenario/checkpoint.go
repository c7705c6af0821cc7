package scenario

import (
	"bytes"
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
// silently reinterpreted. Version 2 added the per-agent fan-out state;
// version 3 replaced every pinned counter with the report so far.
const CheckpointVersion = 3

// Checkpoint is the crash-safe record of a run's state at one tick
// boundary. It deliberately does not try to serialize the simulation event
// queue — scheduled events (in-flight deliveries, armed fault events, flow
// arrivals) have no faithful wire form. Instead it holds everything a
// deterministic replay can be checked against: the coordinator's update
// cursor, the run report as it stands at the tick (every counter the final
// report will hold, so a resume under a changed scenario, binary or fault
// configuration cannot pass verification), and per flow what the report
// does not show — its RNG word and digests over its pending RPCs and
// latency samples. A resumed run replays the prefix from the epoch and
// proves it reconstructed this exact state before continuing (see
// RunOptions.Resume).
type Checkpoint struct {
	Version int `json:"version"`
	// Tick is the 1-based index of the completed tick this checkpoint
	// describes; SimS the simulation offset from the epoch in seconds.
	Tick int     `json:"tick"`
	SimS float64 `json:"sim_s"`
	// Generation and TopologyVersion pin the coordinator's update cursor.
	Generation      uint64 `json:"generation"`
	TopologyVersion uint64 `json:"topology_version"`
	// Report is the run report at the tick. Its identity fields (scenario
	// name, seed, horizon, resolution) tie the checkpoint to its scenario.
	Report Report `json:"report"`
	// Flows is the per-flow state the report lacks, in scenario order.
	Flows []FlowCheckpoint `json:"flows"`
	// Digest is FNV-1a over the checkpoint's JSON encoding with this
	// field zeroed; Load rejects files whose digest does not match
	// (truncated or torn writes, manual edits).
	Digest uint64 `json:"digest"`
}

// FlowCheckpoint is the part of one flow's state its report entry does not
// show. Pending RPCs and latency samples are captured as digests rather
// than full dumps: verification needs equality evidence, not the data
// itself (the replay reconstructs the data).
type FlowCheckpoint struct {
	Name   string `json:"name"`
	NextID uint64 `json:"next_id"`
	// RNGState is the flow's complete SplitMix64 generator state.
	RNGState uint64 `json:"rng_state"`
	// PendingDigest hashes the outstanding RPCs' (id, sent-at) pairs in
	// id order; LatencyDigest the latency samples' bit patterns in record
	// order.
	PendingDigest uint64 `json:"pending_digest"`
	LatencyDigest uint64 `json:"latency_digest"`
}

// capture records the run's state at the just-completed tick boundary. It
// only reads state — a checkpointed run executes the identical event
// sequence as a plain run.
func (r *Runner) capture(tick int) *Checkpoint {
	cp := &Checkpoint{
		Version:         CheckpointVersion,
		Tick:            tick,
		SimS:            r.sim.Now().Sub(r.epoch).Seconds(),
		Generation:      r.coord.Generation(),
		TopologyVersion: r.coord.TopologyVersion(),
		Report:          *r.report(),
		Flows:           make([]FlowCheckpoint, 0, len(r.flows)),
	}
	for _, f := range r.flows {
		cp.Flows = append(cp.Flows, f.checkpoint())
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
		writeUint64(h, math.Float64bits(ms)) // never NaN, so canonical
	}
	return FlowCheckpoint{
		Name:          f.cfg.Name,
		NextID:        f.nextID,
		RNGState:      f.rng.State(),
		PendingDigest: pendingDigest,
		LatencyDigest: h.Sum64(),
	}
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
	if cp.Tick < 1 {
		return nil, fmt.Errorf("scenario: checkpoint %s is at tick %d, before the first tick boundary", path, cp.Tick)
	}
	return cp, nil
}

// Matches reports whether the checkpoint belongs to this scenario: same
// name, seed, horizon and resolution. It runs before the replay so an
// obviously foreign checkpoint fails fast.
func (cp *Checkpoint) Matches(sc *Scenario) error {
	rep := &cp.Report
	switch {
	case rep.Scenario != sc.Name:
		return fmt.Errorf("scenario: checkpoint is for scenario %q, not %q", rep.Scenario, sc.Name)
	case rep.Seed != sc.Seed:
		return fmt.Errorf("scenario: checkpoint seed %d does not match scenario seed %d", rep.Seed, sc.Seed)
	case rep.HorizonS != sc.Horizon.Seconds():
		return fmt.Errorf("scenario: checkpoint horizon %vs does not match scenario horizon %v", rep.HorizonS, sc.Horizon)
	case rep.ResolutionS != sc.Config.Resolution.Seconds():
		return fmt.Errorf("scenario: checkpoint resolution %vs does not match testbed resolution %v", rep.ResolutionS, sc.Config.Resolution)
	}
	return nil
}

// Verify compares the persisted checkpoint against the state a replay
// recomputed at the same tick — the whole report so far and every flow's
// hidden state. Any difference means the replay is NOT the run that wrote
// the checkpoint — a changed scenario file, different binary, or
// environment drift — and resuming would silently produce a franken-run,
// so the caller aborts instead. The error names the first differing line
// of the checkpoint file.
func (cp *Checkpoint) Verify(replayed *Checkpoint) error {
	if cp.Tick != replayed.Tick {
		return fmt.Errorf("tick %d vs replayed %d", cp.Tick, replayed.Tick)
	}
	a, b := *cp, *replayed
	a.Digest, b.Digest = 0, 0
	aEnc, _ := json.MarshalIndent(&a, "", "  ")
	bEnc, _ := json.MarshalIndent(&b, "", "  ")
	if bytes.Equal(aEnc, bEnc) {
		return nil
	}
	aLines, bLines := bytes.Split(aEnc, []byte("\n")), bytes.Split(bEnc, []byte("\n"))
	i := 0
	for i < len(aLines) && i < len(bLines) && bytes.Equal(aLines[i], bLines[i]) {
		i++
	}
	line := func(lines [][]byte) []byte {
		if i < len(lines) {
			return bytes.TrimSpace(lines[i])
		}
		return nil
	}
	return fmt.Errorf("replayed run state diverged from checkpoint at line %d:\n  checkpoint: %s\n  replayed:   %s",
		i+1, line(aLines), line(bLines))
}
