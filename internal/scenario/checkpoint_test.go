package scenario

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// errKilled is the sentinel the tests' tick hooks abort runs with,
// simulating a crash at a tick boundary.
var errKilled = errors.New("killed")

// runnerFor builds a fresh Runner for the given document.
func runnerFor(t *testing.T, doc string) *Runner {
	t.Helper()
	sc, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(sc)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// supervisedTOML layers deterministic fault injection and retries on top of
// the standard unit workload: every host lifecycle attempt and shaper
// programming attempt fails with 20% probability, absorbed by a 6-attempt
// retry policy.
const supervisedTOML = `
[supervision]
apply_fault_rate = 0.2
shaper_fault_rate = 0.2
retry_max_attempts = 6
retry_jitter = 0.25
`

// TestKillAndResumeByteIdentical is the crash-safety differential: a run
// killed at an arbitrary tick boundary and resumed from its checkpoint
// produces a final report byte-identical to an uninterrupted run — with
// fault injection and retries active, so the resumed replay must also
// reconstruct every retry draw. Kill points cover the first tick, a
// mid-run tick and the last tick before the horizon.
func TestKillAndResumeByteIdentical(t *testing.T) {
	doc := workloadTOML + supervisedTOML + testbedTOML
	want, err := runnerFor(t, doc).RunWith(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := want.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, killAt := range []int{1, 3, 6} {
		path := filepath.Join(t.TempDir(), "run.ckpt")
		_, err := runnerFor(t, doc).RunWith(RunOptions{
			CheckpointPath: path,
			TickHook: func(tick int) error {
				if tick == killAt {
					return errKilled
				}
				return nil
			},
		})
		if !errors.Is(err, errKilled) {
			t.Fatalf("kill at tick %d: run returned %v, want errKilled", killAt, err)
		}
		cp, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatalf("kill at tick %d: %v", killAt, err)
		}
		if cp.Tick != killAt {
			t.Fatalf("kill at tick %d: checkpoint records tick %d", killAt, cp.Tick)
		}
		got, err := runnerFor(t, doc).RunWith(RunOptions{Resume: cp})
		if err != nil {
			t.Fatalf("resume from tick %d: %v", killAt, err)
		}
		gotJSON, err := got.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Errorf("resume from tick %d: report differs from uninterrupted run:\n--- uninterrupted\n%s\n--- resumed\n%s",
				killAt, wantJSON, gotJSON)
		}
	}
}

// TestCheckpointRoundTrip pins the on-disk format: a written checkpoint
// loads back identical, and its digest actually covers the content.
func TestCheckpointRoundTrip(t *testing.T) {
	doc := workloadTOML + testbedTOML
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if _, err := runnerFor(t, doc).RunWith(RunOptions{CheckpointPath: path, CheckpointEvery: 2}); err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	// 12 s at 2 s resolution with checkpoints every 2 ticks: the last one
	// lands on tick 6.
	if cp.Tick != 6 {
		t.Errorf("final checkpoint at tick %d, want 6", cp.Tick)
	}
	if cp.Version != CheckpointVersion || cp.Report.Scenario != "unit-run" || cp.Report.Seed != 7 {
		t.Errorf("checkpoint identity = %+v", cp)
	}
	if len(cp.Flows) != 2 || cp.Flows[0].Name != "ping" || cp.Report.Flows[0].Sent == 0 {
		t.Errorf("flow state not captured: %+v %+v", cp.Flows, cp.Report.Flows)
	}
	if cp.Flows[1].RNGState == 0 {
		t.Error("poisson flow RNG state not captured")
	}
}

// TestCheckpointRejectsCorruptFile guards the integrity check: any byte
// flip in the persisted file must surface as a digest mismatch, and a
// truncated file as a decode error.
func TestCheckpointRejectsCorruptFile(t *testing.T) {
	doc := workloadTOML + testbedTOML
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if _, err := runnerFor(t, doc).RunWith(RunOptions{CheckpointPath: path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one digit inside the flow counters.
	tampered := bytes.Replace(data, []byte(`"sent": 6`), []byte(`"sent": 7`), 1)
	if bytes.Equal(tampered, data) {
		t.Fatal("tamper target not found in checkpoint")
	}
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("tampered checkpoint loaded: %v", err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil {
		t.Error("truncated checkpoint loaded")
	}
}

// TestResumeRejectsForeignCheckpoint guards Matches: a checkpoint from a
// different seed (i.e. a different run) must fail fast, before any replay.
func TestResumeRejectsForeignCheckpoint(t *testing.T) {
	doc := workloadTOML + testbedTOML
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if _, err := runnerFor(t, doc).RunWith(RunOptions{CheckpointPath: path}); err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	other := strings.Replace(workloadTOML, "seed = 7", "seed = 8", 1) + testbedTOML
	if _, err := runnerFor(t, other).RunWith(RunOptions{Resume: cp}); err == nil ||
		!strings.Contains(err.Error(), "seed") {
		t.Errorf("foreign checkpoint accepted: %v", err)
	}
}

// TestResumeRejectsDivergedState guards Verify: a checkpoint whose state
// does not match the deterministic replay — here a hand-edited RNG word,
// standing in for a changed scenario file or binary — must abort the
// resume instead of continuing a franken-run. The digest is recomputed so
// only the replay comparison can catch it.
func TestResumeRejectsDivergedState(t *testing.T) {
	doc := workloadTOML + testbedTOML
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if _, err := runnerFor(t, doc).RunWith(RunOptions{CheckpointPath: path}); err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	cp.Flows[1].RNGState++
	cp.Digest = cp.computeDigest()
	if _, err := runnerFor(t, doc).RunWith(RunOptions{Resume: cp}); err == nil ||
		!strings.Contains(err.Error(), "diverged") {
		t.Errorf("diverged checkpoint accepted: %v", err)
	}
}

// TestResumeRejectsUnreachedTick guards the verification itself: a
// checkpoint whose tick the run never reaches — before the first boundary
// or past the last — would otherwise resume without being checked. Load
// refuses a tick below 1, and a resume that ends without having verified
// fails instead of returning a report.
func TestResumeRejectsUnreachedTick(t *testing.T) {
	doc := workloadTOML + testbedTOML
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if _, err := runnerFor(t, doc).RunWith(RunOptions{CheckpointPath: path}); err != nil {
		t.Fatal(err)
	}
	for _, tick := range []int{10_000, 0} {
		cp, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		cp.Tick = tick
		cp.Digest = cp.computeDigest()
		if rep, err := runnerFor(t, doc).RunWith(RunOptions{Resume: cp}); err == nil {
			t.Errorf("tick %d: resume returned a report without verifying: %+v", tick, rep.Ticks)
		}
		edited := filepath.Join(t.TempDir(), "edited.ckpt")
		if err := cp.WriteFile(edited); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(edited); (err != nil) != (tick < 1) {
			t.Errorf("tick %d: load returned %v", tick, err)
		}
	}
}

// TestResumeRejectsChangedDupRate: the checkpoint pins the whole report so
// far, including counters no hand-picked field list held. Duplicated
// frames are discarded by cursor, so a resume under a changed
// frame_dup_rate rebuilds the same applied cursors, digests, frames and
// resyncs — only the shards' duplicated counters tell the runs apart, and
// verification must refuse it.
func TestResumeRejectsChangedDupRate(t *testing.T) {
	const hosts = `
[hosts]
agents = 2
frame_drop_rate = 0.0
frame_dup_rate = 0.0
frame_delay_rate = 0.0
`
	doc := workloadTOML + hosts + testbedTOML
	path := filepath.Join(t.TempDir(), "run.ckpt")
	_, err := runnerFor(t, doc).RunWith(RunOptions{
		CheckpointPath: path,
		TickHook: func(tick int) error {
			if tick == 4 {
				return errKilled
			}
			return nil
		},
	})
	if !errors.Is(err, errKilled) {
		t.Fatalf("run returned %v, want errKilled", err)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	dup := workloadTOML + strings.Replace(hosts, "frame_dup_rate = 0.0", "frame_dup_rate = 0.5", 1) + testbedTOML
	if _, err := runnerFor(t, dup).RunWith(RunOptions{Resume: cp}); err == nil ||
		!strings.Contains(err.Error(), `"duplicated"`) {
		t.Errorf("resume under a changed frame_dup_rate: %v", err)
	}
}

// TestInjectedFaultsRecoveredAndReported runs the unit workload under
// supervision: transient faults are injected into host lifecycle and
// shaper programming, the retry middleware absorbs them, and the report's
// robustness section records the recoveries — deterministically, so two
// supervised runs still produce byte-identical reports.
func TestInjectedFaultsRecoveredAndReported(t *testing.T) {
	doc := workloadTOML + supervisedTOML + testbedTOML
	rep, err := runnerFor(t, doc).RunWith(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rb := rep.Robustness
	if rb.HostRetries.Ops == 0 || rb.HostRetries.Retried == 0 || rb.HostRetries.Recovered == 0 {
		t.Errorf("host retries not exercised: %+v", rb.HostRetries)
	}
	if rb.ShaperRetries.Ops == 0 || rb.ShaperRetries.Retried == 0 {
		t.Errorf("shaper retries not exercised: %+v", rb.ShaperRetries)
	}
	if rb.HostRetries.Backoff <= 0 {
		t.Errorf("no virtual backoff charged: %+v", rb.HostRetries)
	}
	// The run must complete its full tick schedule despite the faults.
	if rep.Ticks.Ticks != 7 {
		t.Errorf("ticks = %d, want 7", rep.Ticks.Ticks)
	}
	if rep.Flows[0].Delivered == 0 {
		t.Errorf("rpc flow starved under supervision: %+v", rep.Flows[0])
	}
	// Determinism gate: injected faults and retries are fully seeded.
	again, err := runnerFor(t, doc).RunWith(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := rep.JSON()
	b, _ := again.JSON()
	if !bytes.Equal(a, b) {
		t.Errorf("supervised runs differ:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
}

// FuzzLoadCheckpoint feeds LoadCheckpoint arbitrary file contents, seeded
// with a checkpoint a short fault-soak run wrote and truncations of it. It
// must not panic, and a checkpoint it accepts has the current version, a
// digest that recomputes, a tick of at least 1, and can be matched against
// a scenario.
func FuzzLoadCheckpoint(f *testing.F) {
	data, err := os.ReadFile("../../examples/scenarios/fault-soak.toml")
	if err != nil {
		f.Fatal(err)
	}
	sc, err := Parse(bytes.NewReader(data))
	if err != nil {
		f.Fatal(err)
	}
	if err := sc.Truncate(6 * time.Second); err != nil {
		f.Fatal(err)
	}
	r, err := NewRunner(sc)
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(f.TempDir(), "run.ckpt")
	if _, err := r.RunWith(RunOptions{CheckpointPath: path}); err != nil {
		f.Fatal(err)
	}
	if loaded, err := LoadCheckpoint(path); err != nil || loaded.Matches(sc) != nil {
		f.Fatalf("the seed checkpoint does not load and match: %v", err)
	}
	cp, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	for _, n := range []int{len(cp), len(cp) - 2, len(cp) / 2, len(cp) / 3, 0} {
		f.Add(cp[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "run.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cp, err := LoadCheckpoint(path)
		if err != nil {
			return
		}
		if cp.Version != CheckpointVersion {
			t.Fatalf("accepted version %d", cp.Version)
		}
		if got := cp.computeDigest(); got != cp.Digest {
			t.Fatalf("accepted digest %#x, recomputed %#x", cp.Digest, got)
		}
		if cp.Tick < 1 {
			t.Fatalf("accepted tick %d", cp.Tick)
		}
		_ = cp.Matches(sc)
	})
}
