package applyengine

import (
	"errors"
	"testing"
	"time"

	"celestial/internal/hostlink"
	"celestial/internal/retry"
)

// scriptBackend fails SweepActivity with the scripted errors in order,
// then succeeds, recording every operation.
type scriptBackend struct {
	sweepErrs   []error
	invalidates int
	sweeps      int
	notes       int
	snapshots   int
}

func (b *scriptBackend) InvalidatePaths() { b.invalidates++ }
func (b *scriptBackend) NoteUpdate()      { b.notes++ }
func (b *scriptBackend) SweepActivity() error {
	b.sweeps++
	if len(b.sweepErrs) == 0 {
		return nil
	}
	err := b.sweepErrs[0]
	b.sweepErrs = b.sweepErrs[1:]
	return err
}
func (b *scriptBackend) AdoptSnapshot(*hostlink.Snapshot) error {
	b.snapshots++
	return nil
}

func TestEngineExecutesPolicyFlagsInOrder(t *testing.T) {
	b := &scriptBackend{}
	e := New(Config{Shard: 1, Backend: b, Seed: 7})

	// Sweep with invalidate: both backend ops, digest over the flags.
	f := &hostlink.DiffFrame{Generation: 3, Flags: hostlink.FlagChanged | hostlink.FlagInvalidate | hostlink.FlagSweep}
	if err := e.ApplyDiff(f); err != nil {
		t.Fatalf("ApplyDiff: %v", err)
	}
	if b.invalidates != 1 || b.sweeps != 1 || b.notes != 0 {
		t.Fatalf("backend ops = %+v, want invalidate+sweep", b)
	}
	res := e.LastResult()
	want := hostlink.ResultDigest(3, hostlink.FlagInvalidate|hostlink.FlagSweep)
	if res.Generation != 3 || res.Digest != want || res.Attempts != 1 || res.Retried != 0 {
		t.Fatalf("result = %+v, want gen 3 digest %#x attempts 1", res, want)
	}

	// Note-only frame: no sweep, no invalidate.
	if err := e.ApplyDiff(&hostlink.DiffFrame{Generation: 4, Flags: hostlink.FlagNote}); err != nil {
		t.Fatalf("ApplyDiff(note): %v", err)
	}
	if b.notes != 1 || b.sweeps != 1 {
		t.Fatalf("backend ops after note = %+v", b)
	}

	// Content flags alone command no work but still digest the pass.
	if err := e.ApplyDiff(&hostlink.DiffFrame{Generation: 5, Flags: hostlink.FlagChanged}); err != nil {
		t.Fatalf("ApplyDiff(content-only): %v", err)
	}
	if got := e.LastResult().Digest; got != hostlink.ResultDigest(5, 0) {
		t.Fatalf("content-only digest = %#x, want %#x", got, hostlink.ResultDigest(5, 0))
	}
}

func TestEngineRetriesTransientSweeps(t *testing.T) {
	b := &scriptBackend{sweepErrs: []error{
		retry.Transient(errors.New("shaper busy")),
		retry.Transient(errors.New("shaper busy")),
	}}
	e := New(Config{Backend: b, Seed: 1, Retry: retry.Policy{MaxAttempts: 4, Jitter: 0.5}})
	if err := e.ApplyDiff(&hostlink.DiffFrame{Generation: 9, Flags: hostlink.FlagSweep}); err != nil {
		t.Fatalf("ApplyDiff should recover: %v", err)
	}
	res := e.LastResult()
	if res.Attempts != 3 || res.Retried != 2 {
		t.Fatalf("result = %+v, want 3 attempts / 2 retries", res)
	}
	// Retry noise must not perturb the commit digest.
	if res.Digest != hostlink.ResultDigest(9, hostlink.FlagSweep) {
		t.Fatal("retries perturbed the result digest")
	}

	// A fatal error surfaces immediately.
	b.sweepErrs = []error{errors.New("illegal transition")}
	if err := e.ApplyDiff(&hostlink.DiffFrame{Generation: 10, Flags: hostlink.FlagSweep}); err == nil {
		t.Fatal("fatal sweep error did not surface")
	}
	if e.LastResult().Attempts != 1 {
		t.Fatalf("fatal error was retried: %+v", e.LastResult())
	}
}

func TestEngineJitterStreamsAlignPerGeneration(t *testing.T) {
	// Two engines with the same seed but different histories must charge
	// identical backoff for the same generation: the jitter stream is a
	// function of (seed, gen), not of how many draws came before.
	run := func(warmup bool) time.Duration {
		b := &scriptBackend{}
		e := New(Config{Backend: b, Seed: 42, Retry: retry.Policy{MaxAttempts: 5, Jitter: 1}})
		if warmup {
			// Burn a retried generation first.
			b.sweepErrs = []error{retry.Transient(errors.New("busy"))}
			_ = e.ApplyDiff(&hostlink.DiffFrame{Generation: 2, Flags: hostlink.FlagSweep})
		}
		b.sweepErrs = []error{
			retry.Transient(errors.New("busy")),
			retry.Transient(errors.New("busy")),
		}
		return e.do(7, b.SweepActivity).Backoff
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("generation-7 backoff depends on history: %v vs %v", a, b)
	}
}

func TestEngineSnapshotDigestsAsInvalidateSweep(t *testing.T) {
	b := &scriptBackend{}
	e := New(Config{Backend: b, Seed: 3})
	if err := e.ApplySnapshot(&hostlink.Snapshot{Generation: 12}); err != nil {
		t.Fatalf("ApplySnapshot: %v", err)
	}
	if b.invalidates != 1 || b.snapshots != 1 {
		t.Fatalf("backend ops = %+v, want invalidate+adopt", b)
	}
	want := hostlink.ResultDigest(12, hostlink.FlagInvalidate|hostlink.FlagSweep)
	if got := e.LastResult().Digest; got != want {
		t.Fatalf("snapshot digest = %#x, want %#x", got, want)
	}
}

func TestReplicaBackendDigestsEveryGeneration(t *testing.T) {
	e := New(Config{Backend: &ReplicaBackend{}, Seed: 5})
	steps := []struct {
		apply func() error
		gen   uint64
		flags uint8
	}{
		{func() error {
			return e.ApplyDiff(&hostlink.DiffFrame{Generation: 1, Flags: hostlink.FlagInvalidate | hostlink.FlagSweep})
		}, 1, hostlink.FlagInvalidate | hostlink.FlagSweep},
		{func() error { return e.ApplyDiff(&hostlink.DiffFrame{Generation: 2, Flags: hostlink.FlagNote}) }, 2, hostlink.FlagNote},
		{func() error { return e.ApplySnapshot(&hostlink.Snapshot{Generation: 3}) }, 3, hostlink.FlagInvalidate | hostlink.FlagSweep},
	}
	for _, st := range steps {
		if err := st.apply(); err != nil {
			t.Fatalf("generation %d: %v", st.gen, err)
		}
		if got, want := e.LastResult(), (hostlink.ApplyResult{Generation: st.gen, Digest: hostlink.ResultDigest(st.gen, st.flags), Attempts: 1}); got != want {
			t.Fatalf("generation %d result = %+v, want %+v", st.gen, got, want)
		}
	}
}
