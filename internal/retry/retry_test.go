package retry

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"celestial/internal/rng"
)

func TestSucceedsFirstTry(t *testing.T) {
	calls := 0
	res := Do(Policy{}, nil, func() error { calls++; return nil })
	if res.Err != nil || res.Attempts != 1 || res.Backoff != 0 || calls != 1 {
		t.Fatalf("res = %+v, calls = %d", res, calls)
	}
}

func TestTransientRecovers(t *testing.T) {
	calls := 0
	res := Do(Policy{MaxAttempts: 5}, nil, func() error {
		calls++
		if calls < 3 {
			return Transient(errors.New("flaky"))
		}
		return nil
	})
	if res.Err != nil || res.Attempts != 3 {
		t.Fatalf("res = %+v", res)
	}
	// Two backoff steps: 1ms + 2ms with the default policy, no jitter.
	if res.Backoff != 3*time.Millisecond {
		t.Errorf("backoff = %v, want 3ms", res.Backoff)
	}
}

func TestFatalStopsImmediately(t *testing.T) {
	boom := errors.New("illegal transition")
	calls := 0
	res := Do(Policy{MaxAttempts: 5}, nil, func() error { calls++; return boom })
	if calls != 1 || res.GaveUp || !errors.Is(res.Err, boom) {
		t.Fatalf("res = %+v, calls = %d", res, calls)
	}
}

func TestExhaustsAttempts(t *testing.T) {
	calls := 0
	res := Do(Policy{MaxAttempts: 4}, nil, func() error {
		calls++
		return Transient(errors.New("still flaky"))
	})
	if calls != 4 || !res.GaveUp || res.Err == nil {
		t.Fatalf("res = %+v, calls = %d", res, calls)
	}
	if !IsTransient(res.Err) {
		t.Error("give-up error lost its transient mark")
	}
}

func TestBudgetStopsRetries(t *testing.T) {
	res := Do(Policy{MaxAttempts: 100, Initial: 10 * time.Millisecond, Budget: 25 * time.Millisecond},
		nil, func() error { return Transient(errors.New("flaky")) })
	// Steps 10ms, 20ms: the second step would push the total to 30ms > 25ms.
	if !res.GaveUp || res.Attempts != 2 || res.Backoff != 10*time.Millisecond {
		t.Fatalf("res = %+v", res)
	}
}

func TestBackoffCapsAtMax(t *testing.T) {
	res := Do(Policy{MaxAttempts: 5, Initial: 4 * time.Millisecond, Max: 6 * time.Millisecond},
		nil, func() error { return Transient(errors.New("flaky")) })
	// Steps: 4, 6, 6, 6 = 22ms across 4 backoffs.
	if res.Backoff != 22*time.Millisecond {
		t.Fatalf("backoff = %v, want 22ms", res.Backoff)
	}
}

func TestJitterSpreadsAndStaysDeterministic(t *testing.T) {
	p := Policy{MaxAttempts: 3, Initial: 10 * time.Millisecond, Jitter: 0.5}
	run := func(seed int64) time.Duration {
		s := rng.New(seed)
		return Do(p, s.Float64, func() error { return Transient(errors.New("x")) }).Backoff
	}
	if run(1) != run(1) {
		t.Error("same seed produced different jittered backoff")
	}
	if run(1) == run(2) {
		t.Error("jitter ignored the random stream")
	}
	// Each step stays within ±50% of nominal.
	b := run(3)
	if b < 15*time.Millisecond || b > 45*time.Millisecond {
		t.Errorf("jittered total %v outside [15ms, 45ms]", b)
	}
}

func TestTransientClassification(t *testing.T) {
	if Transient(nil) != nil {
		t.Error("Transient(nil) != nil")
	}
	base := errors.New("root")
	wrapped := fmt.Errorf("context: %w", Transient(base))
	if !IsTransient(wrapped) {
		t.Error("transient mark lost through wrapping")
	}
	if !errors.Is(wrapped, base) {
		t.Error("cause lost through Transient")
	}
	if IsTransient(base) {
		t.Error("unmarked error classified transient")
	}
}

func TestValidate(t *testing.T) {
	for _, bad := range []Policy{
		{MaxAttempts: -1},
		{Jitter: -0.1},
		{Jitter: 1.5},
		{Initial: -time.Second},
		{Budget: -time.Second},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("policy %+v validated", bad)
		}
	}
	if err := (Policy{MaxAttempts: 3, Jitter: 0.5}).Validate(); err != nil {
		t.Errorf("good policy rejected: %v", err)
	}
}

func TestStats(t *testing.T) {
	var s Stats
	s.Record(Result{Attempts: 1})                                     // clean success
	s.Record(Result{Attempts: 3, Backoff: 5 * time.Millisecond})      // recovered
	s.Record(Result{Attempts: 4, GaveUp: true, Err: errors.New("x")}) // gave up
	s.Record(Result{Attempts: 1, Err: errors.New("fatal")})           // fatal
	if s.Ops != 4 || s.Attempts != 9 || s.Retried != 2 || s.Recovered != 1 ||
		s.GaveUp != 1 || s.Fatal != 1 || s.Backoff != 5*time.Millisecond {
		t.Fatalf("stats = %+v", s)
	}
	var total Stats
	total.Add(s)
	total.Add(s)
	if total.Ops != 8 || total.Attempts != 18 {
		t.Fatalf("merged = %+v", total)
	}
}

// TestGuardDrawOrder pins the guard's use of its two streams — the contract
// that keeps seeded runs byte-identical: one fault draw per attempt while
// injection is on, one jitter draw per backoff while Jitter is positive, and
// none otherwise. The expected outcome is replayed by hand from streams with
// the same seeds.
func TestGuardDrawOrder(t *testing.T) {
	const rate, faultSeed, jitterSeed = 0.5, 11, 12
	p := Policy{MaxAttempts: 8, Jitter: 0.5}
	g := NewGuard("injected test fault")
	g.SetPolicy(p, jitterSeed)
	g.SetFaults(rate, faultSeed)
	faults, jitter := rng.New(faultSeed), rng.New(jitterSeed)
	var want Stats
	for op := 0; op < 50; op++ {
		ran := 0
		err := g.Do(func() error { ran++; return nil })
		want.Record(Do(p, jitter.Float64, func() error {
			if faults.Float64() < rate {
				return Transient(errors.New("injected test fault"))
			}
			return nil
		}))
		if (err == nil) != (ran == 1) {
			t.Fatalf("op %d: err = %v but the operation ran %d times", op, err, ran)
		}
		if err != nil && (!IsTransient(err) || err.Error() != "retry: gave up after 8 attempts: injected test fault") {
			t.Fatalf("op %d: err = %v", op, err)
		}
	}
	if got := g.Stats(); got != want || got.Retried == 0 {
		t.Errorf("stats = %+v, want %+v with retries", got, want)
	}

	// Injection off and Jitter zero: neither stream is touched.
	quiet := NewGuard("unused")
	quiet.SetPolicy(Policy{MaxAttempts: 3}, 1)
	quiet.SetFaults(0, 2)
	fails := 0
	if err := quiet.Do(func() error { fails++; return Transient(errors.New("busy")) }); err == nil || fails != 3 {
		t.Fatalf("err = %v after %d attempts", err, fails)
	}
	if quiet.jitter.Uint64() != rng.New(1).Uint64() || quiet.faults.Uint64() != rng.New(2).Uint64() {
		t.Error("a stream was drawn from with injection off and no jitter")
	}
	// The zero guard retries under Default without jitter.
	if err := NewGuard("unused").Do(func() error { return nil }); err != nil {
		t.Error(err)
	}
}
