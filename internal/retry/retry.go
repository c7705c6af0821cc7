// Package retry is the testbed's failure-handling middleware for
// infrastructure operations: jittered exponential backoff with per-call
// attempt and budget limits, and an explicit transient-vs-fatal error
// classification. RAFDA argues that policies like these — whether to retry,
// how long, and where failures surface — belong in a dedicated middleware
// layer instead of being scattered through application code; this package
// is that layer for the host's machine lifecycle operations (start,
// suspend, resume) and the virtual network's shaper programming, so a
// transient apply failure retries within the tick budget instead of
// aborting the whole emulation run.
//
// The emulated operations complete instantly in virtual time, so Do never
// sleeps: the backoff an operation *would* have waited is computed with the
// same policy arithmetic a wall-clock retrier uses, charged against the
// policy's budget, and reported in the Result — which is exactly the
// quantity the tick watchdog needs to decide whether retries still fit the
// update interval.
package retry

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"celestial/internal/rng"
)

// Policy bounds one retried operation.
type Policy struct {
	// MaxAttempts is the total number of tries including the first; 1
	// means no retries. Zero adopts the default (4).
	MaxAttempts int
	// Initial is the backoff after the first failed attempt; zero adopts
	// the default (1ms).
	Initial time.Duration
	// Max caps a single backoff step; zero adopts the default (100ms).
	Max time.Duration
	// Multiplier grows the backoff per step; zero adopts the default (2).
	Multiplier float64
	// Jitter spreads each backoff uniformly over ±Jitter fraction of its
	// nominal value, decorrelating retry storms. Must be in [0, 1].
	Jitter float64
	// Budget caps the total backoff charged across all attempts; an
	// attempt whose backoff would exceed it gives up instead. Zero means
	// no budget limit. Callers inside the tick pipeline set this to a
	// fraction of the update interval so retries cannot push a tick over
	// its deadline.
	Budget time.Duration
}

// Default returns the policy used when a caller leaves fields zero.
func Default() Policy {
	return Policy{MaxAttempts: 4, Initial: time.Millisecond, Max: 100 * time.Millisecond, Multiplier: 2}
}

// normalized fills zero fields with defaults.
func (p Policy) normalized() Policy {
	d := Default()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.Initial <= 0 {
		p.Initial = d.Initial
	}
	if p.Max <= 0 {
		p.Max = d.Max
	}
	if p.Multiplier <= 1 {
		p.Multiplier = d.Multiplier
	}
	return p
}

// Validate reports an error for unusable parameters.
func (p Policy) Validate() error {
	if p.MaxAttempts < 0 {
		return fmt.Errorf("retry: negative max attempts %d", p.MaxAttempts)
	}
	if p.Jitter < 0 || p.Jitter > 1 {
		return fmt.Errorf("retry: jitter %v outside [0, 1]", p.Jitter)
	}
	if p.Initial < 0 || p.Max < 0 || p.Budget < 0 {
		return fmt.Errorf("retry: negative duration in policy %+v", p)
	}
	return nil
}

// transientError marks an error as retryable.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Transient wraps an error to mark it retryable: a condition expected to
// clear on its own (a busy shaper, a flaky host agent RPC). Everything not
// marked transient is fatal and returned to the caller after the first
// attempt — retrying a fatal error (an illegal machine state transition, a
// validation failure) only hides bugs.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether any error in err's chain was marked with
// Transient.
func IsTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t)
}

// Result describes one Do call.
type Result struct {
	// Attempts is how many times the operation ran (≥ 1 unless
	// MaxAttempts was 0 after normalization, which cannot happen).
	Attempts int
	// Backoff is the total virtual backoff charged between attempts.
	Backoff time.Duration
	// GaveUp is set when a transient error survived every permitted
	// attempt (exhausted attempts or budget); Err then wraps the last
	// error. Fatal errors return with GaveUp false and Attempts as run.
	GaveUp bool
	// Err is nil on success, the fatal error, or the wrapped last
	// transient error on give-up.
	Err error
}

// Do runs op under the policy: transient errors (see Transient) are retried
// with jittered exponential backoff until an attempt succeeds, a fatal
// error occurs, attempts run out, or the backoff budget is exhausted. rnd
// supplies uniform draws in [0, 1) for the jitter; nil disables jitter.
// Emulated operations are instantaneous, so Do never sleeps — backoff is
// accounted virtually (see the package comment).
func Do(p Policy, rnd func() float64, op func() error) Result {
	p = p.normalized()
	res := Result{}
	step := p.Initial
	for {
		res.Attempts++
		err := op()
		if err == nil {
			res.Err = nil
			return res
		}
		res.Err = err
		if !IsTransient(err) {
			return res
		}
		if res.Attempts >= p.MaxAttempts {
			res.GaveUp = true
			res.Err = fmt.Errorf("retry: gave up after %d attempts: %w", res.Attempts, err)
			return res
		}
		b := step
		if p.Jitter > 0 && rnd != nil {
			// Uniform over [1-Jitter, 1+Jitter) of the nominal step.
			b = time.Duration(float64(b) * (1 + p.Jitter*(2*rnd()-1)))
		}
		if p.Budget > 0 && res.Backoff+b > p.Budget {
			res.GaveUp = true
			res.Err = fmt.Errorf("retry: backoff budget %v exhausted after %d attempts: %w", p.Budget, res.Attempts, err)
			return res
		}
		res.Backoff += b
		step = time.Duration(float64(step) * p.Multiplier)
		if step > p.Max {
			step = p.Max
		}
	}
}

// Stats accumulates Do results across many operations, e.g. every machine
// lifecycle op a host performed during a run. The counters feed the run
// report's robustness section, which encodes them as they are declared
// here (see MarshalJSON).
type Stats struct {
	// Ops counts Do calls; Attempts the total operation executions.
	Ops      int64 `json:"ops"`
	Attempts int64 `json:"attempts"`
	// Retried counts ops that needed more than one attempt; Recovered
	// those that then succeeded; GaveUp those that exhausted attempts or
	// budget; Fatal those that stopped on a non-transient error.
	Retried   int64 `json:"retried"`
	Recovered int64 `json:"recovered"`
	GaveUp    int64 `json:"gave_up"`
	Fatal     int64 `json:"fatal"`
	// Backoff is the total virtual backoff charged, encoded in
	// milliseconds as backoff_ms.
	Backoff time.Duration `json:"-"`
}

// counters is Stats without its methods, so the JSON methods can encode
// the tagged fields without recursing.
type counters Stats

// MarshalJSON encodes the counters followed by backoff_ms, the backoff in
// (fractional) milliseconds.
func (s Stats) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		counters
		BackoffMs float64 `json:"backoff_ms"`
	}{counters(s), float64(s.Backoff) / float64(time.Millisecond)})
}

// UnmarshalJSON decodes what MarshalJSON encodes. The backoff rounds to the
// nearest nanosecond, which restores every backoff below 2^51 ns (26 days)
// exactly, so a decoded report re-encodes to the same bytes.
func (s *Stats) UnmarshalJSON(b []byte) error {
	var v struct {
		counters
		BackoffMs float64 `json:"backoff_ms"`
	}
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*s = Stats(v.counters)
	s.Backoff = time.Duration(math.Round(v.BackoffMs * float64(time.Millisecond)))
	return nil
}

// Record folds one result into the stats.
func (s *Stats) Record(r Result) {
	s.Ops++
	s.Attempts += int64(r.Attempts)
	s.Backoff += r.Backoff
	if r.Attempts > 1 {
		s.Retried++
		if r.Err == nil {
			s.Recovered++
		}
	}
	switch {
	case r.GaveUp:
		s.GaveUp++
	case r.Err != nil:
		s.Fatal++
	}
}

// Add merges other into s (per-host stats into a run total).
func (s *Stats) Add(other Stats) {
	s.Ops += other.Ops
	s.Attempts += other.Attempts
	s.Retried += other.Retried
	s.Recovered += other.Recovered
	s.GaveUp += other.GaveUp
	s.Fatal += other.Fatal
	s.Backoff += other.Backoff
}

// Guard is the middleware around one class of operation — a host's machine
// lifecycle transitions, the network's shaper programming: it runs each
// operation under a policy with seeded jitter, optionally injects seeded
// transient faults ahead of it, and accumulates the outcomes. Each attempt
// costs one fault draw only while injection is on, and each backoff one
// jitter draw only while the policy's Jitter is positive, so a run's draws
// are a function of its seeds and settings alone. Do and the setters belong
// to the goroutine that applies operations; Stats may be read from any.
type Guard struct {
	policy Policy
	jitter *rng.Stream
	rate   float64
	faults *rng.Stream
	fault  error

	mu    sync.Mutex
	stats Stats
}

// NewGuard returns a guard with the zero policy (Default, so no jitter) and
// no fault injection; fault is the text of the transient error it injects.
func NewGuard(fault string) *Guard {
	return &Guard{fault: Transient(errors.New(fault)), jitter: rng.New(0)}
}

// SetPolicy sets the retry policy (the zero policy adopts Default) and
// seeds the jitter stream.
func (g *Guard) SetPolicy(p Policy, seed int64) {
	g.policy = p
	g.jitter = rng.New(seed)
}

// SetFaults makes each attempt fail independently with probability rate
// before reaching the operation, drawn from a stream seeded with seed. The
// injected error is Transient, so the policy recovers from it; rate 0
// disables injection. Scenarios use this to exercise the retry path
// deterministically.
func (g *Guard) SetFaults(rate float64, seed int64) {
	g.rate = rate
	g.faults = rng.New(seed)
}

// Do runs op through the middleware and returns its final error.
func (g *Guard) Do(op func() error) error {
	attempt := op
	if g.rate > 0 {
		attempt = func() error {
			if g.faults.Float64() < g.rate {
				return g.fault
			}
			return op()
		}
	}
	res := Do(g.policy, g.jitter.Float64, attempt)
	g.mu.Lock()
	g.stats.Record(res)
	g.mu.Unlock()
	return res.Err
}

// Stats returns the accumulated outcomes.
func (g *Guard) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats
}
