// Package middleware provides the composable HTTP policy chain for the
// information service: token auth, per-client rate limiting, access
// logging and panic recovery as plain func(http.Handler) http.Handler
// components. Cross-cutting policy lives here — outside the route table
// and outside the handlers — so the same chain wraps the coordinator's
// server and every read replica, and a deployment picks its policies by
// composing, not by patching handlers (the policy-free-middleware stance:
// the route table stays mechanism, the chain is policy).
//
// Components are written to be stream-safe: the response wrappers forward
// Flush and per-write deadlines through http.ResponseController's Unwrap
// protocol, so a chained /diff SSE or binary stream keeps its keepalives
// and slow-subscriber eviction.
package middleware

import (
	"crypto/subtle"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Middleware is one composable policy component.
type Middleware func(http.Handler) http.Handler

// Chain composes middleware around a handler, first element outermost:
// Chain(h, A, B) serves A(B(h)).
func Chain(h http.Handler, mw ...Middleware) http.Handler {
	for i := len(mw) - 1; i >= 0; i-- {
		h = mw[i](h)
	}
	return h
}

// Deploy wraps h in the deployment policy both servers run — the
// coordinator's information API and every read replica: panic recovery
// always, then access logging when accessLog is set, bearer-token auth
// (an empty token disables it) and per-client rate limiting (rateSpec in
// ParseRate's syntax, empty disables it), logging through logf. It fails
// only on a malformed rateSpec.
func Deploy(h http.Handler, token, rateSpec string, accessLog bool, logf func(format string, args ...any)) (http.Handler, error) {
	rate, burst, err := ParseRate(rateSpec)
	if err != nil {
		return nil, err
	}
	mw := []Middleware{Recover(logf)}
	if accessLog {
		mw = append(mw, AccessLog(logf))
	}
	mw = append(mw, TokenAuth(token), RateLimit(rate, burst))
	return Chain(h, mw...), nil
}

// statusWriter captures the status and byte count for access logging,
// passing everything else — including Flush and write deadlines, via
// Unwrap — through to the wrapped writer.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Unwrap exposes the underlying writer to http.ResponseController, so
// SetWriteDeadline and Flush reach the real connection through the chain.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// AccessLog logs one line per completed request — method, path, status,
// response bytes, duration and client — through logf. Streaming endpoints
// log on disconnect, with the full stream duration and byte count.
func AccessLog(logf func(format string, args ...any)) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw := &statusWriter{ResponseWriter: w}
			start := time.Now()
			next.ServeHTTP(sw, r)
			if sw.status == 0 {
				sw.status = http.StatusOK
			}
			logf("http: %s %s %d %dB %s %s",
				r.Method, r.URL.RequestURI(), sw.status, sw.bytes,
				time.Since(start).Round(time.Microsecond), clientKey(r))
		})
	}
}

// Recover turns a handler panic into a 500 instead of killing the
// connection's serve goroutine with a stack dump mid-deployment. If the
// handler already started writing (a streaming response), the response
// cannot be rescued; the panic is logged and the connection just ends.
func Recover(logf func(format string, args ...any)) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw := &statusWriter{ResponseWriter: w}
			defer func() {
				v := recover()
				if v == nil {
					return
				}
				if logf != nil {
					logf("http: panic serving %s %s: %v", r.Method, r.URL.Path, v)
				}
				if sw.status == 0 {
					http.Error(w, "internal server error", http.StatusInternalServerError)
				}
			}()
			next.ServeHTTP(sw, r)
		})
	}
}

// TokenAuth rejects requests that do not carry the configured bearer
// token ("Authorization: Bearer <token>") with a 401. An empty token
// disables the check (the middleware becomes a no-op), so deployments can
// wire the flag unconditionally.
func TokenAuth(token string) Middleware {
	want := []byte("Bearer " + token)
	return func(next http.Handler) http.Handler {
		if token == "" {
			return next
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			got := []byte(r.Header.Get("Authorization"))
			// Constant-time comparison; length equality first would leak
			// nothing useful here but ConstantTimeCompare requires it.
			if len(got) != len(want) || subtle.ConstantTimeCompare(got, want) != 1 {
				w.Header().Set("WWW-Authenticate", `Bearer realm="celestial"`)
				http.Error(w, "unauthorized", http.StatusUnauthorized)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}

// maxRateClients bounds the per-client bucket map; at the cap, buckets
// that have fully refilled are harvested, and if none can be freed the
// new client is (conservatively) rejected as over limit rather than
// allowed to grow the map without bound.
const maxRateClients = 65536

// tokenBucket is one client's refill state, guarded by rateLimiter.mu.
type tokenBucket struct {
	tokens float64
	last   time.Time
}

// rateLimiter is a per-client token bucket: rate tokens/second refill up
// to burst, one token per request. Clients are keyed by remote IP (the
// port changes per connection).
type rateLimiter struct {
	rate  float64
	burst float64
	now   func() time.Time

	mu      sync.Mutex
	buckets map[string]*tokenBucket
}

// take consumes one token for key, returning (allowed, retryAfter).
func (l *rateLimiter) take(key string) (bool, time.Duration) {
	now := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.buckets[key]
	if b == nil {
		if len(l.buckets) >= maxRateClients {
			l.harvest(now)
		}
		if len(l.buckets) >= maxRateClients {
			return false, time.Duration(float64(time.Second) / l.rate)
		}
		b = &tokenBucket{tokens: l.burst, last: now}
		l.buckets[key] = b
	}
	b.tokens = min(l.burst, b.tokens+now.Sub(b.last).Seconds()*l.rate)
	b.last = now
	if b.tokens < 1 {
		// Time until one full token refills.
		return false, time.Duration((1 - b.tokens) / l.rate * float64(time.Second))
	}
	b.tokens--
	return true, 0
}

// harvest drops buckets that would have refilled completely by now:
// absent clients whose state is indistinguishable from a fresh bucket.
// Called under mu. (Stored token counts are refilled lazily in take, so
// the refill is computed here rather than read.)
func (l *rateLimiter) harvest(now time.Time) {
	for k, b := range l.buckets {
		if b.tokens+now.Sub(b.last).Seconds()*l.rate >= l.burst {
			delete(l.buckets, k)
		}
	}
}

// clientKey is the rate-limit identity of a request: the remote IP
// without the per-connection port.
func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// RateLimit rejects clients that exceed rate requests/second (with bursts
// up to burst) with 429 and a Retry-After header, per client IP. A rate
// of 0 disables the limiter. burst below 1 is raised to 1 — a limiter
// that can never admit a request is a misconfiguration, not a policy.
func RateLimit(rate float64, burst int) Middleware {
	return rateLimitAt(rate, burst, time.Now)
}

// ParseRate parses the "-http-rate" flag syntax: "<rps>" or
// "<rps>:<burst>", e.g. "100" or "100:250". An omitted burst defaults to
// the ceiling of the rate (one second of traffic); an empty string means
// disabled (rate 0).
func ParseRate(s string) (rate float64, burst int, err error) {
	if s == "" {
		return 0, 0, nil
	}
	rateStr, burstStr, hasBurst := strings.Cut(s, ":")
	rate, err = strconv.ParseFloat(rateStr, 64)
	if err != nil || rate < 0 {
		return 0, 0, fmt.Errorf("bad rate %q (want \"<rps>\" or \"<rps>:<burst>\")", s)
	}
	if hasBurst {
		burst, err = strconv.Atoi(burstStr)
		if err != nil || burst < 1 {
			return 0, 0, fmt.Errorf("bad burst in %q (want a positive integer)", s)
		}
		return rate, burst, nil
	}
	return rate, int(math.Ceil(rate)), nil
}

// rateLimitAt is RateLimit with an injectable clock for tests.
func rateLimitAt(rate float64, burst int, now func() time.Time) Middleware {
	l := &rateLimiter{
		rate: rate, burst: float64(max(burst, 1)), now: now,
		buckets: make(map[string]*tokenBucket),
	}
	return func(next http.Handler) http.Handler {
		if rate <= 0 {
			return next
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ok, retry := l.take(clientKey(r))
			if !ok {
				// Retry-After is delta-seconds, rounded up so a client
				// honoring it exactly does not arrive a hair early.
				secs := int(retry/time.Second) + 1
				w.Header().Set("Retry-After", strconv.Itoa(secs))
				http.Error(w, fmt.Sprintf("rate limit exceeded, retry in %ds", secs),
					http.StatusTooManyRequests)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}
