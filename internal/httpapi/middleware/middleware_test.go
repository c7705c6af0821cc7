package middleware

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
}

func do(h http.Handler, remote string, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, "/v1/info", nil)
	if remote != "" {
		req.RemoteAddr = remote
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestChainOrder(t *testing.T) {
	var order []string
	tag := func(name string) Middleware {
		return func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				order = append(order, name)
				next.ServeHTTP(w, r)
			})
		}
	}
	h := Chain(okHandler(), tag("outer"), tag("inner"))
	if rec := do(h, "", nil); rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if len(order) != 2 || order[0] != "outer" || order[1] != "inner" {
		t.Errorf("chain order = %v, want [outer inner]", order)
	}
}

// TestDeploy: the deployment chain authenticates, rate-limits, logs and
// recovers, and refuses a malformed rate instead of serving unlimited.
func TestDeploy(t *testing.T) {
	if _, err := Deploy(okHandler(), "", "fast", false, t.Logf); err == nil {
		t.Error("malformed rate accepted")
	}
	var lines []string
	logf := func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	h, err := Deploy(okHandler(), "sesame", "1:1", true, logf)
	if err != nil {
		t.Fatal(err)
	}
	auth := map[string]string{"Authorization": "Bearer sesame"}
	if rec := do(h, "10.0.0.1:1", nil); rec.Code != http.StatusUnauthorized {
		t.Errorf("missing token = %d, want 401", rec.Code)
	}
	if rec := do(h, "10.0.0.1:1", auth); rec.Code != http.StatusOK {
		t.Errorf("first request = %d, want 200", rec.Code)
	}
	if rec := do(h, "10.0.0.1:1", auth); rec.Code != http.StatusTooManyRequests {
		t.Errorf("second request within the burst window = %d, want 429", rec.Code)
	}
	if len(lines) != 3 {
		t.Errorf("access log has %d lines, want 3: %q", len(lines), lines)
	}
	panicky := http.HandlerFunc(func(http.ResponseWriter, *http.Request) { panic("boom") })
	h, err = Deploy(panicky, "", "", false, logf)
	if err != nil {
		t.Fatal(err)
	}
	if rec := do(h, "", nil); rec.Code != http.StatusInternalServerError {
		t.Errorf("panicking handler = %d, want 500", rec.Code)
	}
}

func TestTokenAuth(t *testing.T) {
	h := Chain(okHandler(), TokenAuth("sesame"))
	if rec := do(h, "", nil); rec.Code != http.StatusUnauthorized {
		t.Errorf("missing token = %d, want 401", rec.Code)
	}
	rec := do(h, "", map[string]string{"Authorization": "Bearer wrong"})
	if rec.Code != http.StatusUnauthorized {
		t.Errorf("wrong token = %d, want 401", rec.Code)
	}
	if rec.Header().Get("WWW-Authenticate") == "" {
		t.Error("401 carries no WWW-Authenticate challenge")
	}
	rec = do(h, "", map[string]string{"Authorization": "Bearer sesame"})
	if rec.Code != http.StatusOK {
		t.Errorf("valid token = %d, want 200", rec.Code)
	}
}

func TestTokenAuthEmptyDisables(t *testing.T) {
	h := Chain(okHandler(), TokenAuth(""))
	if rec := do(h, "", nil); rec.Code != http.StatusOK {
		t.Errorf("empty-token auth rejected a request: %d", rec.Code)
	}
}

func TestRateLimit(t *testing.T) {
	clock := time.Unix(1000, 0)
	now := func() time.Time { return clock }
	h := Chain(okHandler(), rateLimitAt(1, 2, now))

	// The burst admits two immediate requests; the third is limited.
	for i := 0; i < 2; i++ {
		if rec := do(h, "10.0.0.1:1234", nil); rec.Code != http.StatusOK {
			t.Fatalf("burst request %d = %d", i, rec.Code)
		}
	}
	rec := do(h, "10.0.0.1:9999", nil) // same IP, different port: same bucket
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-burst request = %d, want 429", rec.Code)
	}
	retry, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil || retry < 1 {
		t.Errorf("Retry-After = %q, want a positive integer", rec.Header().Get("Retry-After"))
	}

	// A different client has its own bucket.
	if rec := do(h, "10.0.0.2:1234", nil); rec.Code != http.StatusOK {
		t.Errorf("second client limited by first client's bucket: %d", rec.Code)
	}

	// After the advertised wait, the original client is admitted again.
	clock = clock.Add(time.Duration(retry) * time.Second)
	if rec := do(h, "10.0.0.1:1234", nil); rec.Code != http.StatusOK {
		t.Errorf("request after Retry-After = %d, want 200", rec.Code)
	}
}

func TestRateLimitZeroDisables(t *testing.T) {
	h := Chain(okHandler(), RateLimit(0, 0))
	for i := 0; i < 10; i++ {
		if rec := do(h, "10.0.0.1:1", nil); rec.Code != http.StatusOK {
			t.Fatalf("disabled limiter rejected request %d: %d", i, rec.Code)
		}
	}
}

func TestRateLimitHarvestsIdleBuckets(t *testing.T) {
	clock := time.Unix(1000, 0)
	l := &rateLimiter{rate: 100, burst: 1, now: func() time.Time { return clock },
		buckets: make(map[string]*tokenBucket)}
	for i := 0; i < 100; i++ {
		l.take(fmt.Sprintf("10.0.%d.%d", i/256, i%256))
	}
	clock = clock.Add(time.Minute) // every bucket refills
	l.mu.Lock()
	l.harvest(clock)
	n := len(l.buckets)
	l.mu.Unlock()
	if n != 0 {
		t.Errorf("%d buckets survived a full refill harvest", n)
	}
}

func TestRecover(t *testing.T) {
	var logged string
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	}), Recover(func(format string, args ...any) { logged = fmt.Sprintf(format, args...) }))
	rec := do(h, "", nil)
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("panicking handler = %d, want 500", rec.Code)
	}
	if !strings.Contains(logged, "boom") {
		t.Errorf("panic value not logged: %q", logged)
	}
}

func TestRecoverLeavesHealthyResponses(t *testing.T) {
	h := Chain(okHandler(), Recover(nil))
	rec := do(h, "", nil)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Errorf("healthy response altered: %d %q", rec.Code, rec.Body.String())
	}
}

func TestAccessLog(t *testing.T) {
	var lines []string
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, "missing")
	}), AccessLog(func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}))
	do(h, "192.0.2.7:5555", nil)
	if len(lines) != 1 {
		t.Fatalf("logged %d lines, want 1", len(lines))
	}
	for _, want := range []string{"GET", "/v1/info", "404", "7B", "192.0.2.7"} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("log line %q missing %q", lines[0], want)
		}
	}
}

// TestStatusWriterUnwrap pins the stream-safety contract: a chained
// writer must expose the underlying ResponseWriter to
// http.ResponseController, or SSE keepalives and slow-subscriber
// eviction silently stop working behind the middleware.
func TestStatusWriterUnwrap(t *testing.T) {
	rec := httptest.NewRecorder()
	sw := &statusWriter{ResponseWriter: rec}
	rc := http.NewResponseController(sw)
	// httptest's recorder supports Flush; the controller finds it only by
	// unwrapping.
	if err := rc.Flush(); err != nil {
		t.Errorf("Flush through the wrapper: %v", err)
	}
	if !rec.Flushed {
		t.Error("flush did not reach the underlying writer")
	}
}
