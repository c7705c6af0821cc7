package readpath

import (
	"context"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"celestial/internal/httpapi"
)

// fanoutSubscriber is one benchmark subscriber's ResponseWriter on a
// replica's binary /diff stream: it never blocks (so no eviction fires),
// counts bytes, and timestamps each received diff frame against the
// generation's publish time.
type fanoutSubscriber struct {
	h         http.Header
	publish   []atomic.Int64 // unix-nano publish time per generation
	finalGen  uint64
	connected *atomic.Int64
	gotFinal  *atomic.Int64
	sawFinal  bool
	bytes     int64
	lags      []time.Duration
}

func (w *fanoutSubscriber) Header() http.Header { return w.h }
func (w *fanoutSubscriber) WriteHeader(int)     { w.connected.Add(1) }
func (w *fanoutSubscriber) Write(p []byte) (int, error) {
	w.bytes += int64(len(p))
	// Each Write is one complete frame: u32 length, u8 type, payload; a
	// diff frame's payload leads with the u64 generation.
	if len(p) >= 13 && httpapi.StreamFrameType(p[4]) == httpapi.StreamFrameDiff {
		gen := binary.LittleEndian.Uint64(p[5:13])
		if int(gen) < len(w.publish) {
			if ts := w.publish[gen].Load(); ts != 0 {
				w.lags = append(w.lags, time.Duration(time.Now().UnixNano()-ts))
			}
		}
		if gen >= w.finalGen && !w.sawFinal {
			w.sawFinal = true
			w.gotFinal.Add(1)
		}
	}
	return len(p), nil
}

// nopWriter discards mixed GET responses.
type nopWriter struct{ h http.Header }

func (w *nopWriter) Header() http.Header         { return w.h }
func (w *nopWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nopWriter) WriteHeader(int)             {}

// spinUntil polls cond (with a small sleep) until it holds or the
// deadline passes.
func spinUntil(b *testing.B, what string, timeout time.Duration, cond func() bool) {
	b.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			b.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkReadFanout is the read path at scale: 100k concurrent binary
// /diff subscribers spread over four read replicas of one coordinator,
// plus mixed GET traffic, while the coordinator ticks. It reports the
// fan-out lag percentiles (coordinator publish to subscriber receipt),
// the replicas' GET throughput under that load, and the stream bytes per
// subscriber per update — the shared-frame economy. The timed loop
// afterwards measures a single cached replica read; all fleet results
// travel as metrics, so one iteration (-benchtime 1x) reports them.
func BenchmarkReadFanout(b *testing.B) {
	const (
		numReplicas = 4
		numSubs     = 100_000
		ticks       = 5
		getWorkers  = 8
	)
	c := testCoordinator(b, time.Second)
	api := httpapi.New(c)
	up := httptest.NewServer(api)
	// Cleanup, not defer: replica follow streams must be canceled first
	// or Close blocks on the outstanding requests.
	b.Cleanup(up.Close)

	replicas := make([]*Replica, numReplicas)
	for i := range replicas {
		replicas[i] = startReplica(b, up.URL, Options{})
		// Long keepalive: 100k per-subscriber tickers at the default
		// cadence would measure timer churn, not fan-out.
		replicas[i].srv.SetStreamTiming(time.Minute, 0)
	}
	startGen := c.Generation()
	for _, r := range replicas {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := r.WaitSynced(ctx, startGen); err != nil {
			b.Fatalf("replica never synced: %v", err)
		}
		cancel()
	}

	finalGen := startGen + ticks
	publish := make([]atomic.Int64, finalGen+1)
	var connected, gotFinal atomic.Int64
	subCtx, cancelSubs := context.WithCancel(context.Background())
	defer cancelSubs()
	var wg sync.WaitGroup
	subs := make([]*fanoutSubscriber, numSubs)
	sinceStart := itoa(startGen)
	for i := range subs {
		w := &fanoutSubscriber{
			h: make(http.Header), publish: publish, finalGen: finalGen,
			connected: &connected, gotFinal: &gotFinal,
			lags: make([]time.Duration, 0, ticks),
		}
		subs[i] = w
		r := replicas[i%numReplicas]
		req := httptest.NewRequest(http.MethodGet, "/v1/diff?since="+sinceStart, nil).WithContext(subCtx)
		req.Header.Set("Accept", httpapi.DiffContentType)
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.ServeHTTP(w, req)
		}()
	}
	spinUntil(b, "subscribers to connect", 2*time.Minute, func() bool {
		return connected.Load() == numSubs
	})

	// The measured fan-out phase: tick the coordinator while GET workers
	// hammer the replicas, then drain until every subscriber holds the
	// final generation.
	getEndpoints := []string{"/v1/info", "/v1/gst/accra", "/v1/shell/0"}
	var getCount atomic.Int64
	getStop := make(chan struct{})
	var getWG sync.WaitGroup
	start := time.Now()
	for g := 0; g < getWorkers; g++ {
		getWG.Add(1)
		go func(g int) {
			defer getWG.Done()
			w := &nopWriter{h: make(http.Header)}
			for i := 0; ; i++ {
				select {
				case <-getStop:
					return
				default:
				}
				r := replicas[(g+i)%numReplicas]
				r.ServeHTTP(w, httptest.NewRequest(http.MethodGet, getEndpoints[i%len(getEndpoints)], nil))
				getCount.Add(1)
			}
		}(g)
	}
	for i := 0; i < ticks; i++ {
		if err := c.Run(time.Second); err != nil {
			b.Fatal(err)
		}
		publish[c.Generation()].Store(time.Now().UnixNano())
	}
	if c.Generation() != finalGen {
		b.Fatalf("coordinator at generation %d after %d ticks, want %d", c.Generation(), ticks, finalGen)
	}
	spinUntil(b, "fan-out to drain", 2*time.Minute, func() bool {
		return gotFinal.Load() == numSubs
	})
	elapsed := time.Since(start)
	close(getStop)
	getWG.Wait()
	cancelSubs()
	wg.Wait()

	var lags []time.Duration
	var totalBytes int64
	for _, w := range subs {
		lags = append(lags, w.lags...)
		totalBytes += w.bytes
	}
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	pct := func(p float64) float64 {
		if len(lags) == 0 {
			return 0
		}
		i := int(p * float64(len(lags)-1))
		return float64(lags[i]) / float64(time.Millisecond)
	}
	// The timed loop: a cached replica read under no fan-out pressure.
	// (Metrics are reported after it: ResetTimer deletes user metrics.)
	w := &nopWriter{h: make(http.Header)}
	req := httptest.NewRequest(http.MethodGet, "/v1/info", nil)
	replicas[0].ServeHTTP(w, req) // prime the cache fill outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replicas[i%numReplicas].ServeHTTP(w, req)
	}
	b.StopTimer()
	b.ReportMetric(numSubs, "subscribers")
	b.ReportMetric(float64(getCount.Load())/elapsed.Seconds(), "get-req/s")
	b.ReportMetric(pct(0.50), "lag-p50-ms")
	b.ReportMetric(pct(0.99), "lag-p99-ms")
	b.ReportMetric(float64(totalBytes)/numSubs/ticks, "B/sub/update")
}
