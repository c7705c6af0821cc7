package readpath

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"celestial/internal/config"
	"celestial/internal/constellation"
	"celestial/internal/coordinator"
	"celestial/internal/geom"
	"celestial/internal/httpapi"
	"celestial/internal/httpapi/middleware"
	"celestial/internal/leaktest"
	"celestial/internal/orbit"
)

// testCoordinator builds and starts a small started constellation at the
// given update resolution (the httpapi test fixture).
func testCoordinator(t testing.TB, resolution time.Duration) *coordinator.Coordinator {
	t.Helper()
	cfg := &config.Config{
		Duration:   10 * time.Minute,
		Resolution: resolution,
		Shells: []config.Shell{{
			ShellConfig: orbit.ShellConfig{
				Name: "starlink-1", Planes: 24, SatsPerPlane: 22, AltitudeKm: 550,
				InclinationDeg: 53, ArcDeg: 360, PhasingFactor: 13, Model: orbit.ModelKepler,
			},
		}},
		GroundStations: []config.GroundStation{
			{Name: "accra", Location: geom.LatLon{LatDeg: 5.6037, LonDeg: -0.1870}},
			{Name: "johannesburg", Location: geom.LatLon{LatDeg: -26.2041, LonDeg: 28.0473}},
		},
	}
	cfg.Network.MinElevationDeg = 25
	if err := config.Finalize(cfg); err != nil {
		t.Fatal(err)
	}
	c, err := coordinator.New(cfg, coordinator.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	return c
}

// startReplica creates a replica following upstreamURL and runs its follow
// loop until the test ends.
func startReplica(t testing.TB, upstreamURL string, opts Options) *Replica {
	t.Helper()
	opts.Upstream = upstreamURL
	if opts.ReconnectWait == 0 {
		opts.ReconnectWait = 10 * time.Millisecond
	}
	r, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = r.Run(ctx)
	}()
	t.Cleanup(func() { cancel(); <-done })
	return r
}

// body performs a GET against any handler and returns status and bytes.
func body(t *testing.T, h http.Handler, path string) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// waitSynced waits (bounded) for the replica to reach the coordinator's
// generation.
func waitSynced(t *testing.T, r *Replica, gen uint64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.WaitSynced(ctx, gen); err != nil {
		t.Fatalf("replica never reached generation %d (at %d): %v", gen, r.Generation(), err)
	}
}

// differentialEndpoints are the routes the replica/coordinator
// byte-equality differential runs over — the same set the httpapi cache
// differential uses, plus an error route (proxied verbatim) and the
// versioned aliases.
var differentialEndpoints = []string{
	"/info",
	"/v1/info",
	"/shell/0",
	"/shell/0/100",
	"/gst/accra",
	"/v1/gst/johannesburg",
	"/path/accra/johannesburg",
	"/v1/path/0.0/5.0",
	"/diff?since=0",
	"/v1/diff?since=0",
	"/gst/atlantis", // 404: upstream error documents proxy byte-identically
}

// TestReplicaByteIdenticalDifferential is the tentpole differential: at
// every checked generation, the replica's response on every endpoint must
// be byte-for-byte identical to the coordinator server's — including
// after update ticks have invalidated the replica's document caches.
func TestReplicaByteIdenticalDifferential(t *testing.T) {
	leaktest.Check(t)
	c := testCoordinator(t, 2*time.Second)
	api := httpapi.New(c)
	up := httptest.NewServer(api)
	// Cleanup (not defer): the replica's follow stream must be canceled
	// before up.Close, which waits for outstanding requests.
	t.Cleanup(up.Close)
	r := startReplica(t, up.URL, Options{})

	check := func(tag string) {
		t.Helper()
		waitSynced(t, r, c.Generation())
		for _, ep := range differentialEndpoints {
			wantCode, want := body(t, api, ep)
			gotCode, got := body(t, r, ep)
			if gotCode != wantCode {
				t.Errorf("%s: GET %s: replica status %d, coordinator %d", tag, ep, gotCode, wantCode)
				continue
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: GET %s: replica bytes differ:\n  coordinator: %s\n  replica:     %s",
					tag, ep, want, got)
			}
		}
	}

	check("t=0")
	if err := c.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	check("t=30")
	if err := c.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	check("t=32")
	if got := r.Stats(); got.FramesApplied == 0 || got.Reconnects != 0 {
		t.Errorf("stats = %+v, want applied frames and no reconnects", got)
	}
}

// TestReplicaResyncPastUpstreamRing connects a replica whose zero cursor
// already fell off the upstream's retention ring: first contact must
// resync to the upstream head (not replay a hole), and following must
// continue normally — with the differential still holding — afterwards.
func TestReplicaResyncPastUpstreamRing(t *testing.T) {
	leaktest.Check(t)
	c := testCoordinator(t, 500*time.Millisecond)
	if err := c.Run(40 * time.Second); err != nil { // 80 updates > 64 retained
		t.Fatal(err)
	}
	api := httpapi.New(c)
	up := httptest.NewServer(api)
	t.Cleanup(up.Close)

	r := startReplica(t, up.URL, Options{})
	waitSynced(t, r, c.Generation())
	if got := r.Stats(); got.Resyncs == 0 {
		t.Fatalf("stats = %+v, want a resync (cursor 0 predates the ring)", got)
	}
	if r.Generation() != c.Generation() || r.TopologyVersion() != c.TopologyVersion() {
		t.Fatalf("replica at %d/%d, coordinator at %d/%d",
			r.Generation(), r.TopologyVersion(), c.Generation(), c.TopologyVersion())
	}

	// Following resumes from the resynced cursor; the differential holds
	// across the forced resync.
	if err := c.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitSynced(t, r, c.Generation())
	for _, ep := range differentialEndpoints {
		wantCode, want := body(t, api, ep)
		gotCode, got := body(t, r, ep)
		if gotCode != wantCode || !bytes.Equal(got, want) {
			t.Errorf("after resync: GET %s: replica (%d) %s\n  coordinator (%d) %s",
				ep, gotCode, got, wantCode, want)
		}
	}
}

// TestReplicaUpstreamRestartMidStream kills the upstream server mid-stream
// and restarts it on the same address with a fresh coordinator whose
// generation counter regressed. The replica must reconnect, accept the
// resync, flush its document caches (monotonic cache versions would pin
// pre-restart documents otherwise) and serve the new upstream's bytes.
func TestReplicaUpstreamRestartMidStream(t *testing.T) {
	leaktest.Check(t)
	cA := testCoordinator(t, 2*time.Second)
	if err := cA.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srvA := &http.Server{Handler: httpapi.New(cA)}
	go srvA.Serve(ln)

	r := startReplica(t, "http://"+addr, Options{})
	waitSynced(t, r, cA.Generation())
	oldGen := r.Generation()
	// Warm the replica's document cache so the restart has something
	// stale to flush.
	if code, _ := body(t, r, "/info"); code != http.StatusOK {
		t.Fatalf("pre-restart /info = %d", code)
	}

	// Hard restart: close the server (dropping the replica's stream) and
	// rebind the same address with a fresh coordinator at generation ~1.
	srvA.Close()
	cB := testCoordinator(t, 2*time.Second)
	api := httpapi.New(cB)
	var ln2 net.Listener
	for deadline := time.Now().Add(5 * time.Second); ; {
		ln2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	srvB := &http.Server{Handler: api}
	go srvB.Serve(ln2)
	defer srvB.Close()
	if cB.Generation() >= oldGen {
		t.Fatalf("fresh coordinator at generation %d, want a regression below %d", cB.Generation(), oldGen)
	}

	// The replica's resumed cursor is in the new upstream's future, so the
	// stream answers resync and the replica re-anchors at the regressed
	// generation.
	deadline := time.Now().Add(30 * time.Second)
	for r.Generation() >= oldGen || !func() bool { return r.Stats().Resyncs > 0 }() {
		if time.Now().After(deadline) {
			t.Fatalf("replica never re-anchored: at %d, stats %+v", r.Generation(), r.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := r.Stats(); got.Reconnects == 0 {
		t.Errorf("stats = %+v, want a reconnect", got)
	}
	if r.Generation() != cB.Generation() {
		t.Fatalf("replica at %d, new upstream at %d", r.Generation(), cB.Generation())
	}
	// The flushed cache must serve the new upstream's document, not the
	// pre-restart one pinned under a higher version.
	wantCode, want := body(t, api, "/info")
	gotCode, got := body(t, r, "/info")
	if gotCode != wantCode || !bytes.Equal(got, want) {
		t.Fatalf("post-restart /info: replica (%d) %s, upstream (%d) %s", gotCode, got, wantCode, want)
	}
	// And following continues on the new upstream.
	if err := cB.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitSynced(t, r, cB.Generation())
}

// TestReplicaGuardedUpstream follows an upstream behind the token-auth
// middleware: the replica must present its bearer token on both the diff
// stream and document fetches.
func TestReplicaGuardedUpstream(t *testing.T) {
	leaktest.Check(t)
	c := testCoordinator(t, 2*time.Second)
	api := httpapi.New(c)
	up := httptest.NewServer(middleware.Chain(api, middleware.TokenAuth("sesame")))
	t.Cleanup(up.Close)

	r := startReplica(t, up.URL, Options{UpstreamAuth: "sesame"})
	waitSynced(t, r, c.Generation())
	wantCode, want := body(t, api, "/info")
	gotCode, got := body(t, r, "/info")
	if gotCode != wantCode || !bytes.Equal(got, want) {
		t.Fatalf("guarded upstream: replica /info (%d) %s, want (%d) %s", gotCode, got, wantCode, want)
	}

	// A replica without the token cannot anchor, and proxies the
	// upstream's 401 rejection verbatim on document reads.
	bad := startReplica(t, up.URL, Options{})
	time.Sleep(100 * time.Millisecond)
	if bad.Generation() != 0 {
		t.Error("unauthenticated replica anchored against a guarded upstream")
	}
	if code, _ := body(t, bad, "/info"); code != http.StatusUnauthorized {
		t.Errorf("unauthenticated replica /info = %d, want the proxied 401", code)
	}
}

// syntheticRecord builds a non-empty diff record distinguishable by
// generation.
func syntheticRecord(gen uint64) constellation.DiffRecord {
	return constellation.DiffRecord{
		T:     float64(gen),
		BaseT: float64(gen) - 1,
		DelayChanged: []constellation.LinkDelta{
			{A: 1, B: 2, OldQ: int32(gen), NewQ: int32(gen) + 1},
		},
	}
}

// offlineReplica builds a replica that never follows anything; tests feed
// it frames directly to probe the ring semantics.
func offlineReplica(t *testing.T, retention int) *Replica {
	t.Helper()
	r, err := New(Options{Upstream: "http://127.0.0.1:1", Retention: retention})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestReplicaFrameRingSemantics drives the replica's own retention ring
// directly and checks it mirrors the coordinator's /diff contract: empty
// success at the head, resync for future cursors and cursors off the
// window, eviction past the retention cap, reconnect-overlap dedup.
func TestReplicaFrameRingSemantics(t *testing.T) {
	r := offlineReplica(t, 4)
	// Pre-anchor: a zero cursor is an empty success (nothing yet), like a
	// coordinator before its first update.
	if frames, ok := r.Frames(0); !ok || len(frames) != 0 {
		t.Fatalf("pre-anchor Frames(0) = %d frames, ok=%v", len(frames), ok)
	}
	for gen := uint64(1); gen <= 10; gen++ {
		rec := syntheticRecord(gen)
		r.applyFrame(gen, &rec)
	}
	if r.Generation() != 10 || r.TopologyVersion() != 10 {
		t.Fatalf("cursor = %d/%d, want 10/10", r.Generation(), r.TopologyVersion())
	}
	// Retention 4 keeps generations 7..10.
	if frames, ok := r.Frames(6); !ok || len(frames) != 4 || frames[0].Generation != 7 {
		t.Errorf("Frames(6) = %d frames ok=%v", len(frames), ok)
	}
	if _, ok := r.Frames(5); ok {
		t.Error("cursor past the retention window did not resync")
	}
	if _, ok := r.Frames(11); ok {
		t.Error("future cursor did not resync")
	}
	if frames, ok := r.Frames(10); !ok || len(frames) != 0 {
		t.Errorf("head cursor = %d frames ok=%v, want empty success", len(frames), ok)
	}
	// Reconnect overlap: replaying an already-applied generation is a
	// no-op, not a ring reset.
	dup := syntheticRecord(9)
	r.applyFrame(9, &dup)
	if frames, ok := r.Frames(6); !ok || len(frames) != 4 {
		t.Errorf("after dup replay: Frames(6) = %d frames ok=%v", len(frames), ok)
	}
	// An empty record advances the generation but not the topology
	// version, like the coordinator.
	empty := constellation.DiffRecord{T: 11, BaseT: 10}
	r.applyFrame(11, &empty)
	if r.Generation() != 11 || r.TopologyVersion() != 10 {
		t.Errorf("after empty frame: %d/%d, want 11/10", r.Generation(), r.TopologyVersion())
	}
	// A resync drops the ring and re-anchors.
	r.resync(100, 90)
	if r.Generation() != 100 || r.TopologyVersion() != 90 {
		t.Errorf("after resync: %d/%d, want 100/90", r.Generation(), r.TopologyVersion())
	}
	if _, ok := r.Frames(99); ok {
		t.Error("pre-resync cursor served from a dropped ring")
	}
	if frames, ok := r.Frames(100); !ok || len(frames) != 0 {
		t.Errorf("head after resync = %d frames ok=%v", len(frames), ok)
	}
	next := syntheticRecord(101)
	r.applyFrame(101, &next)
	if frames, ok := r.Frames(100); !ok || len(frames) != 1 {
		t.Errorf("first frame after resync = %d frames ok=%v", len(frames), ok)
	}
}

// TestReplicaDiffResyncPastOwnRetention subscribes to a replica's own
// /diff SSE re-fan-out with a cursor that fell off the replica's ring:
// the subscriber must get a resync event and then resume on live frames —
// the same contract the coordinator's stream gives the replica itself.
func TestReplicaDiffResyncPastOwnRetention(t *testing.T) {
	leaktest.Check(t)
	r := offlineReplica(t, 4)
	var gen uint64
	for gen = 1; gen <= 10; gen++ {
		rec := syntheticRecord(gen)
		r.applyFrame(gen, &rec)
	}
	srv := httptest.NewServer(r)
	defer srv.Close()

	stop := make(chan struct{})
	feeding := make(chan struct{})
	go func() {
		defer close(feeding)
		for g := gen; ; g++ {
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
			}
			rec := syntheticRecord(g)
			r.applyFrame(g, &rec)
		}
	}()
	defer func() { close(stop); <-feeding }()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/diff?since=0", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	req.Header.Set("Last-Event-ID", "1") // generations 1..6 are evicted
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	var events []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() && len(events) < 2 {
		if v, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			events = append(events, v)
		}
	}
	cancel()
	if len(events) < 2 {
		t.Fatalf("read %d events (%v), scan err %v", len(events), events, sc.Err())
	}
	if events[0] != "resync" {
		t.Errorf("first event = %q, want resync", events[0])
	}
	if events[1] != "diff" {
		t.Errorf("second event = %q, want diff (stream must resume after resync)", events[1])
	}
}

// stallingWriter fakes a subscriber whose connection stalls: writes
// succeed until failAfter is reached, then report a deadline error like a
// net.Conn whose write deadline expired.
type stallingWriter struct {
	h         http.Header
	writes    int
	failAfter int
	deadlines int
}

func (w *stallingWriter) Header() http.Header { return w.h }
func (w *stallingWriter) WriteHeader(int)     {}
func (w *stallingWriter) Flush()              {}
func (w *stallingWriter) SetWriteDeadline(time.Time) error {
	w.deadlines++
	return nil
}
func (w *stallingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > w.failAfter {
		return 0, os.ErrDeadlineExceeded
	}
	return len(p), nil
}

// TestReplicaEvictsStalledSubscriber checks the replica's own /diff
// stream evicts a subscriber that stops draining, exactly like the
// coordinator's.
func TestReplicaEvictsStalledSubscriber(t *testing.T) {
	leaktest.Check(t)
	r := offlineReplica(t, 64)
	for gen := uint64(1); gen <= 10; gen++ {
		rec := syntheticRecord(gen)
		r.applyFrame(gen, &rec)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/diff?since=0", nil)
	req.Header.Set("Accept", "text/event-stream")
	w := &stallingWriter{h: make(http.Header), failAfter: 2}
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.ServeHTTP(w, req)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("replica did not evict the stalled subscriber")
	}
	if w.deadlines == 0 {
		t.Error("no write deadline was set on the replica stream")
	}
}

// TestReplicaChainsOwnSubscribers checks fan-out composition: a
// second-tier replica following a first-tier replica's /diff re-fan-out
// converges to the coordinator's cursor (replicas can follow replicas).
func TestReplicaChainsOwnSubscribers(t *testing.T) {
	leaktest.Check(t)
	c := testCoordinator(t, 2*time.Second)
	api := httpapi.New(c)
	up := httptest.NewServer(api)
	t.Cleanup(up.Close)
	tier1 := startReplica(t, up.URL, Options{})
	tier1srv := httptest.NewServer(tier1)
	// Registered before tier2's replica cleanup, so tier2's stream into
	// tier1srv is canceled before the server's blocking Close.
	t.Cleanup(tier1srv.Close)
	tier2 := startReplica(t, tier1srv.URL, Options{})

	if err := c.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitSynced(t, tier2, c.Generation())
	_, want := body(t, api, "/v1/info")
	_, got := body(t, tier2, "/v1/info")
	if !bytes.Equal(got, want) {
		t.Fatalf("second-tier replica /v1/info differs:\n  coordinator: %s\n  tier2:       %s", want, got)
	}
	if tier2.TopologyVersion() != c.TopologyVersion() {
		t.Errorf("tier2 topology version %d, coordinator %d", tier2.TopologyVersion(), c.TopologyVersion())
	}
}

// TestReplicaBadUpstream pins constructor validation and the unanchored
// error surface.
func TestReplicaBadUpstream(t *testing.T) {
	if _, err := New(Options{Upstream: "not a url"}); err == nil {
		t.Error("bad upstream URL accepted")
	}
	if _, err := New(Options{Upstream: ""}); err == nil {
		t.Error("empty upstream URL accepted")
	}
	r := offlineReplica(t, 0)
	code, b := body(t, r, "/info")
	if code != http.StatusBadGateway {
		t.Errorf("unreachable upstream /info = %d, want 502", code)
	}
	if !strings.Contains(string(b), "error") {
		t.Errorf("502 body is not an error document: %s", b)
	}
	// The long-poll /diff path works unanchored (empty success at head 0).
	code, b = body(t, r, "/v1/diff?since=0")
	if code != http.StatusOK || !strings.Contains(string(b), "\"generation\":0") {
		t.Errorf("unanchored /diff = %d %s", code, b)
	}
}

func itoa(v uint64) string { return strconv.FormatUint(v, 10) }
