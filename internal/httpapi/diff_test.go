package httpapi

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"celestial/internal/config"
	"celestial/internal/coordinator"
	"celestial/internal/geom"
	"celestial/internal/leaktest"
	"celestial/internal/orbit"
)

func TestDiffSinceReplay(t *testing.T) {
	s, c := testServer(t)
	if err := c.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	gen := c.Generation()

	var resp DiffResponse
	get(t, s, "/diff?since=0", http.StatusOK, &resp)
	if resp.Resync {
		t.Fatal("resync inside the retention window")
	}
	if resp.Generation != gen {
		t.Errorf("generation = %d, want %d", resp.Generation, gen)
	}
	if resp.TopologyVersion == 0 || resp.TopologyVersion > gen {
		t.Errorf("topology_version = %d", resp.TopologyVersion)
	}
	if len(resp.Diffs) != int(gen) {
		t.Fatalf("diffs = %d, want %d", len(resp.Diffs), gen)
	}
	if !resp.Diffs[0].Full {
		t.Error("first diff not marked full")
	}
	for i, d := range resp.Diffs {
		if d.Generation != uint64(i)+1 {
			t.Fatalf("diff %d has generation %d", i, d.Generation)
		}
	}
	// Satellites crossing delay quanta over 2 s ticks: later diffs carry
	// link deltas with quantized latencies.
	sawDelta := false
	for _, d := range resp.Diffs[1:] {
		for _, l := range d.DelayChanged {
			sawDelta = true
			if l.OldMs < 0 || l.NewMs < 0 || l.OldMs == l.NewMs {
				t.Errorf("bad delay change %+v", l)
			}
		}
	}
	if !sawDelta {
		t.Error("no delay deltas in 10 s of satellite movement")
	}

	// Cursor at head: nothing to replay.
	var head DiffResponse
	get(t, s, "/diff?since="+itoa(gen), http.StatusOK, &head)
	if head.Resync || len(head.Diffs) != 0 || head.Generation != gen {
		t.Errorf("head poll = %+v", head)
	}
	// Partial replay window.
	var tail DiffResponse
	get(t, s, "/diff?since="+itoa(gen-2), http.StatusOK, &tail)
	if len(tail.Diffs) != 2 || tail.Diffs[0].Generation != gen-1 {
		t.Errorf("tail poll = %+v", tail)
	}
}

func itoa(v uint64) string { return strconv.FormatUint(v, 10) }

// TestCoordinatorSourceSerializesOncePerGeneration pins the frame mirror's
// contract — each generation is serialized once and shared by every
// subscriber — against subscribers at different cursors: a fast one must
// not make a slow one rebuild its frames, and a repeated call gets the
// same frames again.
func TestCoordinatorSourceSerializesOncePerGeneration(t *testing.T) {
	c := newCoordinator(t, coordinator.Options{})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(38 * time.Second); err != nil {
		t.Fatal(err)
	}
	if gen := c.Generation(); gen != 20 {
		t.Fatalf("generation = %d, want 20", gen)
	}
	cs := NewCoordinatorSource(c)
	slow, ok := cs.Frames(5)
	if !ok || len(slow) != 15 {
		t.Fatalf("Frames(5) = %d frames, ok=%v; want 15", len(slow), ok)
	}
	fast, ok := cs.Frames(18)
	if !ok || len(fast) != 2 {
		t.Fatalf("Frames(18) = %d frames, ok=%v; want 2", len(fast), ok)
	}
	for i, f := range fast {
		if f != slow[13+i] {
			t.Errorf("generation %d: the fast subscriber got a frame of its own", f.Generation)
		}
	}
	again, _ := cs.Frames(5)
	for i, f := range again {
		if f != slow[i] {
			t.Fatalf("generation %d was serialized again after a subscriber at a newer cursor asked", f.Generation)
		}
	}
}

// TestDiffFutureCursorResyncs locks in the future-cursor handling: a
// since beyond the live generation (stale or corrupted client state) gets
// an immediate resync answer — not an empty success that would echo the
// bogus cursor back, and not a long-poll hold.
func TestDiffFutureCursorResyncs(t *testing.T) {
	s, c := testServer(t)
	gen := c.Generation()
	start := time.Now()
	var resp DiffResponse
	get(t, s, "/diff?since="+itoa(gen+1000)+"&wait=30s", http.StatusOK, &resp)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("future cursor held the long-poll for %v", elapsed)
	}
	if !resp.Resync || len(resp.Diffs) != 0 {
		t.Errorf("future cursor = %+v, want resync", resp)
	}
	if resp.Generation != gen {
		t.Errorf("resync generation = %d, want live %d", resp.Generation, gen)
	}
}

// TestDiffEmptyReplayKeepsCursor locks in the cursor race fix: a response
// that replays no diffs must echo the client's cursor unchanged, not a
// fresh Generation() read — an update completing between Frames and
// the response would otherwise be skipped without a resync signal.
func TestDiffEmptyReplayKeepsCursor(t *testing.T) {
	s, c := testServer(t)
	gen := c.Generation()
	var resp DiffResponse
	get(t, s, "/diff?since="+itoa(gen), http.StatusOK, &resp)
	if resp.Generation != gen || resp.Resync || len(resp.Diffs) != 0 {
		t.Errorf("empty replay = %+v, want cursor %d unchanged", resp, gen)
	}
}

func TestDiffBadParameters(t *testing.T) {
	s, _ := testServer(t)
	get(t, s, "/diff?since=abc", http.StatusBadRequest, nil)
	get(t, s, "/diff?since=-1", http.StatusBadRequest, nil)
	get(t, s, "/diff?since=0&wait=xyz", http.StatusBadRequest, nil)
	get(t, s, "/diff?since=0&wait=-5s", http.StatusBadRequest, nil)
}

func TestDiffLongPollWakesOnUpdate(t *testing.T) {
	leaktest.Check(t)
	s, c := testServer(t)
	gen := c.Generation()
	tick := make(chan struct{})
	go func() {
		defer close(tick)
		time.Sleep(50 * time.Millisecond)
		if err := c.Run(2 * time.Second); err != nil {
			t.Error(err)
		}
	}()
	start := time.Now()
	var resp DiffResponse
	get(t, s, "/diff?since="+itoa(gen)+"&wait=30s", http.StatusOK, &resp)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("long-poll did not wake on update (took %v)", elapsed)
	}
	if len(resp.Diffs) == 0 || resp.Generation <= gen {
		t.Errorf("woken poll = %+v", resp)
	}
	<-tick
}

func TestDiffLongPollTimesOut(t *testing.T) {
	s, c := testServer(t)
	gen := c.Generation()
	start := time.Now()
	var resp DiffResponse
	get(t, s, "/diff?since="+itoa(gen)+"&wait=50ms", http.StatusOK, &resp)
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Errorf("timed-out poll returned after only %v", elapsed)
	}
	if len(resp.Diffs) != 0 || resp.Generation != gen {
		t.Errorf("timed-out poll = %+v", resp)
	}
}

// TestDiffResyncPastRing drives more updates than the coordinator retains
// and checks a stale cursor is told to resynchronize.
func TestDiffResyncPastRing(t *testing.T) {
	cfg := &config.Config{
		Duration:   2 * time.Minute,
		Resolution: 500 * time.Millisecond,
		Shells: []config.Shell{{
			ShellConfig: orbit.ShellConfig{
				Name: "starlink-1", Planes: 24, SatsPerPlane: 22, AltitudeKm: 550,
				InclinationDeg: 53, ArcDeg: 360, PhasingFactor: 13, Model: orbit.ModelKepler,
			},
		}},
		GroundStations: []config.GroundStation{
			{Name: "accra", Location: geom.LatLon{LatDeg: 5.6037, LonDeg: -0.1870}},
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
	if err := c.Run(40 * time.Second); err != nil { // 80 updates > 64 retained
		t.Fatal(err)
	}
	s := New(c)
	var resp DiffResponse
	get(t, s, "/diff?since=0", http.StatusOK, &resp)
	if !resp.Resync {
		t.Fatal("stale cursor not told to resync")
	}
	if len(resp.Diffs) != 0 {
		t.Errorf("resync response carries %d diffs", len(resp.Diffs))
	}
	if resp.Generation != c.Generation() {
		t.Errorf("resync generation = %d, want %d", resp.Generation, c.Generation())
	}
	// The client sent back to full state is the ring's one forced resync.
	var agents AgentsResponse
	get(t, s, "/agents", http.StatusOK, &agents)
	if agents.Ring.ForcedResyncs != 1 {
		t.Errorf("/agents ring.forced_resyncs = %d after one stale cursor, want 1", agents.Ring.ForcedResyncs)
	}
	// Resuming from the returned generation works.
	if err := c.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	var resumed DiffResponse
	get(t, s, "/diff?since="+itoa(resp.Generation), http.StatusOK, &resumed)
	if resumed.Resync || len(resumed.Diffs) == 0 {
		t.Errorf("resumed poll = %+v", resumed)
	}
}

// TestDiffSSEFutureCursorResyncs locks in the SSE side of the
// future-cursor fix: a reconnect with a Last-Event-ID beyond the live
// generation must immediately receive a resync event (and then resume
// streaming), not hang event-free on the update channel.
func TestDiffSSEFutureCursorResyncs(t *testing.T) {
	leaktest.Check(t)
	s, c := testServer(t)
	srv := httptest.NewServer(s)
	defer srv.Close()

	stop := make(chan struct{})
	ticks := make(chan struct{})
	go func() {
		defer close(ticks)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := c.Run(2 * time.Second); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	defer func() { close(stop); <-ticks }()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/diff?since=0", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	req.Header.Set("Last-Event-ID", "999999999")
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

// TestDiffSSEKeepAlive locks in the idle-stream keep-alive: a subscriber
// at the head of a quiet topology must receive periodic comment frames so
// proxy idle timeouts do not reap the connection.
func TestDiffSSEKeepAlive(t *testing.T) {
	leaktest.Check(t)
	s, c := testServer(t)
	s.SetStreamTiming(20*time.Millisecond, 0)
	srv := httptest.NewServer(s)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		srv.URL+"/diff?since="+itoa(c.Generation()), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	sc := bufio.NewScanner(resp.Body)
	comments := 0
	for sc.Scan() && comments < 2 {
		if strings.HasPrefix(sc.Text(), ":") {
			comments++
		} else if v, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			t.Fatalf("unexpected event %q on an idle stream", v)
		}
	}
	cancel()
	if comments < 2 {
		t.Fatalf("read %d keep-alive comments, scan err %v", comments, sc.Err())
	}
}

// TestDiffSSEStreams subscribes over a real HTTP connection and reads
// diff events while the tick loop advances in a background goroutine.
func TestDiffSSEStreams(t *testing.T) {
	leaktest.Check(t)
	s, c := testServer(t)
	srv := httptest.NewServer(s)
	defer srv.Close()

	stop := make(chan struct{})
	ticks := make(chan struct{})
	go func() {
		defer close(ticks)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := c.Run(2 * time.Second); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	defer func() { close(stop); <-ticks }()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/diff?since=0", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type = %q", ct)
	}

	var events []string
	var datas []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() && len(datas) < 3 {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			events = append(events, v)
		}
		if v, ok := strings.CutPrefix(line, "data: "); ok {
			datas = append(datas, v)
		}
	}
	cancel() // disconnect; the handler must return
	if len(datas) < 3 {
		t.Fatalf("read %d data frames (events %v, scan err %v)", len(datas), events, sc.Err())
	}
	for _, e := range events {
		if e != "diff" && e != "resync" {
			t.Errorf("unexpected event type %q", e)
		}
	}
	for _, d := range datas {
		if !strings.HasPrefix(d, "{") {
			t.Errorf("data frame is not JSON: %q", d)
		}
	}
}

// stallingWriter fakes a subscriber whose connection stalls: writes succeed
// until failAfter is reached, then report a deadline error like a net.Conn
// whose write deadline expired. It supports SetWriteDeadline so the handler
// exercises the real eviction path rather than the ErrNotSupported bypass.
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

func TestDiffSSEEvictsStalledSubscriber(t *testing.T) {
	leaktest.Check(t)
	s, c := testServer(t)
	if err := c.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/diff?since=0", nil)
	req.Header.Set("Accept", "text/event-stream")
	w := &stallingWriter{h: make(http.Header), failAfter: 2}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.ServeHTTP(w, req)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("handler did not evict the stalled subscriber")
	}
	if w.deadlines == 0 {
		t.Error("no write deadline was set on the stream")
	}
}

func TestDiffDegradedLevelOnWire(t *testing.T) {
	// An impossible 1ns budget degrades every tick; the level must show up
	// on the replayed wire diffs.
	c := newCoordinator(t, coordinator.Options{Watchdog: time.Nanosecond})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	s := New(c)
	if err := c.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	var resp DiffResponse
	get(t, s, "/diff?since=0", http.StatusOK, &resp)
	if len(resp.Diffs) == 0 {
		t.Fatal("no diffs replayed")
	}
	degraded := 0
	for _, d := range resp.Diffs {
		if d.Degraded > 0 {
			degraded++
		}
	}
	if degraded == 0 {
		t.Fatalf("no degraded diffs in %d replayed", len(resp.Diffs))
	}
}
