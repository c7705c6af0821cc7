package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"celestial/internal/constellation"
	"celestial/internal/hostlink"
	"celestial/internal/leaktest"
	"celestial/internal/supervise"
)

// replicaServer builds a route table over a fresh replica and returns
// both. The replica is fed through the same ApplySnapshot/ApplyDiff
// methods the TCP agent uses.
func replicaServer() (*Server, *hostlink.Replica) {
	rep := hostlink.NewReplica()
	mux := http.NewServeMux()
	s := RegisterRoutes(mux, NewReplicaSource(2, rep))
	return s, rep
}

func feedReplica(t *testing.T, rep *hostlink.Replica, upTo uint64) {
	t.Helper()
	if err := rep.ApplySnapshot(&hostlink.Snapshot{
		Agent: 2, Generation: 1, Digest: 0xabc, T: 2.0,
		Active:   []int32{10, 11},
		Inactive: []int32{12},
		Links:    []hostlink.LinkState{{A: 10, B: 11, DelayQ: 4}},
	}); err != nil {
		t.Fatal(err)
	}
	for g := uint64(2); g <= upTo; g++ {
		if err := rep.ApplyDiff(&hostlink.DiffFrame{
			Agent: 2, Generation: g, DiffRecord: constellation.DiffRecord{
				T:            float64(2 * g),
				DelayChanged: []constellation.LinkDelta{{A: 10, B: 11, OldQ: int32(3 + g), NewQ: int32(4 + g)}},
				Activated:    []int32{12},
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplicaSourceServesV1 pins the agent-side read path: the shared
// route table over a shard replica answers /v1/info from replica state,
// 404s the geometry documents it cannot know, and replays /v1/diff from
// the replica's retained frame history.
func TestReplicaSourceServesV1(t *testing.T) {
	s, rep := replicaServer()

	// Before the agent attaches there is no state: 503, like a
	// coordinator before its first update.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/info", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("empty replica /v1/info = %d, want 503", rec.Code)
	}

	feedReplica(t, rep, 5)

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/info", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/info = %d (%s)", rec.Code, rec.Body.String())
	}
	var info Info
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Generation != 5 || info.T != 10.0 || info.Nodes != 3 {
		t.Errorf("info = gen %d t %v nodes %d, want 5/10/3", info.Generation, info.T, info.Nodes)
	}

	for _, ep := range []string{"/v1/shell/0", "/v1/shell/0/1", "/v1/gst/accra", "/v1/path/accra/878.0"} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, ep, nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404 (not tracked by a replica)", ep, rec.Code)
		}
	}

	// /diff replays the retained shard frames after the snapshot.
	var diffs DiffResponse
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/diff?since=1", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/diff?since=1 = %d (%s)", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &diffs); err != nil {
		t.Fatal(err)
	}
	if len(diffs.Diffs) != 4 {
		t.Fatalf("replayed %d diffs, want 4 (generations 2..5): %s", len(diffs.Diffs), rec.Body.Bytes())
	}
	for i, d := range diffs.Diffs {
		want := uint64(i + 2)
		if d.Generation != want {
			t.Errorf("diff %d generation = %d, want %d", i, d.Generation, want)
		}
		if len(d.DelayChanged) != 1 || len(d.Activated) != 1 {
			t.Errorf("diff %d lost deltas: %+v", i, d)
		}
	}

	// A cursor before the snapshot resync point cannot be replayed.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/diff?since=0", nil))
	var resync DiffResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resync); err != nil {
		t.Fatal(err)
	}
	if !resync.Resync {
		t.Errorf("pre-snapshot cursor did not force a resync: %s", rec.Body.Bytes())
	}
}

// restartedReplica plays the sequence a coordinator restart with a
// regressed generation counter produces on an agent: the first run's
// snapshot@10 and diff 11 (link 1–2), then — once first has looked at
// that state — the second run's snapshot@9 and diffs 10–11 (link 3–4).
// It returns the second run's frame for generation 11.
func restartedReplica(t *testing.T, rep *hostlink.Replica, first func()) *hostlink.DiffFrame {
	t.Helper()
	apply := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	link := func(gen uint64, a, b int32) *hostlink.DiffFrame {
		return &hostlink.DiffFrame{Agent: 2, Generation: gen, DiffRecord: constellation.DiffRecord{
			T: float64(gen), Added: []constellation.LinkDelta{{A: int(a), B: int(b), OldQ: -1, NewQ: 3}}}}
	}
	apply(rep.ApplySnapshot(&hostlink.Snapshot{Agent: 2, Generation: 10, Digest: 0xa, Active: []int32{1, 2, 3, 4}}))
	apply(rep.ApplyDiff(link(11, 1, 2)))
	first()
	apply(rep.ApplySnapshot(&hostlink.Snapshot{Agent: 2, Generation: 9, Digest: 0xb, Active: []int32{1, 2, 3, 4}}))
	apply(rep.ApplyDiff(link(10, 3, 4)))
	second := link(11, 3, 4)
	apply(rep.ApplyDiff(second))
	return second
}

// TestReplicaSourceFramesFollowSnapshotResync is the regression test of a
// stale frame cache: the replica source used to key its serialized frames
// by generation alone and never heard about a snapshot resync, so after a
// coordinator restart it kept serving the previous run's frame for a
// generation number the new run reached again.
func TestReplicaSourceFramesFollowSnapshotResync(t *testing.T) {
	rep := hostlink.NewReplica()
	rs := NewReplicaSource(2, rep)
	var old *Frame
	second := restartedReplica(t, rep, func() {
		frames, ok := rs.Frames(10)
		if !ok || len(frames) != 1 || frames[0].Generation != 11 {
			t.Fatalf("first run: Frames(10) = %v, %v; want generation 11", frames, ok)
		}
		old = frames[0]
	})
	frames, ok := rs.Frames(10)
	if !ok || len(frames) != 1 || frames[0].Generation != 11 {
		t.Fatalf("second run: Frames(10) = %v, %v; want generation 11", frames, ok)
	}
	if want := BuildFrame(11, &second.DiffRecord); !bytes.Equal(frames[0].SSE, want.SSE) {
		t.Errorf("Frames(10) after the resync served\n%swant the second run's\n%s", frames[0].SSE, want.SSE)
	}
	if bytes.Equal(frames[0].SSE, old.SSE) {
		t.Error("Frames(10) after the resync still serves the first run's frame")
	}
	// The resync point itself is the window's base: 9 replays 10–11, 8
	// predates the snapshot.
	if frames, ok := rs.Frames(9); !ok || len(frames) != 2 {
		t.Errorf("Frames(9) = %d frames, ok=%v; want 2, true", len(frames), ok)
	}
	if _, ok := rs.Frames(8); ok {
		t.Error("Frames(8) replayed across the snapshot resync")
	}
}

// TestReplicaSourceSerializesOncePerGeneration pins the documented
// contract — each frame is built once and shared by every subscriber —
// against subscribers at different cursors. The source used to prune its
// frames below the cursor of whoever asked last, so a fast subscriber
// made a slow one rebuild its frames on every call.
func TestReplicaSourceSerializesOncePerGeneration(t *testing.T) {
	rep := hostlink.NewReplica()
	rs := NewReplicaSource(2, rep)
	feedReplica(t, rep, 20)
	slow, ok := rs.Frames(5)
	if !ok || len(slow) != 15 {
		t.Fatalf("Frames(5) = %d frames, ok=%v; want 15", len(slow), ok)
	}
	fast, ok := rs.Frames(18)
	if !ok || len(fast) != 2 {
		t.Fatalf("Frames(18) = %d frames, ok=%v; want 2", len(fast), ok)
	}
	for i, f := range fast {
		if f != slow[13+i] {
			t.Errorf("generation %d: the fast subscriber got a frame of its own", f.Generation)
		}
	}
	again, _ := rs.Frames(5)
	for i, f := range again {
		if f != slow[i] {
			t.Fatalf("generation %d was serialized again after a subscriber at a newer cursor asked", f.Generation)
		}
	}
}

// TestAgentRouteTableAfterCoordinatorRestart drives the first case end to
// end through the route table celestial-agent -http serves: the JSON a
// /v1/diff client receives for a cursor must describe the run the replica
// is in now.
func TestAgentRouteTableAfterCoordinatorRestart(t *testing.T) {
	s, rep := replicaServer()
	get := func() DiffResponse {
		t.Helper()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/diff?since=10", nil))
		var resp DiffResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%v: %s", err, rec.Body.Bytes())
		}
		if rec.Code != http.StatusOK || resp.Resync || len(resp.Diffs) != 1 || len(resp.Diffs[0].Added) != 1 {
			t.Fatalf("/v1/diff?since=10 = %d %s", rec.Code, rec.Body.Bytes())
		}
		return resp
	}
	restartedReplica(t, rep, func() {
		if l := get().Diffs[0].Added[0]; l.A != 1 || l.B != 2 {
			t.Fatalf("first run: generation 11 adds link %d–%d, want 1–2", l.A, l.B)
		}
	})
	resp := get()
	if l := resp.Diffs[0].Added[0]; l.A != 3 || l.B != 4 {
		t.Errorf("after the restart: generation 11 adds link %d–%d, want the second run's 3–4", l.A, l.B)
	}
	if resp.Generation != 11 {
		t.Errorf("next cursor = %d, want 11", resp.Generation)
	}
}

// recordFeed is the smallest producer a hostlink.Fanout accepts: one
// generation under one lock, with the coordinator's contract — Advance
// runs under the producer's lock, beside the generation's advance, and
// Distribute after it, which is when remote writers hear of the generation.
type recordFeed struct {
	mu  sync.Mutex
	gen uint64
}

func (p *recordFeed) push(t *testing.T, d *constellation.Diff, fo *hostlink.Fanout) {
	t.Helper()
	p.mu.Lock()
	p.gen++
	fo.Advance(p.gen, d)
	p.mu.Unlock()
	if err := fo.Distribute(supervise.LevelFull); err != nil {
		t.Fatal(err)
	}
}

func (p *recordFeed) snapshot(int) (*hostlink.Snapshot, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return &hostlink.Snapshot{Generation: p.gen}, nil
}

type discardApplier struct{}

func (discardApplier) ApplySnapshot(*hostlink.Snapshot) error { return nil }
func (discardApplier) ApplyDiff(*hostlink.DiffFrame) error    { return nil }

// wireFedReplica takes one record the whole way an agent's documents
// travel — Fanout.Advance filters it for shard 1 of 2 (odd node IDs), the
// remote writer encodes the frame onto a TCP connection, a hostlink.Agent
// decodes it into its replica — and returns that replica, at generation 2,
// with the shard's view of the record as the test works it out by hand.
// The record has a link appearing, one disappearing and one changing delay
// on the shard, one of each off it, and activity flips on both.
func wireFedReplica(t *testing.T) (*hostlink.Replica, constellation.DiffRecord) {
	t.Helper()
	leaktest.Check(t)
	feed := &recordFeed{}
	fo, err := hostlink.New(hostlink.Config{
		Shards:   2,
		ShardOf:  func(node int) int { return node % 2 },
		Appliers: []hostlink.Applier{discardApplier{}, discardApplier{}},
		Now:      time.Now,
		After:    func(time.Duration, func()) error { return nil },
		Snapshot: feed.snapshot,
		Options:  hostlink.Options{Retention: 8, Heartbeat: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go fo.Serve(ln)
	ctx, cancel := context.WithCancel(context.Background())
	rep := hostlink.NewReplica()
	agent := &hostlink.Agent{ID: 1, Addr: ln.Addr().String(), Replica: rep, Heartbeat: time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = agent.Run(ctx) // nil on the fan-out's Bye, ctx's error otherwise
	}()
	t.Cleanup(func() {
		fo.Close()
		ln.Close()
		cancel()
		<-done
	})

	// The agent attaches from a snapshot of generation 1, then follows.
	feed.push(t, &constellation.Diff{T: 2, BaseT: math.NaN(), Full: true}, fo)
	diff := &constellation.Diff{
		T: 4, BaseT: 2, Degraded: 1, CarriedPaths: 3, RepairedPaths: 2, RepairFallbacks: 1,
		Added:        []constellation.LinkDelta{{A: 1, B: 2, OldQ: -1, NewQ: 7}, {A: 0, B: 2, OldQ: -1, NewQ: 6}},
		Removed:      []constellation.LinkDelta{{A: 2, B: 4, OldQ: 8, NewQ: -1}, {A: 4, B: 3, OldQ: 9, NewQ: -1}},
		DelayChanged: []constellation.LinkDelta{{A: 5, B: 4, OldQ: 4, NewQ: 5}, {A: 6, B: 8, OldQ: 2, NewQ: 3}},
		Activated:    []int32{2, 3},
		Deactivated:  []int32{4},
	}
	rec := diff.Record()
	view := rec
	view.Added, view.Removed, view.DelayChanged = rec.Added[:1], rec.Removed[1:], rec.DelayChanged[:1]
	view.Activated, view.Deactivated = []int32{3}, nil
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if gen, _ := rep.Cursor(); gen == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the agent never attached")
		}
	}
	feed.push(t, diff, fo)
	if !fo.WaitRemotes(5 * time.Second) {
		t.Fatal("the agent never acked generation 2")
	}
	if err := fo.VerifyRemotes(); err != nil {
		t.Fatal(err)
	}
	return rep, view
}

// TestReplicaSourceServesTheCoordinatorsDocuments is the regression test
// of an agent contradicting its coordinator: the hostlink frame used to be
// a format of its own that dropped each link's old delay, and the agent
// rebuilt records from it with zeros — an appearing link read old_ms 0
// instead of -1, a disappearing one new_ms 0, "a link that now takes 0 ms".
// A frame is now the shard's view of the record, so all three forms an
// agent serves equal what BuildFrame makes of that view.
func TestReplicaSourceServesTheCoordinatorsDocuments(t *testing.T) {
	rep, view := wireFedReplica(t)
	frames, ok := NewReplicaSource(1, rep).Frames(1)
	if !ok || len(frames) != 1 {
		t.Fatalf("Frames(1) = %d frames, ok=%v; want generation 2 alone", len(frames), ok)
	}
	got, want := frames[0], BuildFrame(2, &view)
	if !bytes.Equal(marshalDoc(got.Doc), marshalDoc(want.Doc)) {
		t.Errorf("JSON document\n%swant\n%s", marshalDoc(got.Doc), marshalDoc(want.Doc))
	}
	if !bytes.Equal(got.SSE, want.SSE) {
		t.Errorf("SSE event\n%swant\n%s", got.SSE, want.SSE)
	}
	if !bytes.Equal(got.Bin, want.Bin) {
		t.Errorf("binary frame\n%x\nwant\n%x", got.Bin, want.Bin)
	}
	// The values the second format lost, spelled out.
	q := func(n float64) float64 { return n * 0.1 } // one delay quantum is 0.1 ms
	for _, c := range []struct {
		list string
		got  []LinkChange
		want LinkChange
	}{
		{"added", got.Doc.Added, LinkChange{A: 1, B: 2, OldMs: -1, NewMs: q(7)}},
		{"removed", got.Doc.Removed, LinkChange{A: 4, B: 3, OldMs: q(9), NewMs: -1}},
		{"delay_changed", got.Doc.DelayChanged, LinkChange{A: 5, B: 4, OldMs: q(4), NewMs: q(5)}},
	} {
		if len(c.got) != 1 || c.got[0].A != c.want.A || c.got[0].B != c.want.B ||
			math.Abs(c.got[0].OldMs-c.want.OldMs) > 1e-9 || math.Abs(c.got[0].NewMs-c.want.NewMs) > 1e-9 {
			t.Errorf("%s = %+v, want [%+v]", c.list, c.got, c.want)
		}
	}
	if !reflect.DeepEqual(got.Doc.Activated, []int32{3}) || len(got.Doc.Deactivated) != 0 {
		t.Errorf("activity flips = +%v -%v, want +[3] -[]", got.Doc.Activated, got.Doc.Deactivated)
	}
}

// TestAgentRouteTableServesTheCoordinatorsDocuments is the same case at
// the route table celestial-agent -http serves: a /v1/diff client of the
// agent reads the body the coordinator's route table would answer with for
// the shard's view of the record.
func TestAgentRouteTableServesTheCoordinatorsDocuments(t *testing.T) {
	rep, view := wireFedReplica(t)
	mux := http.NewServeMux()
	s := RegisterRoutes(mux, NewReplicaSource(1, rep))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/diff?since=1", nil))
	want := marshalDoc(DiffResponse{Generation: 2, TopologyVersion: 2, Diffs: []DiffDoc{diffDoc(2, &view)}})
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("GET /v1/diff?since=1 = %d\n%swant\n%s", rec.Code, rec.Body.Bytes(), want)
	}
}
