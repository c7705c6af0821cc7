package readpath

import (
	"testing"
	"time"

	"celestial/internal/constellation"
	"celestial/internal/hostlink"
	"celestial/internal/httpapi"
)

// TestCursorConformance drives the three places a subscriber's cursor is
// answered — hostlink.Replica.Diffs, readpath.Replica.Frames and the
// coordinator's frame source — through one stream of generations and one
// cursor table, and expects the same ok/length answer from all of them:
// before the 64-generation window wraps, after it has, right after the
// followers resynced (where the coordinator, which never resyncs, still
// replays what they no longer can), and once its window has slid past the
// resync point and all three coincide again.
func TestCursorConformance(t *testing.T) {
	const retention = 64
	c := testCoordinator(t, time.Second)
	coordSrc := httpapi.NewCoordinatorSource(c)
	agent := hostlink.NewReplica()
	reader, err := New(Options{Upstream: "http://upstream.invalid"})
	if err != nil {
		t.Fatal(err)
	}

	type subject struct {
		name  string
		since func(cursor uint64) (int, bool)
		// follower marks the two that are fed from the stream and can be
		// resynced; the other one mirrors the coordinator's own log.
		follower bool
	}
	subjects := []subject{
		{"CoordinatorSource.Frames", func(cur uint64) (int, bool) { f, ok := coordSrc.Frames(cur); return len(f), ok }, false},
		{"hostlink.Replica.Diffs", func(cur uint64) (int, bool) { f, ok := agent.Diffs(cur); return len(f), ok }, true},
		{"readpath.Replica.Frames", func(cur uint64) (int, bool) { f, ok := reader.Frames(cur); return len(f), ok }, true},
	}

	// fed is the followers' cursor into the coordinator's stream; base is
	// the oldest cursor they can replay from (0, or their resync point).
	var fed, base uint64
	follow := func() {
		t.Helper()
		entries, from := c.DiffsFrom(fed)
		if from != fed {
			t.Fatalf("the test fell off the coordinator's window at %d", fed)
		}
		for i := range entries {
			e := &entries[i]
			if err := agent.ApplyDiff(&hostlink.DiffFrame{Generation: e.Generation, DiffRecord: constellation.DiffRecord{T: e.Diff.T}}); err != nil {
				t.Fatal(err)
			}
			reader.applyFrame(e.Generation, &e.Diff)
			fed = e.Generation
		}
	}
	runTo := func(gen uint64) {
		t.Helper()
		if err := c.Run(time.Duration(gen-c.Generation()) * time.Second); err != nil {
			t.Fatal(err)
		}
		if c.Generation() != gen {
			t.Fatalf("coordinator at generation %d, want %d", c.Generation(), gen)
		}
	}
	resync := func() {
		t.Helper()
		fed, base = c.Generation(), c.Generation()
		if err := agent.ApplySnapshot(&hostlink.Snapshot{Generation: fed}); err != nil {
			t.Fatal(err)
		}
		reader.resync(fed, c.TopologyVersion())
	}

	// check asks every subject the cursor table around its expected
	// window (oldest-1 is the last replayable cursor) and compares with
	// the one rule; allAgree additionally demands three equal windows.
	check := func(stage string, allAgree bool) {
		t.Helper()
		head := c.Generation()
		window := func(s subject) (oldest uint64) {
			oldest = 1
			if head > retention {
				oldest = head - retention + 1
			}
			if s.follower && base+1 > oldest {
				oldest = base + 1
			}
			return oldest
		}
		if allAgree {
			for _, s := range subjects {
				if window(s) != window(subjects[0]) {
					t.Fatalf("%s: %s expects window from %d, %s from %d — the stage does not line them up",
						stage, s.name, window(s), subjects[0].name, window(subjects[0]))
				}
			}
		}
		cursors := []uint64{0, 1, base, head - 1, head, head + 1, head + 1000}
		for _, s := range subjects {
			o := window(s)
			cursors = append(cursors, o, o-1)
			if o >= 2 {
				cursors = append(cursors, o-2)
			}
		}
		for _, cur := range cursors {
			for _, s := range subjects {
				wantOK := cur <= head && cur+1 >= window(s)
				wantN := 0
				if wantOK {
					wantN = int(head - cur)
				}
				if n, ok := s.since(cur); ok != wantOK || n != wantN {
					t.Errorf("%s: %s(%d) = %d entries, ok=%v; want %d, ok=%v (head %d, window from %d)",
						stage, s.name, cur, n, ok, wantN, wantOK, head, window(s))
				}
			}
		}
	}

	runTo(10)
	follow()
	check("filling", true)
	runTo(retention + 6)
	follow()
	check("wrapped", true)
	resync()
	check("followers resynced at head", false)
	runTo(retention + 16)
	follow()
	check("ten generations after the resync", false)
	runTo(2*retention + 16)
	follow()
	check("wrapped past the resync point", true)
	if rs := c.RingStats(); rs.Length != retention || rs.Evictions != uint64(retention+16) {
		t.Errorf("ring stats = %+v, want length %d and %d evictions", rs, retention, retention+16)
	}
}
