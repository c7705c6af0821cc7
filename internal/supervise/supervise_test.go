package supervise

import (
	"testing"
	"time"
)

// tick runs one full Observe cycle with the given per-stage durations.
func tick(w *Watchdog, snap, diff, repair, apply time.Duration) Outcome {
	w.BeginTick()
	w.Observe(StageSnapshot, snap)
	w.Observe(StageDiff, diff)
	w.Observe(StagePathRepair, repair)
	w.Observe(StageApply, apply)
	return w.EndTick()
}

func TestHealthyRunStaysFull(t *testing.T) {
	w := New(100 * time.Millisecond)
	for i := 0; i < 20; i++ {
		out := tick(w, 10*time.Millisecond, 5*time.Millisecond, 5*time.Millisecond, 10*time.Millisecond)
		if out.Level != LevelFull {
			t.Fatalf("tick %d degraded to %v", i, out.Level)
		}
	}
	st := w.Stats()
	if st.Ticks != 20 || st.DegradedTicks != 0 || st.Escalations != 0 || st.Overruns != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestProjectionEscalatesBeforeOverrun(t *testing.T) {
	w := New(100 * time.Millisecond) // budget 80ms
	// One expensive tick seeds the estimates well over budget
	// (EWMA with alpha 0.3: 0.3 × 400ms = 120ms > 80ms).
	tick(w, 100*time.Millisecond, 100*time.Millisecond, 100*time.Millisecond, 100*time.Millisecond)
	if lvl := w.BeginTick(); lvl != LevelDeferRepair {
		t.Fatalf("level after overrun projection = %v, want defer-repair", lvl)
	}
	w.EndTick()
	st := w.Stats()
	if st.Escalations != 1 || st.Overruns != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLadderWalksAllRungs(t *testing.T) {
	w := New(10 * time.Millisecond)
	levels := []Level{}
	for i := 0; i < 5; i++ {
		out := tick(w, 20*time.Millisecond, 20*time.Millisecond, 0, 0)
		levels = append(levels, out.Level)
	}
	// First tick has no estimates yet → Full; then one rung per tick up to
	// the top, where the ladder stays.
	want := []Level{LevelFull, LevelDeferRepair, LevelCoalesce, LevelActivityOnly, LevelActivityOnly}
	for i := range want {
		if levels[i] != want[i] {
			t.Fatalf("levels = %v, want %v", levels, want)
		}
	}
	st := w.Stats()
	if st.DeferredRepair != 1 || st.Coalesced != 1 || st.ActivityOnly != 2 || st.DegradedTicks != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOverBudgetAndEscalate(t *testing.T) {
	w := New(10 * time.Millisecond) // budget 8ms
	w.BeginTick()
	w.Observe(StageSnapshot, 5*time.Millisecond)
	if w.OverBudget() {
		t.Fatal("under budget reported over")
	}
	w.Observe(StageDiff, 5*time.Millisecond)
	if !w.OverBudget() {
		t.Fatal("10ms of 8ms budget not reported over")
	}
	if lvl := w.Escalate(LevelCoalesce); lvl != LevelCoalesce {
		t.Fatalf("escalate = %v", lvl)
	}
	// Escalate never lowers.
	if lvl := w.Escalate(LevelDeferRepair); lvl != LevelCoalesce {
		t.Fatalf("escalate lowered level to %v", lvl)
	}
	out := w.EndTick()
	if out.Level != LevelCoalesce || out.Total != 10*time.Millisecond || out.Overrun {
		t.Fatalf("outcome = %+v", out)
	}
	if w.Stats().Escalations != 1 {
		t.Fatalf("stats = %+v", w.Stats())
	}
}

func TestRecoveryAfterHealthyStreak(t *testing.T) {
	w := New(100 * time.Millisecond)
	w.BeginTick()
	w.Escalate(LevelCoalesce)
	w.Observe(StageSnapshot, time.Millisecond)
	w.EndTick()
	if w.level() != LevelCoalesce {
		t.Fatalf("level = %v", w.level())
	}
	// Three healthy ticks step down one rung; three more reach Full.
	for i := 0; i < 3; i++ {
		tick(w, time.Millisecond, time.Millisecond, 0, 0)
	}
	if w.level() != LevelDeferRepair {
		t.Fatalf("after 3 healthy ticks level = %v, want defer-repair", w.level())
	}
	for i := 0; i < 3; i++ {
		tick(w, time.Millisecond, time.Millisecond, time.Millisecond, 0)
	}
	if w.level() != LevelFull {
		t.Fatalf("after 6 healthy ticks level = %v, want full", w.level())
	}
	if w.Stats().Recoveries != 2 {
		t.Fatalf("stats = %+v", w.Stats())
	}
}

func TestRecoveryBlockedWhileProjectionOverBudget(t *testing.T) {
	w := New(10 * time.Millisecond)
	// Seed huge estimates until the projection has climbed to the top rung,
	// where BeginTick cannot escalate any further.
	for i := 0; w.level() < LevelActivityOnly; i++ {
		if i == 10 {
			t.Fatalf("ladder stuck at %v", w.level())
		}
		tick(w, 50*time.Millisecond, 50*time.Millisecond, 0, 0)
	}
	// A full recovery streak of cheap degraded ticks is under budget, but
	// the estimates (with the skipped stages' remembered cost) still project
	// over budget — the ladder must hold, not bounce.
	for i := 0; i < recoverAfter; i++ {
		tick(w, time.Millisecond, 0, 0, 0)
	}
	if w.level() != LevelActivityOnly || w.Stats().Recoveries != 0 {
		t.Fatalf("ladder recovered to %v while projection over budget (stats %+v)", w.level(), w.Stats())
	}
}

func TestObserveOutsideTickIgnored(t *testing.T) {
	w := New(time.Second)
	w.Observe(StageSnapshot, time.Hour)
	w.BeginTick()
	if w.Elapsed() != 0 {
		t.Fatalf("elapsed = %v, want 0", w.Elapsed())
	}
	w.EndTick()
	if w.Stats().Overruns != 0 {
		t.Fatalf("stats = %+v", w.Stats())
	}
}

func TestEndTickWithoutBegin(t *testing.T) {
	w := New(time.Second)
	out := w.EndTick()
	if out.Total != 0 || w.Stats().Ticks != 0 {
		t.Fatalf("outcome = %+v, stats = %+v", out, w.Stats())
	}
}

func TestStringers(t *testing.T) {
	if StageSnapshot.String() != "snapshot" || StageApply.String() != "apply" {
		t.Error("stage strings")
	}
	if LevelFull.String() != "full" || LevelActivityOnly.String() != "activity-only" {
		t.Error("level strings")
	}
	if Level(9).String() != "level(9)" || Stage(9).String() != "stage(9)" {
		t.Error("out-of-range strings")
	}
}

func TestNewPanicsOnBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero interval")
		}
	}()
	New(0)
}
