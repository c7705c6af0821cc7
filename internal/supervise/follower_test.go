package supervise

import "testing"

func TestFollowerEscalatesToLagTarget(t *testing.T) {
	f := NewFollower()
	if got := f.level(); got != LevelFull {
		t.Fatalf("new follower at %v, want LevelFull", got)
	}
	if got := f.Observe(CoalesceLag - 1); got != LevelFull {
		t.Fatalf("Observe(%d) = %v, want LevelFull", CoalesceLag-1, got)
	}
	if got := f.Observe(CoalesceLag); got != LevelCoalesce {
		t.Fatalf("Observe(%d) = %v, want LevelCoalesce", CoalesceLag, got)
	}
	if got := f.Observe(ActivityOnlyLag - 1); got != LevelCoalesce {
		t.Fatalf("Observe(%d) = %v, want LevelCoalesce", ActivityOnlyLag-1, got)
	}
	// Escalation jumps straight to the rung the lag calls for.
	if got := f.Observe(40); got != LevelActivityOnly {
		t.Fatalf("Observe(40) = %v, want LevelActivityOnly", got)
	}
	st := f.Stats()
	if st.Escalations != 2 {
		t.Errorf("Escalations = %d, want 2 (Full→Coalesce, Coalesce→ActivityOnly)", st.Escalations)
	}
}

func TestFollowerJumpCountsEveryRung(t *testing.T) {
	f := NewFollower()
	f.Observe(1000) // straight to activity-only
	if got := f.Stats().Escalations; got != 2 {
		t.Errorf("Escalations after Full→ActivityOnly jump = %d, want 2", got)
	}
}

func TestFollowerRecoversOneRungAtATime(t *testing.T) {
	f := NewFollower()
	f.Observe(ActivityOnlyLag)
	if f.level() != LevelActivityOnly {
		t.Fatalf("level = %v, want LevelActivityOnly", f.level())
	}
	// Fewer than recoverAfter healthy observations are not enough.
	for i := 1; i < recoverAfter; i++ {
		if got := f.Observe(0); got != LevelActivityOnly {
			t.Fatalf("after %d healthy observations level = %v, want LevelActivityOnly", i, got)
		}
	}
	// The last of the streak steps down exactly one rung, to Coalesce, not
	// to Full.
	if got := f.Observe(0); got != LevelCoalesce {
		t.Fatalf("after %d healthy observations level = %v, want LevelCoalesce", recoverAfter, got)
	}
	for i := 1; i < recoverAfter; i++ {
		f.Observe(0)
	}
	if got := f.Observe(0); got != LevelFull {
		t.Fatalf("after %d more healthy observations level = %v, want LevelFull", recoverAfter, got)
	}
	if st := f.Stats(); st.Recoveries != 2 {
		t.Errorf("Recoveries = %d, want 2", st.Recoveries)
	}
}

func TestFollowerRelapseResetsHealthyStreak(t *testing.T) {
	f := NewFollower()
	f.Observe(CoalesceLag + 1) // Coalesce
	for i := 1; i < recoverAfter; i++ {
		f.Observe(0) // one short of a streak
	}
	f.Observe(CoalesceLag + 1) // relapse: streak resets
	for i := 1; i < recoverAfter; i++ {
		if got := f.Observe(0); got != LevelCoalesce {
			t.Fatalf("after relapse + %d healthy level = %v, want LevelCoalesce", i, got)
		}
	}
	if got := f.Observe(0); got != LevelFull {
		t.Fatalf("after relapse + %d healthy level = %v, want LevelFull", recoverAfter, got)
	}
}
