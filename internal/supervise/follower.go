package supervise

// Follower is the per-shard cousin of the Watchdog: where the Watchdog
// degrades the whole tick pipeline when wall-clock stage budgets are
// blown, a Follower degrades a single fan-out shard when that shard's
// delivery lag — generations produced but not yet consumed by the shard's
// applier — grows. Lag is a pure count, not a clock reading, so Follower
// decisions are deterministic and safe to reflect in the run report.
//
// The ladder reuses the Watchdog's Level scale but only ever occupies the
// distribution rungs: LevelFull (healthy), LevelCoalesce (withhold both
// path invalidation and activity sweeps, carrying them as debt) and
// LevelActivityOnly (withhold path invalidation, still sweep activity).
// LevelDeferRepair is a tick-pipeline concern and is never returned.
type Follower struct {
	ladder
	stats FollowerStats
}

// The follower's rungs, in generations of backlog: a shard degrades to
// LevelCoalesce at CoalesceLag behind and to LevelActivityOnly at
// ActivityOnlyLag behind, and steps one rung back toward LevelFull after
// recoverAfter consecutive observations below its current rung.
const (
	CoalesceLag     = 4
	ActivityOnlyLag = 16
)

// FollowerStats counts a follower's ladder traffic. All counters are
// deterministic functions of the observed lag sequence.
type FollowerStats struct {
	// Escalations counts upward rung moves, Recoveries downward ones
	// (one per rung stepped).
	Escalations int
	Recoveries  int
}

// NewFollower returns a ladder at LevelFull.
func NewFollower() *Follower {
	return &Follower{ladder: ladder{rungs: []Level{LevelFull, LevelCoalesce, LevelActivityOnly}}}
}

// Observe records the shard's current delivery lag and returns the level
// its next frame must be applied at: straight up to the rung the lag calls
// for, one rung down per recoverAfter observations below the current one.
func (f *Follower) Observe(lag int) Level {
	target := LevelFull
	switch {
	case lag >= ActivityOnlyLag:
		target = LevelActivityOnly
	case lag >= CoalesceLag:
		target = LevelCoalesce
	}
	f.stats.Escalations += f.raise(target)
	if f.settle(target < f.level()) {
		f.stats.Recoveries++
	}
	return f.level()
}

// Stats returns the ladder counters accumulated so far.
func (f *Follower) Stats() FollowerStats { return f.stats }
