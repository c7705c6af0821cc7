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
	cfg FollowerConfig
	ladder
	stats FollowerStats
}

// FollowerConfig parameterizes a per-shard follower ladder. The zero value
// is usable: defaults are applied by NewFollower.
type FollowerConfig struct {
	// CoalesceLag is the backlog (in generations) at which the shard
	// degrades to LevelCoalesce. Default 4.
	CoalesceLag int
	// ActivityOnlyLag is the backlog at which the shard degrades to
	// LevelActivityOnly. Default 16; forced above CoalesceLag.
	ActivityOnlyLag int
	// RecoverAfter is how many consecutive observations under CoalesceLag
	// the shard must string together before stepping one rung back toward
	// LevelFull. Default 3.
	RecoverAfter int
}

// FollowerStats counts a follower's ladder traffic. All counters are
// deterministic functions of the observed lag sequence.
type FollowerStats struct {
	// Observations counts Observe calls; Degraded those that returned a
	// level above LevelFull.
	Observations int
	Degraded     int
	// Escalations counts upward rung moves, Recoveries downward ones
	// (one per rung stepped).
	Escalations int
	Recoveries  int
}

// normalized returns the config with defaults applied.
func (c FollowerConfig) normalized() FollowerConfig {
	if c.CoalesceLag <= 0 {
		c.CoalesceLag = 4
	}
	if c.ActivityOnlyLag <= 0 {
		c.ActivityOnlyLag = 16
	}
	if c.ActivityOnlyLag <= c.CoalesceLag {
		c.ActivityOnlyLag = c.CoalesceLag + 1
	}
	if c.RecoverAfter <= 0 {
		c.RecoverAfter = 3
	}
	return c
}

// NewFollower returns a ladder at LevelFull.
func NewFollower(cfg FollowerConfig) *Follower {
	cfg = cfg.normalized()
	return &Follower{cfg: cfg, ladder: ladder{
		rungs: []Level{LevelFull, LevelCoalesce, LevelActivityOnly},
		after: cfg.RecoverAfter,
	}}
}

// Observe records the shard's current delivery lag and returns the level
// its next frame must be applied at: straight up to the rung the lag calls
// for, one rung down per RecoverAfter observations below the current one.
func (f *Follower) Observe(lag int) Level {
	f.stats.Observations++
	target := LevelFull
	switch {
	case lag >= f.cfg.ActivityOnlyLag:
		target = LevelActivityOnly
	case lag >= f.cfg.CoalesceLag:
		target = LevelCoalesce
	}
	f.stats.Escalations += f.raise(target)
	if f.settle(target < f.level()) {
		f.stats.Recoveries++
	}
	if f.level() > LevelFull {
		f.stats.Degraded++
	}
	return f.level()
}

// Config returns the ladder's configuration with defaults applied.
func (f *Follower) Config() FollowerConfig { return f.cfg }

// Level returns the current rung without recording an observation.
func (f *Follower) Level() Level { return f.level() }

// Stats returns the ladder counters accumulated so far.
func (f *Follower) Stats() FollowerStats { return f.stats }
