// Package supervise implements the deadline supervision layer around the
// coordinator's tick pipeline. The paper's core contract is that every
// topology update completes inside the update interval — otherwise the
// emulation silently drifts from real time. The Watchdog enforces that
// contract explicitly: it tracks how long each pipeline stage (snapshot,
// diff, path repair, shaper apply) has been taking, projects the next
// tick's cost, and when the projection (or the tick's measured elapsed
// time) exceeds the budget it walks a fixed degradation ladder —
//
//	LevelFull         → everything runs
//	LevelDeferRepair  → skip incremental path-cache repair this tick
//	                    (queries recompute lazily; repair resumes when
//	                    the pipeline is back under budget)
//	LevelCoalesce     → additionally withhold this tick's diff from the
//	                    hosts and the virtual network; the next healthy
//	                    tick distributes the coalesced state wholesale
//	LevelActivityOnly → sustained overload: keep distributing machine
//	                    activity (liveness) but stop reprogramming link
//	                    shapers until the pipeline recovers
//
// — and recovers one level at a time after a run of healthy ticks. Every
// degradation is recorded: the level rides on the tick's constellation
// diff, replays through /diff frames, and is counted in the run report.
//
// Following RAFDA's argument that failure-handling policy belongs in an
// explicit middleware layer, the Watchdog holds only policy: it never
// touches the pipeline itself. The coordinator reports measured stage
// durations (Observe) and asks for decisions (BeginTick, OverBudget); what
// "skip repair" or "coalesce" mean mechanically stays in the coordinator
// and the snapshot pool. The Watchdog is pure on its observed durations —
// no internal clock — so its policy is deterministic and unit-testable.
package supervise

import (
	"fmt"
	"time"
)

// Stage is one budgeted phase of the tick pipeline.
type Stage int

const (
	// StageSnapshot covers orbital propagation and state assembly.
	StageSnapshot Stage = iota
	// StageDiff covers diff computation and graph materialization
	// (frozen-CSR patch or rebuild).
	StageDiff
	// StagePathRepair covers shortest-path cache transplant/repair.
	StagePathRepair
	// StageApply covers distribution: shaper invalidation and the hosts'
	// machine activity sweep.
	StageApply
	numStages
)

// String implements fmt.Stringer.
func (s Stage) String() string {
	switch s {
	case StageSnapshot:
		return "snapshot"
	case StageDiff:
		return "diff"
	case StagePathRepair:
		return "path-repair"
	case StageApply:
		return "apply"
	default:
		return fmt.Sprintf("stage(%d)", int(s))
	}
}

// Level is a rung of the degradation ladder; higher is more degraded.
type Level int

const (
	// LevelFull runs the complete pipeline.
	LevelFull Level = iota
	// LevelDeferRepair skips incremental path-cache repair.
	LevelDeferRepair
	// LevelCoalesce additionally defers diff distribution to the next
	// healthy tick.
	LevelCoalesce
	// LevelActivityOnly additionally stops link-shaper reprogramming,
	// applying only machine activity.
	LevelActivityOnly
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelFull:
		return "full"
	case LevelDeferRepair:
		return "defer-repair"
	case LevelCoalesce:
		return "coalesce"
	case LevelActivityOnly:
		return "activity-only"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// Config parameterizes a Watchdog.
type Config struct {
	// Interval is the tick interval the pipeline must fit into (the
	// testbed's update resolution). Required.
	Interval time.Duration
	// RecoverAfter is how many consecutive under-budget ticks step the
	// ladder back down one level. Zero adopts the default 3.
	RecoverAfter int
}

// budgetFraction is the share of Config.Interval the pipeline may use
// before the watchdog degrades; the headroom absorbs scheduling noise and
// leaves room for the emulated workload. alpha is the EWMA weight of the
// newest tick in the per-stage cost estimates.
const (
	budgetFraction = 0.8
	alpha          = 0.3
)

// Stats counts watchdog decisions over a run; the scenario report encodes
// it as its robustness section's watchdog.
type Stats struct {
	// Ticks counts supervised ticks; DegradedTicks those that ran at any
	// level above LevelFull.
	Ticks         int `json:"ticks"`
	DegradedTicks int `json:"degraded_ticks"`
	// DeferredRepair, Coalesced and ActivityOnly count ticks at each
	// rung (a tick counts once, at its final level).
	DeferredRepair int `json:"deferred_repair"`
	Coalesced      int `json:"coalesced"`
	ActivityOnly   int `json:"activity_only"`
	// Escalations counts level increases (projected at tick start or
	// measured mid-tick); Recoveries counts step-downs.
	Escalations int `json:"escalations"`
	Recoveries  int `json:"recoveries"`
	// Overruns counts ticks whose measured pipeline time exceeded the
	// full interval — real-time drift the degradation could not prevent.
	Overruns int `json:"overruns"`
}

// ladder is the rung rule the Watchdog and the Follower share: escalation
// is immediate, to whatever rung is called for; recovery is one rung at a
// time, after a run of healthy observations that any relapse restarts.
type ladder struct {
	rungs   []Level // the levels this ladder occupies, ascending
	at      int     // index of the current rung
	healthy int     // consecutive healthy observations on it
	after   int     // how many of them step one rung down
}

func (l *ladder) level() Level { return l.rungs[l.at] }

// raise climbs to the lowest rung at or above to (the top one if there is
// none) and reports how many rungs that was; it never descends.
func (l *ladder) raise(to Level) (climbed int) {
	for l.level() < to && l.at < len(l.rungs)-1 {
		l.at, l.healthy = l.at+1, 0
		climbed++
	}
	return climbed
}

// settle records one observation at the current rung and reports whether
// it completed a healthy run and stepped the ladder down a rung.
func (l *ladder) settle(healthy bool) (steppedDown bool) {
	if !healthy {
		l.healthy = 0
		return false
	}
	l.healthy++
	if l.healthy < l.after || l.at == 0 {
		return false
	}
	l.at--
	l.healthy = 0
	return true
}

// Watchdog supervises the tick pipeline. It is driven from the single
// goroutine running the pipeline (the simulation goroutine); it is not safe
// for concurrent use.
type Watchdog struct {
	cfg    Config
	budget time.Duration
	est    [numStages]float64 // EWMA cost estimate per stage, ns
	ladder

	inTick   bool
	measured [numStages]time.Duration
	stats    Stats
}

// New creates a watchdog. It panics on a non-positive interval — the
// budget would be meaningless.
func New(cfg Config) *Watchdog {
	if cfg.Interval <= 0 {
		panic(fmt.Sprintf("supervise: non-positive interval %v", cfg.Interval))
	}
	if cfg.RecoverAfter <= 0 {
		cfg.RecoverAfter = 3
	}
	return &Watchdog{
		cfg:    cfg,
		budget: time.Duration(float64(cfg.Interval) * budgetFraction),
		ladder: ladder{
			rungs: []Level{LevelFull, LevelDeferRepair, LevelCoalesce, LevelActivityOnly},
			after: cfg.RecoverAfter,
		},
	}
}

// Budget returns the per-tick time budget (Interval × budgetFraction).
func (w *Watchdog) Budget() time.Duration { return w.budget }

// Level returns the current degradation level.
func (w *Watchdog) Level() Level { return w.level() }

// Stats returns the decision counters so far.
func (w *Watchdog) Stats() Stats { return w.stats }

// BeginTick starts a supervised tick and returns the level it should run
// at: the current level, escalated by one rung when the projected pipeline
// cost (the sum of the per-stage EWMA estimates) exceeds the budget. The
// projection-based escalation is what lets the pipeline degrade *before*
// overrunning, not after.
func (w *Watchdog) BeginTick() Level {
	w.inTick = true
	for s := range w.measured {
		w.measured[s] = 0
	}
	if w.projected() > w.budget && w.raise(w.level()+1) > 0 {
		w.stats.Escalations++
	}
	return w.level()
}

// projected sums the per-stage cost estimates.
func (w *Watchdog) projected() time.Duration {
	total := 0.0
	for s := range w.est {
		total += w.est[s]
	}
	return time.Duration(total)
}

// Observe records the measured duration of one stage of the current tick.
// Stages may report multiple fragments; they accumulate.
func (w *Watchdog) Observe(s Stage, d time.Duration) {
	if !w.inTick || s < 0 || s >= numStages || d < 0 {
		return
	}
	w.measured[s] += d
}

// Elapsed returns the pipeline time measured so far in the current tick.
func (w *Watchdog) Elapsed() time.Duration {
	var total time.Duration
	for s := range w.measured {
		total += w.measured[s]
	}
	return total
}

// OverBudget reports whether the current tick's measured pipeline time has
// already exceeded the budget — the mid-tick escalation signal: after the
// compute stages, a coordinator seeing OverBudget coalesces the
// distribution (Escalate(LevelCoalesce)) instead of pushing the tick
// further past its deadline.
func (w *Watchdog) OverBudget() bool { return w.Elapsed() > w.budget }

// Escalate raises the current tick's level mid-tick (never lowers it),
// recording the escalation.
func (w *Watchdog) Escalate(to Level) Level {
	if w.raise(to) > 0 {
		w.stats.Escalations++
	}
	return w.level()
}

// Outcome summarizes one supervised tick.
type Outcome struct {
	// Level is the level the tick ended at.
	Level Level
	// Total is the measured pipeline time.
	Total time.Duration
	// Overrun is set when Total exceeded the full interval.
	Overrun bool
}

// EndTick completes the tick: per-stage estimates absorb the measurements,
// counters update, and a run of healthy (under-budget) ticks steps the
// ladder back down one level. Returns the tick's outcome.
func (w *Watchdog) EndTick() Outcome {
	if !w.inTick {
		return Outcome{Level: w.level()}
	}
	w.inTick = false
	var total time.Duration
	for s := range w.measured {
		total += w.measured[s]
		// Stages skipped by degradation measured 0; letting the zero
		// into the EWMA would forget the stage's true cost and bounce
		// the ladder. Only observed work updates estimates.
		if w.measured[s] > 0 {
			w.est[s] = (1-alpha)*w.est[s] + alpha*float64(w.measured[s])
		}
	}
	out := Outcome{Level: w.level(), Total: total, Overrun: total > w.cfg.Interval}
	w.stats.Ticks++
	if out.Overrun {
		w.stats.Overruns++
	}
	switch out.Level {
	case LevelDeferRepair:
		w.stats.DeferredRepair++
	case LevelCoalesce:
		w.stats.Coalesced++
	case LevelActivityOnly:
		w.stats.ActivityOnly++
	}
	if out.Level > LevelFull {
		w.stats.DegradedTicks++
	}
	// Recovery: de-escalate one rung after RecoverAfter consecutive
	// under-budget ticks, but only when the *projection with the skipped
	// stages restored* would also fit — otherwise the ladder would
	// oscillate between a level that fits and one that cannot.
	if w.settle(total <= w.budget && w.projected() <= w.budget) {
		w.stats.Recoveries++
	}
	return out
}
