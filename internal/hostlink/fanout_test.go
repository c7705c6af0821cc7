package hostlink

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"celestial/internal/constellation"
	"celestial/internal/retry"
	"celestial/internal/supervise"
)

// fakeSim is a minimal virtual clock: After-scheduled callbacks fire in
// due-then-insertion order when the clock advances, like vnet.Sim.
type fakeSim struct {
	now    time.Time
	timers []fakeTimer
}

type fakeTimer struct {
	due time.Time
	fn  func()
}

func (fs *fakeSim) Now() time.Time { return fs.now }

func (fs *fakeSim) After(d time.Duration, fn func()) error {
	fs.timers = append(fs.timers, fakeTimer{due: fs.now.Add(d), fn: fn})
	return nil
}

func (fs *fakeSim) advance(to time.Time) {
	for {
		best := -1
		for i, t := range fs.timers {
			if t.due.After(to) {
				continue
			}
			if best < 0 || t.due.Before(fs.timers[best].due) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		t := fs.timers[best]
		fs.timers = append(fs.timers[:best], fs.timers[best+1:]...)
		fs.now = t.due
		t.fn()
	}
	fs.now = to
}

// memSource is an in-memory diff producer: it keeps its generation the
// way Coordinator.update does, and builds snapshots at it. Safe for
// concurrent readers (remote writer goroutines).
type memSource struct {
	mu  sync.Mutex
	gen uint64
}

// push makes d the producer's generation gen and, before releasing the
// source's lock, hands it to advance — the way Coordinator.update calls
// Fanout.Advance under its own lock, so the harness holds the two locks in
// the order a real run does.
func (m *memSource) push(gen uint64, d *constellation.Diff, advance func(uint64, *constellation.Diff)) {
	m.mu.Lock()
	m.gen = gen
	advance(gen, d)
	m.mu.Unlock()
}

func (m *memSource) Snapshot(shard int) (*Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return &Snapshot{Generation: m.gen, T: float64(m.gen)}, nil
}

// recApplier records the frames a shard's loopback applier received, and
// fails the test when one carries content: the virtual plane delivers
// headers — the {Agent, Generation, Flags} an Agent builds from a Propose,
// plus Full — and the diff's lists, times and counters stay with the wire.
type recApplier struct {
	t     testing.TB
	gens  []uint64
	flags []uint8
	snaps []uint64
	err   error
}

func (a *recApplier) ApplySnapshot(s *Snapshot) error {
	if s.T != 0 || len(s.Active)+len(s.Inactive)+len(s.Links) != 0 {
		a.t.Errorf("loopback snapshot at generation %d carries content: %+v", s.Generation, s)
	}
	a.snaps = append(a.snaps, s.Generation)
	return a.err
}

func (a *recApplier) ApplyDiff(f *DiffFrame) error {
	r := &f.DiffRecord
	if r.T != 0 || r.BaseT != 0 || r.CarriedPaths != 0 || r.RepairedPaths != 0 || r.RepairFallbacks != 0 ||
		len(r.Added)+len(r.Removed)+len(r.DelayChanged)+len(r.Activated)+len(r.Deactivated) != 0 {
		a.t.Errorf("loopback frame at generation %d carries content: %+v", f.Generation, r)
	}
	a.gens = append(a.gens, f.Generation)
	a.flags = append(a.flags, f.Flags)
	return a.err
}

const testNodes = 4

type harness struct {
	fs   *fakeSim
	src  *memSource
	fo   *Fanout
	apps []*recApplier
	res  time.Duration
	gen  uint64
}

func newHarness(t *testing.T, shards, retention int, mod func(*Config)) *harness {
	t.Helper()
	h := &harness{
		fs:  &fakeSim{now: time.Unix(0, 0)},
		src: &memSource{},
		res: 2 * time.Second,
	}
	appliers := make([]Applier, shards)
	for i := range appliers {
		a := &recApplier{t: t}
		h.apps = append(h.apps, a)
		appliers[i] = a
	}
	cfg := Config{
		Shards:   shards,
		ShardOf:  func(node int) int { return node % shards },
		Appliers: appliers,
		Now:      h.fs.Now,
		After:    h.fs.After,
		Snapshot: h.src.Snapshot,
		Options:  Options{Retention: retention, Seed: 42, Heartbeat: 100 * time.Millisecond},
	}
	if mod != nil {
		mod(&cfg)
	}
	fo, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.fo = fo
	return h
}

// diff fabricates generation g's diff: node g%testNodes flips active and
// one link delta moves, so every shard sees traffic over time. Generation
// 1 is Full, like a real run's first diff.
func (h *harness) diff(g uint64) *constellation.Diff {
	d := &constellation.Diff{DiffRecord: constellation.DiffRecord{T: float64(g) * h.res.Seconds()}}
	if g == 1 {
		d.Full = true
		return d
	}
	n := int32(g % testNodes)
	d.Activated = []int32{n}
	d.Added = []constellation.LinkDelta{{A: int(n), B: int((n + 1) % testNodes), NewQ: int32(g)}}
	return d
}

// advance produces the next generation: it moves the virtual clock one
// resolution (firing due timers) and hands the generation to Advance,
// without distributing it.
func (h *harness) advance() {
	h.gen++
	h.fs.advance(time.Unix(0, 0).Add(time.Duration(h.gen) * h.res))
	h.src.push(h.gen, h.diff(h.gen), h.fo.Advance)
}

// tick produces + distributes the next generation at the given global
// level.
func (h *harness) tick(level supervise.Level) {
	h.advance()
	if err := h.fo.Distribute(level); err != nil {
		panic(err)
	}
}

func (h *harness) run(n int) {
	for i := 0; i < n; i++ {
		h.tick(supervise.LevelFull)
	}
}

func TestFanoutHealthyDeliveryInOrder(t *testing.T) {
	h := newHarness(t, 2, 64, nil)
	h.run(6)
	for i, a := range h.apps {
		want := []uint64{1, 2, 3, 4, 5, 6}
		if !reflect.DeepEqual(a.gens, want) {
			t.Errorf("shard %d applied gens %v, want %v", i, a.gens, want)
		}
		// Generation 1 is Full: both shards must sweep. Later
		// generations sweep only the shard owning the flipped node and
		// note the others.
		if a.flags[0]&FlagSweep == 0 || a.flags[0]&FlagInvalidate == 0 {
			t.Errorf("shard %d full frame flags = %08b, want sweep+invalidate", i, a.flags[0])
		}
	}
	for g := uint64(2); g <= 6; g++ {
		owner := int(g % testNodes % 2)
		for i, a := range h.apps {
			fl := a.flags[g-1]
			if i == owner && fl&FlagSweep == 0 {
				t.Errorf("gen %d: owner shard %d not swept (flags %08b)", g, i, fl)
			}
			if i != owner && (fl&FlagSweep != 0 || fl&FlagNote == 0) {
				t.Errorf("gen %d: bystander shard %d flags %08b, want note without sweep", g, i, fl)
			}
		}
	}
	for _, st := range h.fo.ShardStats() {
		if st.Applied != 6 {
			t.Errorf("shard %d applied cursor = %d, want 6", st.Agent, st.Applied)
		}
		if st.Dropped+st.Duplicated+st.Delayed+st.Resyncs != 0 {
			t.Errorf("shard %d has fault counters on a healthy run: %+v", st.Agent, st)
		}
	}
}

// TestUpdateChanClosesAtPublish pins when the tier's readers wake: Advance
// replaces the UpdateChan channel together with the log's head, so a
// waiter that re-checks the generation misses nothing, but the superseded
// channel stays open until Distribute publishes the generation. A
// generation that is never distributed wakes its waiters at the next
// Advance.
func TestUpdateChanClosesAtPublish(t *testing.T) {
	closed := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	h := newHarness(t, 2, 8, nil)
	h.run(1)
	ch := h.fo.UpdateChan()
	h.advance()
	if h.fo.UpdateChan() == ch {
		t.Fatal("Advance kept the UpdateChan channel")
	}
	if closed(ch) {
		t.Fatal("UpdateChan closed before the generation was distributed")
	}
	if err := h.fo.Distribute(supervise.LevelFull); err != nil {
		t.Fatal(err)
	}
	if !closed(ch) {
		t.Fatal("Distribute did not close the UpdateChan channel")
	}
	ch = h.fo.UpdateChan()
	h.advance()
	next := h.fo.UpdateChan()
	h.advance()
	if !closed(ch) || closed(next) {
		t.Fatalf("after two Advances: first channel closed %v, second %v; want true, false", closed(ch), closed(next))
	}
	if err := h.fo.Distribute(supervise.LevelFull); err != nil {
		t.Fatal(err)
	}
	if !closed(next) {
		t.Fatal("Distribute did not close the UpdateChan channel")
	}
}

func TestFanoutDropHealsFromRing(t *testing.T) {
	h := newHarness(t, 2, 64, func(c *Config) {
		c.DropRate = 0.4
		c.Retry = retry.Policy{MaxAttempts: 1} // every drop is a loss
	})
	h.run(20)
	h.fo.Converge()
	dropped := 0
	for _, st := range h.fo.ShardStats() {
		dropped += st.Dropped
		if st.Applied != 20 {
			t.Errorf("shard %d applied = %d, want 20 (gaps must heal from the ring)", st.Agent, st.Applied)
		}
		if st.Dropped > 0 && st.Resyncs == 0 {
			t.Errorf("shard %d dropped %d frames but never resynced", st.Agent, st.Dropped)
		}
	}
	if dropped == 0 {
		t.Fatal("40% drop rate over 40 sends injected no drops")
	}
	// In-order delivery despite gaps: each applier's gens strictly
	// ascend.
	for i, a := range h.apps {
		for j := 1; j < len(a.gens); j++ {
			if a.gens[j] <= a.gens[j-1] {
				t.Fatalf("shard %d applied out of order: %v", i, a.gens)
			}
		}
	}
}

func TestFanoutRetryAbsorbsDrops(t *testing.T) {
	h := newHarness(t, 1, 64, func(c *Config) {
		c.DropRate = 0.4
		c.Retry = retry.Policy{MaxAttempts: 6, Initial: time.Millisecond, Multiplier: 2}
	})
	h.run(20)
	st := h.fo.ShardStats()[0]
	rs := h.fo.RetryStats()
	if rs.Attempts <= rs.Ops {
		t.Errorf("retry stats show no retries: %+v", rs)
	}
	if st.Dropped != 0 {
		t.Errorf("6-attempt retry still lost %d frames at 40%% drop", st.Dropped)
	}
	if st.Applied != 20 {
		t.Errorf("applied = %d, want 20", st.Applied)
	}
}

func TestFanoutDelayAndDupConverge(t *testing.T) {
	h := newHarness(t, 2, 64, func(c *Config) {
		c.DelayRate = 0.3
		c.Delay = 3 * time.Second // lands mid-next-tick
		c.DupRate = 0.3
	})
	h.run(20)
	// One final quiet advance drains stragglers, and Converge settles
	// any frame lost on the final generation.
	h.fs.advance(h.fs.now.Add(10 * time.Second))
	h.fo.Converge()
	delayed, dup := 0, 0
	for _, st := range h.fo.ShardStats() {
		delayed += st.Delayed
		dup += st.Duplicated
		if st.Applied != 20 {
			t.Errorf("shard %d applied = %d, want 20", st.Agent, st.Applied)
		}
	}
	if delayed == 0 || dup == 0 {
		t.Fatalf("fault injection inert: delayed=%d dup=%d", delayed, dup)
	}
	for i, a := range h.apps {
		seen := map[uint64]bool{}
		for _, g := range a.gens {
			if seen[g] {
				t.Fatalf("shard %d applied generation %d twice", i, g)
			}
			seen[g] = true
		}
	}
}

func TestFanoutKillBuffersAndRejoinReplays(t *testing.T) {
	h := newHarness(t, 2, 64, nil)
	h.run(3)
	if err := h.fo.Kill(1); err != nil {
		t.Fatal(err)
	}
	if err := h.fo.Kill(1); err == nil {
		t.Error("double kill must error")
	}
	h.run(2) // generations 4, 5 buffer against the ring
	if err := h.fo.Rejoin(1); err != nil {
		t.Fatal(err)
	}
	h.run(1)
	st := h.fo.ShardStats()[1]
	if st.Applied != 6 || st.Buffered != 2 || st.Replayed != 2 || st.Resyncs != 1 {
		t.Errorf("after kill+rejoin: %+v, want applied 6, 2 buffered, 2 replayed, 1 resync", st)
	}
	if st.Killed != 1 || st.Rejoined != 1 {
		t.Errorf("event counters = killed %d rejoined %d, want 1/1", st.Killed, st.Rejoined)
	}
	// The healthy shard was untouched.
	if st0 := h.fo.ShardStats()[0]; st0.Buffered != 0 || st0.Applied != 6 {
		t.Errorf("healthy shard perturbed: %+v", st0)
	}
	if !reflect.DeepEqual(h.apps[1].gens, []uint64{1, 2, 3, 4, 5, 6}) {
		t.Errorf("shard 1 applied %v, want all six generations", h.apps[1].gens)
	}
}

func TestFanoutRejoinAfterEvictionSnapshots(t *testing.T) {
	h := newHarness(t, 2, 4, nil) // tiny ring
	h.run(2)
	if err := h.fo.Kill(0); err != nil {
		t.Fatal(err)
	}
	h.run(10) // far past the 4-deep ring
	if err := h.fo.Rejoin(0); err != nil {
		t.Fatal(err)
	}
	st := h.fo.ShardStats()[0]
	if st.SnapshotResyncs != 1 {
		t.Errorf("SnapshotResyncs = %d, want 1", st.SnapshotResyncs)
	}
	if st.Applied != 12 {
		t.Errorf("applied = %d, want 12 (snapshot at head)", st.Applied)
	}
	if len(h.apps[0].snaps) != 1 || h.apps[0].snaps[0] != 12 {
		t.Errorf("applier snapshots = %v, want [12]", h.apps[0].snaps)
	}
}

// TestLogWindowAndRingStats holds the tier's generation log to the window
// the /diff mirror is answered from: DiffsFrom copies out the records after
// a cursor, rebases a cursor the log does not cover onto the retained
// window, and hands out copies the slots' refills cannot reach; RingStats
// counts capacity, fill and evictions, and no forced resync for a mirror.
func TestLogWindowAndRingStats(t *testing.T) {
	h := newHarness(t, 2, 8, nil)
	if rs := h.fo.RingStats(); rs != (RingStats{Capacity: 8}) {
		t.Fatalf("empty log: %+v", rs)
	}
	h.run(7)
	if rs := h.fo.RingStats(); rs.Length != 7 || rs.Evictions != 0 {
		t.Fatalf("before the wrap: %+v", rs)
	}
	early, from := h.fo.DiffsFrom(0)
	if from != 0 || len(early) != 7 {
		t.Fatalf("DiffsFrom(0) = %d records after %d, want 7 after 0", len(early), from)
	}
	same := func(stage string, recs []Record, first uint64) {
		t.Helper()
		for i, r := range recs {
			g := first + uint64(i)
			if want := h.diff(g).AppendRecord(constellation.DiffRecord{}); r.Generation != g || !reflect.DeepEqual(r.Diff, want) {
				t.Errorf("%s: record %d = %+v, want generation %d %+v", stage, i, r, g, want)
			}
		}
	}
	same("before the wrap", early, 1)

	h.run(10) // generations 10..17 retained
	rs := h.fo.RingStats()
	if rs.Length != 8 || rs.Evictions != 9 || rs.ForcedResyncs != 0 {
		t.Fatalf("after the wrap: %+v, want length 8, 9 evictions, no forced resync", rs)
	}
	for _, cur := range []uint64{0, 8, 18} { // evicted, and in the future
		recs, from := h.fo.DiffsFrom(cur)
		if from != 9 || len(recs) != 8 {
			t.Errorf("DiffsFrom(%d) = %d records after %d, want the window: 8 after 9", cur, len(recs), from)
		}
		same("rebased", recs, 10)
	}
	if recs, from := h.fo.DiffsFrom(15); from != 15 || len(recs) != 2 {
		t.Errorf("DiffsFrom(15) = %d records after %d, want 2 after 15", len(recs), from)
	}
	if recs, from := h.fo.DiffsFrom(17); from != 17 || len(recs) != 0 {
		t.Errorf("DiffsFrom(head) = %d records after %d, want none", len(recs), from)
	}
	// Generations 9..15 refilled the slots of 1..7 in place.
	same("copies taken before the refill", early, 1)
}

func TestFanoutDeadAgentRebalances(t *testing.T) {
	h := newHarness(t, 2, 64, func(c *Config) {
		c.DeadAfter = 4 * time.Second // two ticks
	})
	h.run(2)
	if err := h.fo.Kill(1); err != nil {
		t.Fatal(err)
	}
	h.run(1) // down 2s: not dead yet
	if st := h.fo.ShardStats()[1]; st.Dead || st.Rebalances != 0 {
		t.Fatalf("shard declared dead before DeadAfter elapsed: %+v", st)
	}
	h.run(2) // down 6s: dead, shard rebalanced to agent 0
	st := h.fo.ShardStats()[1]
	if !st.Dead {
		t.Fatal("shard not declared dead after DeadAfter")
	}
	if st.Rebalances != 1 || st.Owner != 0 || st.Epoch != 1 {
		t.Errorf("rebalance state = owner %d epoch %d rebalances %d, want 0/1/1", st.Owner, st.Epoch, st.Rebalances)
	}
	if err := h.fo.Rejoin(1); err == nil {
		t.Error("rejoin of a dead agent must error")
	}
	// The shard's machines keep running under the new owner: the
	// buffered generations replayed at rebalance and new frames flow.
	h.run(1)
	st = h.fo.ShardStats()[1]
	if st.Applied != 6 {
		t.Errorf("rebalanced shard applied = %d, want 6 (machines must not be lost)", st.Applied)
	}
	if st.FallbackApplies != 0 {
		t.Errorf("fallback applies = %d on a loopback run, want 0", st.FallbackApplies)
	}
	if got := h.fo.ShardStats()[0].Applied; got != 6 {
		t.Errorf("healthy shard applied = %d, want 6", got)
	}
	// Healthy shards never rebalance.
	if st0 := h.fo.ShardStats()[0]; st0.Rebalances != 0 || st0.Owner != 0 || st0.Epoch != 0 {
		t.Errorf("healthy shard ownership perturbed: %+v", st0)
	}
	if !reflect.DeepEqual(h.apps[1].gens, []uint64{1, 2, 3, 4, 5, 6}) {
		t.Errorf("shard 1 applied %v, want all six generations", h.apps[1].gens)
	}
	// No agent is attached to adopt the dead shard's remote stream, so it
	// goes unserved, and the barrier and the verification pass over it.
	if owner := h.fo.remoteOwner[1]; owner != -1 {
		t.Errorf("dead shard's remote owner = %d with no agent attached, want -1", owner)
	}
	if !h.fo.WaitRemotes(0) {
		t.Error("an unserved shard held the barrier")
	}
	if err := h.fo.VerifyRemotes(); err != nil {
		t.Error(err)
	}
}

func TestFanoutCoalesceCarriesDebt(t *testing.T) {
	h := newHarness(t, 2, 64, nil)
	h.run(2)
	h.tick(supervise.LevelCoalesce) // gen 3 coalesced on every shard
	h.tick(supervise.LevelCoalesce) // gen 4 too
	for i, a := range h.apps {
		if len(a.gens) != 2 {
			t.Fatalf("shard %d saw %d frames during coalesce, want 2 (pre-coalesce only)", i, len(a.gens))
		}
	}
	h.tick(supervise.LevelFull) // gen 5 settles the debt
	for i, a := range h.apps {
		last := a.flags[len(a.flags)-1]
		if last&FlagSweep == 0 || last&FlagInvalidate == 0 {
			t.Errorf("shard %d debt-settling frame flags = %08b, want sweep+invalidate", i, last)
		}
	}
	for _, st := range h.fo.ShardStats() {
		if st.Coalesced != 2 {
			t.Errorf("shard %d Coalesced = %d, want 2", st.Agent, st.Coalesced)
		}
		if st.Applied != 5 {
			t.Errorf("shard %d applied = %d, want 5 (coalesced frames still consume)", st.Agent, st.Applied)
		}
	}
}

func TestFanoutActivityOnlySweepsWithoutInvalidate(t *testing.T) {
	h := newHarness(t, 1, 64, nil)
	h.run(2)
	h.tick(supervise.LevelActivityOnly) // gen 3: node 3 flips, shard 0 owns all nodes
	a := h.apps[0]
	last := a.flags[len(a.flags)-1]
	if last&FlagSweep == 0 {
		t.Errorf("activity-only frame flags = %08b, want sweep", last)
	}
	if last&FlagInvalidate != 0 {
		t.Errorf("activity-only frame flags = %08b: invalidation must be withheld", last)
	}
	// The withheld invalidation is debt: the next full frame carries it.
	h.tick(supervise.LevelFull)
	last = a.flags[len(a.flags)-1]
	if last&FlagInvalidate == 0 {
		t.Errorf("post-degradation frame flags = %08b, want carried invalidate", last)
	}
	if st := h.fo.ShardStats()[0]; st.ActivityOnly != 1 {
		t.Errorf("ActivityOnly = %d, want 1", st.ActivityOnly)
	}
}

// TestFanoutDeterminism is the core promise: identical configuration and
// record streams produce identical counters, cursors and digest chains,
// fault injection and all.
func TestFanoutDeterminism(t *testing.T) {
	run := func() []ShardStats {
		h := newHarness(t, 3, 8, func(c *Config) {
			c.DropRate = 0.2
			c.DupRate = 0.2
			c.DelayRate = 0.2
			c.Delay = 3 * time.Second
			c.Retry = retry.Policy{MaxAttempts: 2, Initial: time.Millisecond, Multiplier: 2, Jitter: 0.25}
			c.DeadAfter = 30 * time.Second
		})
		h.run(5)
		h.fo.Kill(2)
		h.run(4)
		h.fo.Rejoin(2)
		h.run(11)
		h.fs.advance(h.fs.now.Add(time.Minute))
		h.fo.Converge()
		return h.fo.ShardStats()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
	if a[0].Digest == 0 || a[0].Digest == a[1].Digest {
		t.Errorf("shard digests suspicious: %016x vs %016x", a[0].Digest, a[1].Digest)
	}
}

// TestVirtualPlaneNeverReadsTheSource runs the loopback plane through every
// recovery it has — gaps under drop/dup/delay, a kill and rejoin inside the
// retention window, a kill past eviction, a DeadAfter rebalance, the final
// Converge — with a producer whose Snapshot fails the test. It is the
// wall-clock plane's: the virtual plane heals from the marks Advance left
// it, by replay where the cursor is retained and by snapshot where it is
// not.
func TestVirtualPlaneNeverReadsTheSource(t *testing.T) {
	h := newHarness(t, 3, 8, func(c *Config) {
		c.DropRate = 0.2
		c.DupRate = 0.2
		c.DelayRate = 0.2
		c.Delay = 3 * time.Second
		c.Retry = retry.Policy{MaxAttempts: 1}
		c.DeadAfter = 30 * time.Second
		c.Snapshot = func(shard int) (*Snapshot, error) {
			t.Errorf("virtual plane called Snapshot(%d)", shard)
			return nil, errors.New("not for the virtual plane")
		}
	})
	step := func(name string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	h.run(5)
	step("kill 0", h.fo.Kill(0))
	h.run(3) // inside the 8-deep window
	step("rejoin 0", h.fo.Rejoin(0))
	step("kill 1", h.fo.Kill(1))
	h.run(12) // past eviction
	step("rejoin 1", h.fo.Rejoin(1))
	step("kill 2", h.fo.Kill(2))
	h.run(20) // 40 s down: dead after 30, shard rebalanced
	h.fs.advance(h.fs.now.Add(time.Minute))
	h.fo.Converge()

	stats := h.fo.ShardStats()
	for _, st := range stats {
		if st.Applied != h.gen {
			t.Errorf("shard %d applied = %d, want head %d", st.Agent, st.Applied, h.gen)
		}
	}
	if stats[0].Resyncs == 0 || stats[0].Replayed < 3 {
		t.Errorf("shard 0 rejoined inside the window without a replay: %+v", stats[0])
	}
	if stats[1].SnapshotResyncs == 0 || len(h.apps[1].snaps) == 0 {
		t.Errorf("shard 1 rejoined past eviction without a snapshot: %+v", stats[1])
	}
	if !stats[2].Dead || stats[2].Rebalances != 1 || stats[2].SnapshotResyncs == 0 {
		t.Errorf("shard 2 was not rebalanced through a snapshot: %+v", stats[2])
	}
}

// TestDeferredDeliveryCopiesNoContent holds a deferred delivery to what it
// is — a queued header: with every frame delayed, a tick allocates the same
// whether its diff has one delta in one list or hundreds across all five.
func TestDeferredDeliveryCopiesNoContent(t *testing.T) {
	const runs, retention = 50, 4
	perTick := func(deltas int) float64 {
		h := newHarness(t, 2, retention, func(c *Config) {
			c.DelayRate = 1
			c.Delay = time.Second
		})
		h.run(2)
		// One diff serves every tick: Advance copies it into the log.
		var diff constellation.Diff
		for i := 0; i < deltas; i++ {
			n := i % testNodes
			diff.Added = append(diff.Added, constellation.LinkDelta{A: n, B: (n + 1) % testNodes, NewQ: int32(i)})
			if deltas > 1 {
				diff.Removed = append(diff.Removed, diff.Added[i])
				diff.DelayChanged = append(diff.DelayChanged, diff.Added[i])
				diff.Activated = append(diff.Activated, int32(n))
				diff.Deactivated = append(diff.Deactivated, int32(n))
			}
		}
		tick := func() {
			h.gen++
			h.fs.advance(time.Unix(0, 0).Add(time.Duration(h.gen) * h.res))
			h.src.push(h.gen, &diff, h.fo.Advance)
			if err := h.fo.Distribute(supervise.LevelFull); err != nil {
				t.Fatal(err)
			}
		}
		// Grow every slot of the log to this diff's size first: a slot
		// keeps its arrays, so the copy allocates only while they grow.
		for i := 0; i < retention; i++ {
			tick()
		}
		return testing.AllocsPerRun(runs, tick)
	}
	if small, large := perTick(1), perTick(400); small != large {
		t.Errorf("a tick of deferred deliveries allocates %v times for 1 delta, %v for 400 in every list", small, large)
	}
}

// TestOptionsValidate: New refuses options outside their ranges — the
// checks every embedder of Options (coordinator, scenario [hosts]) relies
// on instead of repeating them.
func TestOptionsValidate(t *testing.T) {
	if err := (Options{DropRate: 1, DupRate: 0.5, Delay: time.Second}).Validate(); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
	bad := map[string]Options{
		"rate above one":   {DupRate: 1.5},
		"negative rate":    {DelayRate: -0.1},
		"nan rate":         {DropRate: math.NaN()},
		"negative delay":   {Delay: -time.Millisecond},
		"negative dead":    {DeadAfter: -time.Second},
		"negative timeout": {WriteTimeout: -time.Second},
		"negative ring":    {Retention: -1},
		"bad retry":        {Retry: retry.Policy{Jitter: 2}},
	}
	for name, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("%s: accepted %+v", name, o)
		}
		h := &harness{fs: &fakeSim{now: time.Unix(0, 0)}, src: &memSource{}}
		_, err := New(Config{
			Shards: 1, ShardOf: func(int) int { return 0 }, Appliers: []Applier{&recApplier{t: t}},
			Now: h.fs.Now, After: h.fs.After, Snapshot: h.src.Snapshot,
			Options: o,
		})
		if err == nil {
			t.Errorf("%s: New accepted %+v", name, o)
		}
	}
}
