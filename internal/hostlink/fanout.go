package hostlink

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"celestial/internal/constellation"
	"celestial/internal/difflog"
	"celestial/internal/retry"
	"celestial/internal/rng"
	"celestial/internal/supervise"
)

// Defaults for the wall-clock knobs. DefaultHeartbeat doubles as the
// information service's SSE keepalive default so one setting sizes both
// follower channels.
const (
	DefaultHeartbeat    = 15 * time.Second
	DefaultWriteTimeout = 10 * time.Second
)

// DefaultRetention is how many generations the tier's log keeps unless
// Options.Retention says otherwise. At the paper's 1 s update resolution
// this covers about a minute of history; a follower that falls further
// behind resyncs from a snapshot.
const DefaultRetention = 64

// Record is one retained generation: the monotonic generation an update
// produced and a retainable copy of its diff. It is the one pairing of the
// two outside a DiffFrame — the record half of a slot in the tier's
// generation log, what DiffsFrom hands the information service's /diff
// mirror, and the decoded form of a binary /diff stream frame.
type Record struct {
	Generation uint64
	Diff       constellation.DiffRecord
}

// Applier consumes a shard's frame stream. A loopback applier
// (Config.Appliers) translates policy flags into path invalidation and
// machine-activity sweeps on the in-process hosts, and is handed header-only
// values: a DiffFrame carrying Agent, Generation, Flags and Full, a Snapshot
// carrying Agent, Generation and Digest — the shape a Propose gives a remote
// agent's engine. Only a Replica, fed from the wire, receives content and
// rebuilds shard state from it.
type Applier interface {
	ApplySnapshot(s *Snapshot) error
	ApplyDiff(f *DiffFrame) error
}

// Config wires a Fanout to its producer. All callbacks are required
// unless noted.
type Config struct {
	// Shards is the fan-out width; ShardOf maps a constellation node ID
	// to its owning shard, in [0, Shards), and must be a pure lookup: it
	// is called with the tier's lock held, once per link endpoint and
	// activity flip of every generation.
	// Machines[i] is shard i's machine count (status/report only).
	Shards   int
	ShardOf  func(node int) int
	Machines []int

	// Appliers[i] is shard i's loopback applier.
	Appliers []Applier

	// Now and After are the virtual clock: Now reads the simulation
	// time, After schedules a callback on the simulation goroutine.
	// They drive delayed-frame delivery and dead-agent detection, so
	// frame faults stay deterministic scenario events.
	Now   func() time.Time
	After func(d time.Duration, fn func()) error

	// Snapshot builds a shard's full state at the producer's newest
	// generation: the resync document of a remote agent whose cursor the
	// tier's log no longer covers, exactly like a /diff client's. It is
	// the one producer callback of the wall-clock plane, called from
	// remote writer goroutines without fo.mu held; the virtual plane heals
	// from its marks and never calls it. Everything else a writer sends
	// comes from the tier's own log, and when a generation reaches the
	// wire is the tier's decision: a writer hears of it from Distribute.
	Snapshot func(shard int) (*Snapshot, error)

	// Options are the tier's settable options, declared once below.
	Options
}

// Options are the fan-out tier's settable options: the one declaration
// Config, coordinator.FanoutOptions and the scenario [hosts] table embed,
// so a value set in a scenario file reaches New without being re-spelled.
// The zero value is a fault-free tier with default retention and timeouts.
// The per-shard degradation ladder has no option: it runs on the supervise
// package's fixed rungs.
type Options struct {
	// Retention is how many generations the tier's log keeps: how far a
	// loopback shard, a remote agent or a /diff client may fall behind
	// and still catch up by replay instead of a snapshot, at the cost of
	// retained diff memory. Zero means DefaultRetention.
	Retention int

	// Retry is the wire-send retry policy (virtual backoff); Seed feeds
	// the per-shard jitter and fault-injection streams. DropRate,
	// DupRate and DelayRate inject frame loss, duplication and delay
	// (by Delay) into loopback sends — seeded on the virtual clock, so
	// they are deterministic scenario events, not wall-clock noise.
	Retry     retry.Policy
	Seed      int64
	DropRate  float64
	DupRate   float64
	DelayRate float64
	Delay     time.Duration

	// DeadAfter declares a down agent permanently dead after this much
	// virtual time; its shard is then rebalanced to a surviving agent
	// (or the coordinator's loopback) instead of failing its machines.
	// Zero disables the dead path.
	DeadAfter time.Duration

	// Heartbeat and WriteTimeout are wall-clock knobs for remote
	// connections; zero means the package defaults.
	Heartbeat    time.Duration
	WriteTimeout time.Duration

	// Token, when non-empty, is the bearer token remote agents must
	// present in their Hello frame; plaintext loopback runs leave it
	// empty.
	Token string
}

// Validate reports the first option outside its range: rates are
// probabilities, everything else is non-negative.
func (o Options) Validate() error {
	prob := func(v float64) bool { return v >= 0 && v <= 1 }
	switch {
	case !prob(o.DropRate) || !prob(o.DupRate) || !prob(o.DelayRate):
		return fmt.Errorf("hostlink: frame fault rate outside [0, 1] (drop %v, dup %v, delay %v)", o.DropRate, o.DupRate, o.DelayRate)
	case o.Retention < 0:
		return fmt.Errorf("hostlink: negative retention %d", o.Retention)
	case o.Delay < 0 || o.DeadAfter < 0 || o.Heartbeat < 0 || o.WriteTimeout < 0:
		return fmt.Errorf("hostlink: negative duration (delay %v, dead-after %v, heartbeat %v, write timeout %v)",
			o.Delay, o.DeadAfter, o.Heartbeat, o.WriteTimeout)
	}
	return o.Retry.Validate()
}

// ShardStats is one shard's deterministic delivery counters — everything
// here is a pure function of the scenario (seeded faults, scripted
// kill/rejoin, virtual clock) and safe to include in the run report.
type ShardStats struct {
	Agent    int `json:"agent"`
	Machines int `json:"machines"`
	// Frames counts generations offered to the shard; Applied is the
	// shard's consumed cursor; Digest is the shard's coordinator-side
	// chain digest at the newest generation (the value a fully caught-up
	// replica must ack).
	Frames  int    `json:"frames"`
	Applied uint64 `json:"applied"`
	Digest  uint64 `json:"digest"`
	// Coalesced and ActivityOnly count frames handled at a degraded
	// ladder rung.
	Coalesced    int `json:"coalesced"`
	ActivityOnly int `json:"activity_only"`
	// Dropped counts frames lost after the retry policy gave up;
	// Duplicated injected duplicates (discarded on delivery); Delayed
	// frames that arrived late.
	Dropped    int `json:"dropped"`
	Duplicated int `json:"duplicated"`
	Delayed    int `json:"delayed"`
	// Buffered counts generations skipped while the agent was down
	// (retained in the ring); Replayed frames recovered from the ring;
	// Resyncs ring replays (gap recovery and rejoins);
	// SnapshotResyncs full-state resyncs after ring eviction.
	Buffered        int `json:"buffered"`
	Replayed        int `json:"replayed"`
	Resyncs         int `json:"resyncs"`
	SnapshotResyncs int `json:"snapshot_resyncs"`
	// Killed/Rejoined count scripted agent-kill/agent-rejoin events;
	// Dead is set when the agent was declared permanently dead.
	Killed   int  `json:"killed"`
	Rejoined int  `json:"rejoined"`
	Down     bool `json:"down"`
	Dead     bool `json:"dead"`
	// Owner is the agent currently applying this shard (its own agent
	// until a rebalance; -1 means the coordinator's loopback); Epoch
	// counts ownership changes and Rebalances dead-agent reassignments.
	Owner      int    `json:"owner"`
	Epoch      uint64 `json:"epoch"`
	Rebalances int    `json:"rebalances"`
	// FallbackApplies counts generations the coordinator applied locally
	// because a remote agent's proposal timed out or its result digest
	// mismatched — zero whenever remotes keep up.
	FallbackApplies int `json:"fallback_applies"`
	// Escalations/Recoveries are the follower ladder's rung moves.
	Escalations int `json:"escalations"`
	Recoveries  int `json:"recoveries"`
	// ApplyErrors counts frames whose loopback application failed.
	ApplyErrors int `json:"apply_errors"`
}

// shard is one agent's coordinator-side delivery state.
type shard struct {
	id      int
	applier Applier
	ladder  *supervise.Follower

	// retryRnd jitters wire-send backoff; faultRnd draws frame faults.
	// Both are per-shard streams so shard layouts do not perturb each
	// other. rndFn is retryRnd.Float64 bound once (retry.Do takes a
	// func; binding per send would allocate).
	retryRnd *rng.Stream
	faultRnd *rng.Stream
	rndFn    func() float64
	sendOp   func() error

	// scratch is the shard's view of the newest generation, built by
	// Advance to fold the digest chain and reused across ticks; next is
	// what Distribute delivers of it.
	scratch DiffFrame
	next    offer

	applied uint64 // consumed cursor
	chain   uint64 // digest chain at head (coordinator side)
	level   supervise.Level

	// pendingInvalidate/pendingActivity carry coalesced debt exactly
	// like the coordinator's former global flags, per shard.
	pendingInvalidate bool
	pendingActivity   bool

	// queue holds deferred offers (delay faults) in arrival order.
	queue []queuedOffer

	down      bool
	dead      bool
	downSince time.Time

	// owner is the agent applying this shard on the virtual plane (its
	// own id until a rebalance, -1 for the coordinator's loopback);
	// epoch counts ownership changes.
	owner int
	epoch uint64

	stats      ShardStats
	retryStats retry.Stats
	lastErr    error
}

// offer is what the virtual plane delivers of one generation to one shard:
// everything the degradation policy reads and nothing else. content is the
// shard's FlagChanged|FlagActivity; the diff's lists stay with the producer
// and the wire.
type offer struct {
	gen     uint64
	content uint8
	full    bool
}

type queuedOffer struct {
	o   offer
	due time.Time
}

// Fanout is the coordinator-side fan-out tier: it owns per-shard delivery
// state, steps each generation's offer through the loopback appliers on the
// simulation goroutine (the virtual plane), and (optionally) serves the
// generations' content to remote agents over TCP (the wall-clock plane).
type Fanout struct {
	cfg    Config
	shards []*shard
	// level is the global watchdog rung for the generation currently
	// being distributed; the effective per-shard level is the max of it
	// and the shard ladder's rung.
	level supervise.Level

	// mu guards the generation log and the remote bookkeeping — state
	// shared with remote writer goroutines and the information service.
	// Loopback delivery state is owned by the simulation goroutine and
	// needs no lock.
	mu sync.Mutex
	// log is the tier's generation log, the one retained window of the
	// update stream: Advance fills a slot in place with the generation's
	// record and marks, and recordResult completes its marks. The virtual
	// plane replays gaps from it, remote writers stream from it, and the
	// information service's /diff mirror copies from it (DiffsFrom).
	// forcedResyncs counts remote writers that found their cursor evicted
	// and sent their agent back to a snapshot.
	log           *difflog.Log[generation]
	forcedResyncs uint64
	// published is the generation Distribute last delivered: the one head
	// of the wall-clock plane, read by the remote writers, the barrier and
	// VerifyRemotes. A writer hears of a generation only once its loopback
	// results are recorded, so no proposal finds its result missing.
	published uint64
	// woken is the UpdateChan channel the last Advance superseded: open
	// until publish closes it, so the tier's readers wake once the
	// generation is out, not in the middle of the tick boundary.
	woken chan struct{}

	// remotes[agent] is the agent's attached connection, nil while none is
	// (serveConn admits agent IDs in [0, Shards) only).
	remotes   []*remote
	ackNotify chan struct{}
	closed    bool
	// remoteOwner[shard] is the agent serving the shard's remote stream
	// (wall-clock plane, identity while every agent is attached);
	// remoteEpoch counts reassignments and deadShard marks shards whose
	// agent died on the virtual plane (never reclaimable). fallback is
	// the commit protocol's wall-clock counter, indexed by shard.
	remoteOwner []int
	remoteEpoch []uint64
	deadShard   []bool
	fallback    []int
	// statsSnap is the per-tick copy of the shard counters published for
	// concurrent readers (the /agents endpoint); the live counters are
	// owned by the simulation goroutine.
	statsSnap []ShardStats
}

// generation is one slot of the tier's log: the producer's record, and
// marks[shard] for every shard. Both are refilled in place when the slot
// is handed out again, so nothing of them leaves fo.mu uncopied.
type generation struct {
	Record
	marks []shardMark
}

// shardMark is one shard's record of one generation: its offer, the
// digest chain after folding the generation's frame and, once the
// loopback engine applied it, the engine's commit digest and the
// effective policy flags it executed. flags is never zero for a recorded
// result, so flags == 0 reads "nothing was applied for this generation".
type shardMark struct {
	offer
	chain  uint64
	result uint64
	flags  uint8
}

var errFrameDropped = errors.New("hostlink: injected frame drop")

// New builds a Fanout whose generation log retains cfg.Retention
// generations. One log answers every cursor — a loopback shard's, a remote
// agent's and, through DiffsFrom, a /diff client's — so all of them replay
// or snapshot at the same point.
func New(cfg Config) (*Fanout, error) {
	if cfg.Shards <= 0 {
		return nil, fmt.Errorf("hostlink: %d shards", cfg.Shards)
	}
	if len(cfg.Appliers) != cfg.Shards {
		return nil, fmt.Errorf("hostlink: %d appliers for %d shards", len(cfg.Appliers), cfg.Shards)
	}
	if cfg.ShardOf == nil || cfg.Now == nil || cfg.After == nil || cfg.Snapshot == nil {
		return nil, errors.New("hostlink: missing required callback")
	}
	if err := cfg.Options.Validate(); err != nil {
		return nil, err
	}
	if cfg.Retention == 0 {
		cfg.Retention = DefaultRetention
	}
	if cfg.Heartbeat == 0 {
		cfg.Heartbeat = DefaultHeartbeat
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = DefaultWriteTimeout
	}
	fo := &Fanout{
		cfg:         cfg,
		shards:      make([]*shard, cfg.Shards),
		log:         difflog.New[generation](cfg.Retention),
		remotes:     make([]*remote, cfg.Shards),
		ackNotify:   make(chan struct{}),
		remoteOwner: make([]int, cfg.Shards),
		remoteEpoch: make([]uint64, cfg.Shards),
		deadShard:   make([]bool, cfg.Shards),
		fallback:    make([]int, cfg.Shards),
	}
	for i := 0; i < cfg.Shards; i++ {
		s := &shard{
			id:       i,
			owner:    i,
			applier:  cfg.Appliers[i],
			ladder:   supervise.NewFollower(),
			retryRnd: rng.New(rng.Derive(cfg.Seed, uint64(i))),
			faultRnd: rng.New(rng.Derive(cfg.Seed, uint64(i)+0x10000)),
			chain:    ChainSeed,
		}
		fo.remoteOwner[i] = i
		s.rndFn = s.retryRnd.Float64
		drop, rnd := cfg.DropRate, s.faultRnd
		if drop > 0 {
			s.sendOp = func() error {
				if rnd.Float64() < drop {
					return retry.Transient(errFrameDropped)
				}
				return nil
			}
		} else {
			s.sendOp = sendOK
		}
		if i < len(cfg.Machines) {
			s.stats.Machines = cfg.Machines[i]
		}
		fo.shards[i] = s
	}
	return fo, nil
}

func sendOK() error { return nil }

// Shards returns the fan-out width.
func (fo *Fanout) Shards() int { return fo.cfg.Shards }

// Advance retains one new generation and folds it into every shard's
// digest chain. It fills the log's next slot in place: a copy of d, whose
// backing arrays the slot reuses from the generation it evicts, and one
// mark per shard — the offer the virtual plane delivers and replays, the
// digest remote writers verify acks against. The producer must call it for
// every generation, in order, on the simulation goroutine, and then
// Distribute, whose publish closes the UpdateChan channel Advance replaced.
// One pass over the record buckets it into every shard's view
// (bucketViews), and each shard's chain is folded from its own view: O(Δ)
// in all, so it runs inline. That is microseconds at P1 and ~1.7 ms at
// Gen2, where the coordinator runs it beside the next tick's prepare,
// which has the other core; fanning it out to workers would wake idle
// threads in the middle of the tick boundary to compete with that prepare.
func (fo *Fanout) Advance(gen uint64, d *constellation.Diff) {
	fo.mu.Lock()
	defer fo.mu.Unlock()
	g, woken := fo.log.AppendDeferred(gen)
	if fo.woken != nil {
		close(fo.woken) // the previous generation was never published
	}
	fo.woken = woken
	g.Generation = gen
	g.Diff = d.AppendRecord(g.Diff)
	fo.bucketViews(&g.Record)
	for _, s := range fo.shards {
		s.scratch.setFlags(&g.Record)
		s.chain = FoldDiff(s.chain, &s.scratch)
		s.next = offer{gen: gen, content: s.scratch.Flags, full: d.Full}
	}
	if g.marks == nil {
		g.marks = make([]shardMark, len(fo.shards))
	}
	for _, s := range fo.shards {
		g.marks[s.id] = shardMark{offer: s.next, chain: s.chain}
	}
}

// bucketViews fills every shard's scratch with its view of rec — the lists
// buildFrameInto would filter for it, in the same order — in one pass over
// rec: ShardOf is asked once per endpoint, a link whose endpoints live on
// two shards goes into both buckets, and an activity flip into its owner's.
// The flags are left to setFlags.
func (fo *Fanout) bucketViews(rec *Record) {
	for _, s := range fo.shards {
		s.scratch.resetView(rec)
	}
	of := fo.cfg.ShardOf
	for k, deltas := range [...][]constellation.LinkDelta{rec.Diff.Added, rec.Diff.Removed, rec.Diff.DelayChanged} {
		for _, l := range deltas {
			a, b := of(l.A), of(l.B)
			v := linkList(&fo.shards[a].scratch.DiffRecord, k)
			*v = append(*v, l)
			if b != a {
				v = linkList(&fo.shards[b].scratch.DiffRecord, k)
				*v = append(*v, l)
			}
		}
	}
	for _, id := range rec.Diff.Activated {
		v := &fo.shards[of(int(id))].scratch
		v.Activated = append(v.Activated, id)
	}
	for _, id := range rec.Diff.Deactivated {
		v := &fo.shards[of(int(id))].scratch
		v.Deactivated = append(v.Deactivated, id)
	}
}

// linkList returns the k-th of a record's link lists: Added, Removed,
// DelayChanged.
func linkList(r *constellation.DiffRecord, k int) *[]constellation.LinkDelta {
	switch k {
	case 0:
		return &r.Added
	case 1:
		return &r.Removed
	default:
		return &r.DelayChanged
	}
}

// markAt returns shard's mark of one generation, if the log still holds
// it. Callers hold fo.mu.
func (fo *Fanout) markAt(shard int, gen uint64) (shardMark, bool) {
	g, ok := fo.log.At(gen)
	if !ok {
		return shardMark{}, false
	}
	return g.marks[shard], true
}

// UpdateChan returns a channel that is closed once the next generation is
// published: Advance replaces it, and Distribute closes it. Grab the
// channel, re-check the producer's generation, then block: Advance runs
// in the producer's critical section that advances the generation, so an
// update cannot fall between the two reads unseen. The channel is the same
// exactly as long as nothing was appended (see difflog.Log.Wait).
func (fo *Fanout) UpdateChan() <-chan struct{} {
	fo.mu.Lock()
	defer fo.mu.Unlock()
	return fo.log.Wait()
}

// DiffsFrom copies out the records a mirror of the log is missing (the
// information service's frame cache): a cursor the log cannot replay
// yields the whole retained window instead of a refusal — see
// difflog.Log.Tail, whose precondition holds because Advance only ever
// appends the producer's next generation. It counts no forced resync; a
// mirror that rebases is not a client that fell behind. The records are
// deep copies, safe to retain and serialize without a lock.
func (fo *Fanout) DiffsFrom(cursor uint64) (recs []Record, from uint64) {
	fo.mu.Lock()
	defer fo.mu.Unlock()
	gens, from := fo.log.Tail(cursor)
	recs = make([]Record, len(gens))
	for i, g := range gens {
		recs[i] = Record{Generation: g.Generation, Diff: g.Diff.Clone()}
	}
	return recs, from
}

// RingStats describes the tier's generation log: its capacity, current
// fill, how many retained generations newer ones evicted, and how many
// clients' cursors missed the window and were sent back to full state.
type RingStats struct {
	Capacity      int    `json:"capacity"`
	Length        int    `json:"length"`
	Evictions     uint64 `json:"evictions"`
	ForcedResyncs uint64 `json:"forced_resyncs"`
}

// RingStats returns the log's counters. Capacity, length and evictions are
// a deterministic function of the run; ForcedResyncs counts remote agents
// whose writer found the cursor evicted — wall-clock behavior, kept out of
// the run report. A loopback shard that resyncs from a snapshot is counted
// in its own ShardStats.SnapshotResyncs instead.
func (fo *Fanout) RingStats() RingStats {
	fo.mu.Lock()
	defer fo.mu.Unlock()
	return RingStats{
		Capacity:      fo.log.Cap(),
		Length:        fo.log.Len(),
		Evictions:     fo.log.Evictions(),
		ForcedResyncs: fo.forcedResyncs,
	}
}

// buildFrameInto fills dst with the shard's view of rec, reusing dst's
// slices: the scalar fields verbatim, the five lists filtered. Link deltas
// are scoped by their endpoints (either side's host programs a shaper);
// activity flips by ownership. It is the one-shard filter remote writers
// replay the log with; Advance builds the same views for every shard at
// once (bucketViews).
func (fo *Fanout) buildFrameInto(dst *DiffFrame, shard int, rec *Record) {
	of := fo.cfg.ShardOf
	dst.resetView(rec)
	view := &dst.DiffRecord
	view.Added = appendViewLinks(view.Added, rec.Diff.Added, of, shard)
	view.Removed = appendViewLinks(view.Removed, rec.Diff.Removed, of, shard)
	view.DelayChanged = appendViewLinks(view.DelayChanged, rec.Diff.DelayChanged, of, shard)
	view.Activated = appendViewIDs(view.Activated, rec.Diff.Activated, of, shard)
	view.Deactivated = appendViewIDs(view.Deactivated, rec.Diff.Deactivated, of, shard)
	dst.setFlags(rec)
}

// resetView makes f an empty view of rec: rec's generation and scalar
// fields, and f's own five lists truncated for reuse.
func (f *DiffFrame) resetView(rec *Record) {
	view := &f.DiffRecord
	added, removed, changed := view.Added[:0], view.Removed[:0], view.DelayChanged[:0]
	activated, deactivated := view.Activated[:0], view.Deactivated[:0]
	*view = rec.Diff
	view.Added, view.Removed, view.DelayChanged = added, removed, changed
	view.Activated, view.Deactivated = activated, deactivated
	f.Generation = rec.Generation
}

// setFlags sets the content flags of f, a filled view of rec.
// FlagChanged is global — a link changing anywhere can move any path's
// latency — while FlagActivity is per-shard.
func (f *DiffFrame) setFlags(rec *Record) {
	f.Flags = 0
	if !rec.Diff.Empty() {
		f.Flags |= FlagChanged
	}
	if len(f.Activated) > 0 || len(f.Deactivated) > 0 {
		f.Flags |= FlagActivity
	}
}

func appendViewLinks(dst, deltas []constellation.LinkDelta, shardOf func(int) int, shard int) []constellation.LinkDelta {
	for _, d := range deltas {
		if shardOf(d.A) == shard || shardOf(d.B) == shard {
			dst = append(dst, d)
		}
	}
	return dst
}

func appendViewIDs(dst, ids []int32, shardOf func(int) int, shard int) []int32 {
	for _, id := range ids {
		if shardOf(int(id)) == shard {
			dst = append(dst, id)
		}
	}
	return dst
}

// Distribute delivers the generation prepared by the last Advance call to
// every shard's loopback applier, under the per-shard fault pipeline and
// degradation ladder, then publishes it to the remote writers. level is
// the global watchdog rung for this tick. Must run on the simulation
// goroutine, after Advance.
func (fo *Fanout) Distribute(level supervise.Level) error {
	fo.level = level
	now := fo.cfg.Now()
	var errs []error
	for _, s := range fo.shards {
		s.stats.Frames++
		if s.down {
			s.stats.Buffered++
			fo.maybeDead(s, now)
			continue
		}
		// Lag before this frame: generations produced but not consumed.
		lag := int(s.next.gen - 1 - s.applied)
		if lag < 0 {
			lag = 0
		}
		s.level = s.ladder.Observe(lag)
		if err := fo.send(s, s.next); err != nil {
			errs = append(errs, err)
		}
	}
	fo.publish()
	return errors.Join(errs...)
}

// publish copies the shard counters under fo.mu for concurrent status
// readers, makes the generation Advance last marked the published head,
// and wakes the remote writers, the barrier and the UpdateChan waiters —
// after releasing fo.mu, which the woken readers take first. The slice is
// reused; after warmup this is copy-only.
func (fo *Fanout) publish() {
	fo.mu.Lock()
	if fo.statsSnap == nil {
		fo.statsSnap = make([]ShardStats, len(fo.shards))
	}
	for i, s := range fo.shards {
		fo.statsSnap[i] = s.counters(fo.fallback[i])
	}
	fo.published = fo.log.Head()
	woken := fo.woken
	fo.woken = nil
	fo.mu.Unlock()
	if woken != nil {
		close(woken)
	}
	fo.wakeAcks()
}

// counters returns the shard's delivery counters as they stand, completed
// with the state kept beside them. fallback is the commit protocol's count
// for the shard, which lives under fo.mu.
func (s *shard) counters(fallback int) ShardStats {
	st := s.stats
	st.Agent = s.id
	st.Applied = s.applied
	st.Digest = s.chain
	st.Owner = s.owner
	st.Epoch = s.epoch
	st.FallbackApplies = fallback
	ls := s.ladder.Stats()
	st.Escalations = ls.Escalations
	st.Recoveries = ls.Recoveries
	return st
}

// send runs the wire-send fault pipeline for one offer: drop injection
// under the retry policy (virtual backoff), then delay and duplicate
// draws, then delivery or enqueueing.
func (fo *Fanout) send(s *shard, o offer) error {
	res := retry.Do(fo.cfg.Retry, s.rndFn, s.sendOp)
	s.retryStats.Record(res)
	if res.Err != nil {
		// The offer is lost; the gap is healed from the log when
		// the next one lands.
		s.stats.Dropped++
		return nil
	}
	delayed := false
	if fo.cfg.DelayRate > 0 && s.faultRnd.Float64() < fo.cfg.DelayRate {
		delayed = true
		s.stats.Delayed++
	}
	dup := fo.cfg.DupRate > 0 && s.faultRnd.Float64() < fo.cfg.DupRate
	ship := func() error {
		switch {
		case delayed:
			return fo.defer_(s, o, fo.cfg.Delay)
		case len(s.queue) > 0:
			// Order behind offers still in flight.
			return fo.defer_(s, o, 0)
		}
		fo.deliver(s, o)
		return nil
	}
	err := ship()
	if dup {
		// The duplicate ships on the same schedule; delivery discards it
		// by cursor.
		s.stats.Duplicated++
		err = errors.Join(err, ship())
	}
	return err
}

// defer_ schedules an offer for later delivery on the simulation clock.
func (fo *Fanout) defer_(s *shard, o offer, d time.Duration) error {
	s.queue = append(s.queue, queuedOffer{o: o, due: fo.cfg.Now().Add(d)})
	return fo.cfg.After(d, func() {
		fo.drain(s, false)
	})
}

// drain delivers the shard's queued offers in arrival order: those whose
// due time has arrived, or with all set (the end-of-run settlement) every
// one of them. A down shard has none: Kill empties the queue and nothing
// is sent to a shard that is down.
func (fo *Fanout) drain(s *shard, all bool) {
	now := fo.cfg.Now()
	for len(s.queue) > 0 && (all || !s.queue[0].due.After(now)) {
		o := s.queue[0].o
		s.queue = s.queue[1:]
		fo.deliver(s, o)
	}
}

// deliver hands one offer to the shard pipeline: duplicates are discarded
// by cursor, gaps healed from the log, in-order offers applied
// under the shard's effective degradation level.
func (fo *Fanout) deliver(s *shard, o offer) {
	switch {
	case o.gen <= s.applied:
		return // duplicate or superseded by a resync
	case o.gen != s.applied+1:
		fo.resync(s)
	default:
		fo.applyFrame(s, o)
		s.applied = o.gen
	}
}

// resync brings a shard that is behind head up to it: replay the retained
// offers after its cursor, or adopt a snapshot when the log has evicted
// the cursor — difflog's cursor table on the one log every follower reads,
// so the choice is the one a /diff client at that cursor gets. A shard
// already at head is left alone.
func (fo *Fanout) resync(s *shard) {
	fo.mu.Lock()
	head := fo.log.Head()
	gens, ok := fo.log.Since(s.applied)
	// The log's slots are refilled in place; copy this shard's offers out
	// from under the lock, which applyFrame's recordResult takes again.
	offers := make([]offer, len(gens))
	for i, g := range gens {
		offers[i] = g.marks[s.id].offer
	}
	m, _ := fo.markAt(s.id, head)
	fo.mu.Unlock()
	if s.applied == head {
		return
	}
	if ok {
		s.stats.Resyncs++
		for _, o := range offers {
			fo.applyFrame(s, o)
			s.applied = o.gen
			s.stats.Replayed++
		}
		return
	}
	// The log no longer covers the cursor: full-state resync, exactly
	// like a /diff client that fell too far behind. A loopback applier's
	// state is the producer's own, so the snapshot is its header.
	s.stats.SnapshotResyncs++
	snap := &Snapshot{Agent: int32(s.id), Generation: head, Digest: m.chain}
	if err := s.applier.ApplySnapshot(snap); err != nil {
		s.stats.ApplyErrors++
		s.lastErr = err
		return
	}
	fo.recordResult(s, head, FlagInvalidate|FlagSweep)
	// A snapshot is authoritative: all carried debt is settled by it.
	s.applied = head
	s.pendingInvalidate = false
	s.pendingActivity = false
}

// recordResult completes one generation's mark with the loopback apply
// result — the digest a remote agent's Applied frame for that generation
// must match.
func (fo *Fanout) recordResult(s *shard, gen uint64, flags uint8) {
	ra, ok := s.applier.(ResultApplier)
	if !ok {
		return
	}
	res := ra.LastResult()
	fo.mu.Lock()
	if g, ok := fo.log.At(gen); ok {
		m := &g.marks[s.id]
		m.result, m.flags = res.Digest, flags
	}
	fo.mu.Unlock()
}

// applyFrame runs the per-shard degradation policy — the sharded version
// of the coordinator's former global distribute step — over one offer and
// hands the applier the generation's header with the policy flags set.
func (fo *Fanout) applyFrame(s *shard, o offer) {
	level := s.level
	if fo.level > level {
		level = fo.level
	}
	needInvalidate := o.content&FlagChanged != 0 || s.pendingInvalidate
	needActivity := o.content&FlagActivity != 0 || o.full || s.pendingActivity
	var policy uint8
	if level >= supervise.LevelCoalesce {
		s.pendingInvalidate = needInvalidate
	} else if needInvalidate {
		policy |= FlagInvalidate
		s.pendingInvalidate = false
	}
	switch {
	case level == supervise.LevelCoalesce:
		s.pendingActivity = needActivity
		s.stats.Coalesced++
	case needActivity:
		policy |= FlagSweep
		s.pendingActivity = false
	case o.content&FlagChanged != 0 && level < supervise.LevelCoalesce:
		policy |= FlagNote
	}
	if level == supervise.LevelActivityOnly {
		s.stats.ActivityOnly++
	}
	if policy == 0 {
		return // nothing to do this generation
	}
	defer fo.recordResult(s, o.gen, policy)
	f := DiffFrame{Agent: int32(s.id), Generation: o.gen, Flags: o.content | policy}
	f.Full = o.full
	if err := s.applier.ApplyDiff(&f); err != nil {
		s.stats.ApplyErrors++
		s.lastErr = err
		if policy&FlagSweep != 0 {
			// The sweep did not complete; carry it so the next frame
			// converges the shard.
			s.pendingActivity = true
		}
	}
}

// Converge drains every live shard's in-flight offers and heals cursor
// gaps from the log — the end-of-run settlement, so an offer lost on
// the final generation cannot leave a shard behind head in the report.
// Must run on the simulation goroutine after the last Distribute.
func (fo *Fanout) Converge() {
	for _, s := range fo.shards {
		if s.down {
			continue
		}
		fo.drain(s, true)
		fo.resync(s)
	}
	fo.publish()
}

// maybeDead promotes a down shard to permanently dead once DeadAfter
// virtual time has passed, then rebalances its shard to a surviving
// agent (or the coordinator's loopback) instead of failing its machines.
func (fo *Fanout) maybeDead(s *shard, now time.Time) {
	if fo.cfg.DeadAfter <= 0 || s.dead || !s.down {
		return
	}
	if now.Sub(s.downSince) < fo.cfg.DeadAfter {
		return
	}
	s.dead = true
	s.stats.Dead = true
	s.queue = nil
	fo.rebalance(s)
}

// rebalance reassigns a dead agent's shard: the shard's machines keep
// running, applied under a new owner. Deterministic — the new owner is
// the lowest surviving agent (or -1, the coordinator's loopback), and
// the catch-up resync replays the ring exactly like a rejoin. Must run
// on the simulation goroutine.
func (fo *Fanout) rebalance(s *shard) {
	s.down = false
	s.stats.Down = false
	s.owner = fo.survivorFor(s.id)
	s.epoch++
	s.stats.Rebalances++
	// The wall-clock plane follows: the dead agent's remote stream (if
	// any) moves to an attached survivor and can never be reclaimed.
	fo.mu.Lock()
	fo.deadShard[s.id] = true
	fo.reassignRemoteLocked(s.id)
	fo.mu.Unlock()
	fo.wakeAcks()
	// Heal the generations buffered while the agent was down, exactly
	// like a rejoin: replay, snapshot past eviction.
	fo.resync(s)
}

// survivorFor picks the lowest live agent other than shard, or -1 when
// none survives (the coordinator's loopback applies the shard itself).
func (fo *Fanout) survivorFor(shard int) int {
	for _, c := range fo.shards {
		if c.id != shard && !c.dead {
			return c.id
		}
	}
	return -1
}

// Kill marks an agent down (a scripted agent-kill event): its frames
// buffer against the retention ring until it rejoins or is declared dead.
func (fo *Fanout) Kill(agent int) error {
	s, err := fo.shardByID(agent)
	if err != nil {
		return err
	}
	if s.dead {
		return fmt.Errorf("hostlink: agent %d is dead", agent)
	}
	if s.down {
		return fmt.Errorf("hostlink: agent %d is already down", agent)
	}
	s.down = true
	s.stats.Down = true
	s.downSince = fo.cfg.Now()
	// In-flight frames die with the connection.
	s.queue = nil
	s.stats.Killed++
	return nil
}

// Rejoin brings a down agent back (a scripted agent-rejoin event) and
// resyncs it exactly like a reconnecting /diff client: ring replay when
// its cursor is still retained, full snapshot otherwise.
func (fo *Fanout) Rejoin(agent int) error {
	s, err := fo.shardByID(agent)
	if err != nil {
		return err
	}
	if s.dead {
		return fmt.Errorf("hostlink: agent %d is dead and cannot rejoin", agent)
	}
	if !s.down {
		return fmt.Errorf("hostlink: agent %d is not down", agent)
	}
	s.down = false
	s.stats.Down = false
	s.stats.Rejoined++
	fo.resync(s)
	return nil
}

func (fo *Fanout) shardByID(agent int) (*shard, error) {
	if agent < 0 || agent >= len(fo.shards) {
		return nil, fmt.Errorf("hostlink: agent %d out of range [0, %d)", agent, len(fo.shards))
	}
	return fo.shards[agent], nil
}

// ShardStats returns every shard's deterministic delivery counters, in
// shard order. Must be called from the simulation goroutine (or with it
// quiescent).
func (fo *Fanout) ShardStats() []ShardStats {
	out := make([]ShardStats, len(fo.shards))
	fo.mu.Lock()
	defer fo.mu.Unlock()
	for i, s := range fo.shards {
		out[i] = s.counters(fo.fallback[i])
	}
	return out
}

// RetryStats aggregates the wire-send retry counters across shards.
func (fo *Fanout) RetryStats() retry.Stats {
	var agg retry.Stats
	for _, s := range fo.shards {
		agg.Add(s.retryStats)
	}
	return agg
}

// ApplyErrors returns the total failed frame applications and the most
// recent error.
func (fo *Fanout) ApplyErrors() (int, error) {
	n := 0
	var last error
	for _, s := range fo.shards {
		n += s.stats.ApplyErrors
		if s.lastErr != nil {
			last = s.lastErr
		}
	}
	return n, last
}
