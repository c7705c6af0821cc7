package constellation

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"celestial/internal/graph"
	"celestial/internal/topo"
)

// SnapshotPool recycles State buffers across update ticks so that the
// steady-state constellation calculation allocates (almost) nothing:
// positions, activity flags, link fingerprints, the graph's CSR image, the
// path caches' maps and uplink buffers are all reused, and the arrays of
// the trees a state held alone go back to a process-wide pool
// (paths.Cache.Reset). The visibility index is the pool's, one per shell:
// only a prepare reads it, and prepares run one at a time, so each tick
// re-buckets the satellites that moved since the tick before.
//
// The pool is the one owner of a state's lifetime. It counts the holds on
// each state: Snapshot hands a state out with one hold, the caller's; Hold
// adds one for another reader and Recycle drops one. A buffer is reused
// only once nobody holds it and it is no longer the pool's last snapshot,
// the diff base of the next one, which the pool keeps alive and readable
// by itself. A caller may therefore recycle each state as soon as it has
// moved on to the next.
//
// The pool is also the diff engine's anchor: each Snapshot compares its
// link fingerprint against the previous snapshot and records the result
// in State.Diff. The previous snapshot's path caches are carried into the
// new one's (paths.Cache.Carry): shared when no link appeared, disappeared
// or changed its delay quantum, repaired under the link deltas otherwise.
// Concurrent Snapshot calls are serialized; Hold and Recycle may be called
// concurrently at any time.
//
// A snapshot is computed in two halves, cut where its inputs change kind.
// prepare is a function of the offset t and the previous pooled state
// only — propagation, visibility, link assembly, the link diff, the graph
// patch and the repair of the previous state's path cache — so it may run
// as soon as the previous state is published (Prefetch), beside whatever
// the caller does until t falls due. finish needs the boundary itself: the
// activity overlay and the path sources planted on the previous state keep
// changing until then. Snapshot is always prepare followed by finish.
type SnapshotPool struct {
	c *Constellation
	// snapMu serializes Snapshot and Prefetch: the previous state's
	// fingerprint and path caches are read during a compute, so no other
	// compute may be overwriting a buffer meanwhile. A prepare launched by
	// Prefetch runs without it; pre stands in for the lock until the next
	// Snapshot has joined that goroutine.
	snapMu sync.Mutex
	// mu guards free, last and every state's holds.
	mu sync.Mutex
	// free are the states nobody holds, ready for reuse.
	free []*State
	// last is the newest computed state, the diff base for the next
	// tick. It stays out of free, held or not, until finish replaces it.
	last *State
	// pre is the prepare launched by Prefetch and not yet joined (guarded
	// by snapMu); at most one is in flight.
	pre *prefetch
	// noRepair disables the incremental path repair (see SetPathRepair).
	noRepair bool
	// overlay, when set, vetoes node activity beyond the bounding box
	// (see SetActivityOverlay).
	overlay func(active []bool)
	// deltaScratch and fold are the edge-delta and handover-fold buffers,
	// reused across ticks. Both halves of a snapshot use them, never at
	// once: finish starts after prepare has been joined.
	deltaScratch []graph.EdgeDelta
	fold         handoverFold
	// vis is the visibility index of each shell, updated by every prepare.
	vis []topo.VisIndex
	// stageTimer, when set, receives the wall-clock duration of each
	// Snapshot stage (see SetStageTimer).
	stageTimer func(stage string, d time.Duration)
}

// prepared is what the first half of a snapshot hands to the second.
type prepared struct {
	t float64
	// out is the computed state, holding the caller's hold; nil when err
	// is set (its buffer is then already back in the pool). prev is the
	// diff base it was computed against, the pool's last state.
	out, prev *State
	err       error
	// deltas are the tick's merged graph-level link deltas (backed by the
	// pool's deltaScratch); nil on a Full or link-unchanged diff.
	deltas []graph.EdgeDelta
	// noRepair is SetPathRepair's setting when the prepare started; the
	// catch-up in finish follows it too.
	noRepair bool
	// stage accumulates the wall time of the "snapshot", "diff" and
	// "repair" stages over both halves.
	stage [3]time.Duration
}

// lap adds the time since *start to stage i and restarts the clock.
func (pr *prepared) lap(i int, start *time.Time) {
	now := time.Now()
	pr.stage[i] += now.Sub(*start)
	*start = now
}

// prefetch is a prepare running on its own goroutine; done is closed once
// the embedded result is complete, or once the prepare panicked: panicked
// then holds the value it panicked with and that goroutine's stack.
type prefetch struct {
	prepared
	done     chan struct{}
	panicked string
}

// stageNames are SetStageTimer's keys, in prepared.stage order.
var stageNames = [3]string{"snapshot", "diff", "repair"}

// NewSnapshotPool creates an empty pool for the constellation.
func (c *Constellation) NewSnapshotPool() *SnapshotPool {
	return &SnapshotPool{c: c, vis: make([]topo.VisIndex, len(c.shells))}
}

// Snapshot computes the state at offset t like Constellation.Snapshot, but
// into a recycled buffer when one is available, and diffs the result
// against the pool's previous snapshot (see SnapshotPool). The state comes
// with one hold, the caller's: Recycle it once done.
//
// Snapshot is the only way to obtain a state. If a Prefetch for the same t
// is in flight, Snapshot waits for it and finishes its result on the
// calling goroutine; a prefetch for any other t is waited for and
// discarded, and the state is computed inline. Either way the returned
// state is the same, bit for bit.
func (p *SnapshotPool) Snapshot(t float64) (*State, error) {
	p.snapMu.Lock()
	defer p.snapMu.Unlock()
	pr, ok := p.join(t)
	if !ok {
		pr = p.prepare(t, p.noRepair)
	}
	return p.finish(&pr)
}

// Prefetch starts computing the state at offset t on a goroutine of the
// pool's own, against the state the last Snapshot returned, and returns at
// once. The next Snapshot(t) joins it and only finishes — applies the
// activity overlay, catches up on path sources planted meanwhile, delivers
// the stage timings — so a caller that knows its next tick can have the
// heavy half computed while the current state is still in effect.
//
// Prefetch is a hint: the state Snapshot returns — links, graph, diff, path
// cache and its counters — does not depend on whether it was called. At
// most one prepare is in flight; a Prefetch while one is outstanding is
// ignored. An error the prepare runs into is returned by the Snapshot that
// joins it, and a panic is raised again there, with the prepare's stack in
// its message.
func (p *SnapshotPool) Prefetch(t float64) {
	p.snapMu.Lock()
	defer p.snapMu.Unlock()
	if p.pre != nil {
		return
	}
	pf := &prefetch{done: make(chan struct{})}
	p.pre = pf
	noRepair := p.noRepair
	go func() {
		defer close(pf.done)
		defer func() {
			if v := recover(); v != nil {
				pf.panicked = fmt.Sprintf("%v\n\nprepare goroutine stack:\n%s", v, debug.Stack())
			}
		}()
		pf.prepared = p.prepare(t, noRepair)
	}()
}

// join waits for the prepare in flight, if any, and returns its result when
// it is for offset t: its diff base is the pool's last state, which only
// finish replaces. A prepare for another offset goes back to the pool.
func (p *SnapshotPool) join(t float64) (prepared, bool) {
	pf := p.pre
	if pf == nil {
		return prepared{}, false
	}
	p.pre = nil
	<-pf.done
	if pf.panicked != "" {
		panic("constellation: prefetched prepare panicked: " + pf.panicked)
	}
	if pf.t == t {
		return pf.prepared, true
	}
	p.Recycle(pf.out)
	return prepared{}, false
}

// prepare is the half of a snapshot that depends only on t and on the
// pool's previous state, both fixed the moment that state was published:
// it takes a buffer, computes positions and links into it, diffs the links
// against the previous state, materializes the graph and carries over the
// previous state's path cache as far as it is complete. It runs on the
// Snapshot goroutine or on Prefetch's, the same code on both; the repair
// setting is passed in because Prefetch captures it at launch.
func (p *SnapshotPool) prepare(t float64, noRepair bool) prepared {
	p.mu.Lock()
	var st *State
	if k := len(p.free); k > 0 {
		st, p.free = p.free[k-1], p.free[:k-1]
	} else {
		st = new(State)
	}
	st.holds = 1
	prev := p.last
	p.mu.Unlock()
	pr := prepared{t: t, prev: prev, noRepair: noRepair}
	stageStart := time.Now()
	out, err := p.c.snapshotInto(st, t, runtime.GOMAXPROCS(0), p.vis)
	if err != nil {
		// The buffers remain reusable even when the computation
		// failed halfway through.
		p.Recycle(st)
		pr.err = err
		return pr
	}
	pr.out = out
	pr.lap(0, &stageStart)
	out.diffLinksFrom(prev)

	// Materialize the latency graph. Steady state clones the previous
	// tick's CSR image — read-only on prev, so concurrent readers holding
	// a lease on it are unaffected — and patches this tick's merged link
	// deltas into it in place, skipping the O(N+M) build. The deltas are
	// computed once and shared with the path repair in both halves. Cold
	// starts, Full diffs and any patch mismatch (impossible for
	// diff-produced deltas) fall back to building from the links; either
	// way the image is query-identical (PatchFrozen's row order may
	// differ, which the canonical Dijkstra tie-break makes unobservable).
	if prev != nil && !out.diff.Full && !out.diff.LinksUnchanged() {
		p.deltaScratch = appendEdgeDeltas(p.deltaScratch[:0], &out.diff, p.c.NodeCount()-len(p.c.gst), &p.fold)
		pr.deltas = p.deltaScratch
	}
	patched := false
	if prev != nil && !out.diff.Full {
		if err := out.g.CopyFrozenFrom(&prev.g); err == nil {
			if err := out.g.PatchFrozen(pr.deltas); err == nil {
				patched = true
				out.diff.GraphPatched = true
				out.diff.PatchedEdges = len(pr.deltas)
			}
		}
	}
	if !patched {
		out.rebuildGraph()
	}
	pr.lap(1, &stageStart)

	p.carryPaths(&pr)
	pr.lap(2, &stageStart)
	return pr
}

// finish is the half of a snapshot that needs the tick boundary: machine
// health and the path sources planted on the previous state keep changing
// while that state is in effect, so the activity overlay, the activity
// flips and a second carry-over pass over the previous state's path cache
// — which finds only the entries completed since prepare looked — happen
// here, on the Snapshot goroutine, before the state becomes the pool's
// last; the old last goes back to free if nobody holds it. The stage
// timings of both halves are delivered here as well.
func (p *SnapshotPool) finish(pr *prepared) (*State, error) {
	if pr.err != nil {
		return nil, pr.err
	}
	out := pr.out
	stageStart := time.Now()
	if p.overlay != nil {
		p.overlay(out.Active)
	}
	pr.lap(0, &stageStart)
	out.diffActivityFrom(pr.prev)
	pr.lap(1, &stageStart)
	p.carryPaths(pr)
	pr.lap(2, &stageStart)
	if p.stageTimer != nil {
		for i, d := range pr.stage {
			p.stageTimer(stageNames[i], d)
		}
	}
	p.mu.Lock()
	if old := p.last; old != nil && old.holds == 0 {
		p.free = append(p.free, old)
	}
	p.last = out
	p.mu.Unlock()
	return out, nil
}

// carryPaths carries the previous state's path caches into the new
// state's (paths.Cache.Carry) and sets the diff's path counters to what the
// scenario's cache brought. Both halves of a snapshot call it: prepare
// brings what is complete when it looks, finish what was completed or read
// on the previous state since. Nothing is carried across a Full diff, nor
// across a changed graph with repair disabled (SetPathRepair).
func (p *SnapshotPool) carryPaths(pr *prepared) {
	prev, next := pr.prev, pr.out
	share := next.diff.LinksUnchanged()
	if prev == nil || next.diff.Full || !share && pr.noRepair {
		return
	}
	n := next.paths.Carry(&prev.paths, pr.deltas, share)
	next.outside.Carry(&prev.outside, pr.deltas, share)
	next.diff.CarriedPaths, next.diff.RepairedPaths, next.diff.RepairFallbacks = n.Carried, n.Repaired, n.Fallbacks
}

// SetActivityOverlay installs a veto on node activity: when a pooled
// snapshot is finished, the overlay is handed the bounding box's Active
// slice and clears the entries of nodes it reports inactive (it must only
// clear), before the activity flips against the previous snapshot are
// computed. The coordinator uses this to fold machine health into the
// state — a satellite whose server crashed (radiation SEU shutdown) shows
// up as a Deactivated flip in the next tick's diff, and as an Activated
// flip once it reboots, exactly like a bounding-box exit and re-entry.
// Like the bounding box, the overlay does not affect path calculation
// (§3.3 of the paper): links through an inactive node keep routing.
//
// The overlay is called once per Snapshot, inside the Snapshot call and on
// its goroutine — never from a Prefetch, so what it reads may change freely
// between ticks; it costs what it visits, so the coordinator's walks only
// the nodes whose machine failed. It must not be changed while a Snapshot
// call is running.
func (p *SnapshotPool) SetActivityOverlay(fn func(active []bool)) { p.overlay = fn }

// SetPathRepair disables (on=false) or re-enables the incremental repair
// of carried trees and the re-search of carried pairs on non-empty diffs,
// forcing every structural tick back to on-demand searches and full
// Dijkstra runs at the first read. Repaired and re-searched results are
// bit-identical to recomputed ones (locked in by the repair and pair
// differential tests); the knob exists for the coordinator's
// deferred-repair degradation level. The setting is read when a prepare
// starts — by Prefetch, or by a Snapshot that has no prefetch to join — and
// holds for that whole snapshot. It must not be toggled while a Snapshot or Prefetch
// call is running.
func (p *SnapshotPool) SetPathRepair(on bool) { p.noRepair = !on }

// SetStageTimer installs a callback that receives the wall-clock duration
// of each pooled-snapshot stage, keyed "snapshot" (propagation, state
// assembly and the activity overlay), "diff" (fingerprint comparison and
// graph materialization) and "repair" (path-cache transplant or
// incremental repair). The coordinator's tick watchdog uses these
// measurements to budget the update pipeline against the tick interval. A
// stage's duration is the work done for it, wherever it ran: the part a
// Prefetch computed ahead is measured there and added to the part Snapshot
// does at the boundary. The three callbacks are made once per Snapshot,
// from inside the Snapshot call and on its goroutine; nil (the default)
// disables them. It must not be changed while a Snapshot call is running.
func (p *SnapshotPool) SetStageTimer(fn func(stage string, d time.Duration)) { p.stageTimer = fn }

// Hold adds a hold on a state someone holds already (a coordinator lease
// adds one to the state the coordinator holds): its buffers are not reused
// until a Recycle drops this hold too.
func (p *SnapshotPool) Hold(st *State) {
	p.mu.Lock()
	st.holds++
	p.mu.Unlock()
}

// Recycle drops one hold on a state. The caller must not use the state
// afterwards: once nobody holds it and it is no longer the pool's last
// snapshot, the next Snapshot may overwrite every buffer in place.
// Recycle(nil) does nothing; dropping a hold nobody has panics.
func (p *SnapshotPool) Recycle(st *State) {
	if st == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if st.holds <= 0 {
		panic("constellation: Recycle of a state nobody holds")
	}
	st.holds--
	if st.holds == 0 && st != p.last {
		p.free = append(p.free, st)
	}
}
