package constellation

import (
	"math"

	"celestial/internal/graph"
	"celestial/internal/netem"
	"celestial/internal/par"
)

// quantaWeight converts a LinkDelta delay-quantum count into the graph
// edge weight the snapshot assembly realized for that link — the exact
// float64 product, so repaired relaxations compare bit-identical weights —
// with absent sides (-1) mapped to the negative sentinel of
// graph.EdgeDelta.
func quantaWeight(q int32) float64 {
	if q < 0 {
		return -1
	}
	return float64(q) * netem.DelayQuantumSeconds
}

// appendEdgeDeltas translates a snapshot diff's link deltas into canonical
// graph-level edge deltas, endpoint-normalized (A < B), and appends them to
// dst. sats is the number of satellite nodes: node IDs at or above it are
// ground stations. fold is the caller's scratch, reused across calls.
//
// Only a GSL handover needs merging. A station/shell whose uplink sequence
// changed is shipped wholesale (old sequence removed, new one added), so a
// satellite that stays visible appears once on each side; the pair folds
// into a weight change, or into nothing when only the sequence order moved.
// Sequence order fixes the graph's adjacency order, but the canonical
// tie-break makes shortest paths order-independent, so dropping cancelled
// pairs is exact; without the fold the repairer would see the source's own
// uplinks as removed tree edges and unsettle their entire subtrees. No
// other delta can collide: each ISL sits in at most one list (diffLinksFrom
// compares the static plan positionally), and a GSL delay change comes from
// an unchanged sequence, which ships nothing to Added or Removed.
//
// So the function relies on the layout diffLinksFrom gives Added and
// Removed — ISL deltas first, then each station's GSL deltas as one block,
// stations in ascending order — and walks both lists in lockstep by
// station, matching a station's removals and additions per satellite
// (handoverFold). The fold is keyed by (station, satellite): one satellite
// can be in the changed blocks of several stations in the same tick.
//
// The output holds every weight change and removal before any addition:
// DelayChanged's deltas, the ISL removals, station by station the folded
// and removed uplinks, then the ISL and uplink additions. So while
// PatchFrozen applies the list, no CSR row holds more entries than the
// larger of its old and new degree, and a row compacts only when its
// degree outgrows its slack. Nothing else depends on the order: PatchFrozen
// writes each link's delta independently and RepairSSSP's result is a pure
// function of the patched graph under the canonical tie-break. Activity
// flips are omitted: the bounding box does not affect path calculation
// (§3.3), so they leave the graph untouched.
func appendEdgeDeltas(dst []graph.EdgeDelta, d *Diff, sats int, fold *handoverFold) []graph.EdgeDelta {
	for _, ld := range d.DelayChanged {
		dst = appendEdgeDelta(dst, ld.A, ld.B, quantaWeight(ld.OldQ), quantaWeight(ld.NewQ))
	}
	rem, add := d.Removed, d.Added
	for ; len(rem) > 0 && rem[0].A < sats; rem = rem[1:] {
		dst = appendEdgeDelta(dst, rem[0].A, rem[0].B, quantaWeight(rem[0].OldQ), -1)
	}
	fold.adds = fold.adds[:0]
	for ; len(add) > 0 && add[0].A < sats; add = add[1:] {
		fold.adds = appendEdgeDelta(fold.adds, add[0].A, add[0].B, -1, quantaWeight(add[0].NewQ))
	}
	fold.size(sats)
	for len(rem) > 0 || len(add) > 0 {
		gid := math.MaxInt
		if len(rem) > 0 {
			gid = rem[0].A
		}
		if len(add) > 0 {
			gid = min(gid, add[0].A)
		}
		i, j := stationBlock(rem, gid), stationBlock(add, gid)
		dst = fold.appendBlock(dst, gid, rem[:i], add[:j])
		rem, add = rem[i:], add[j:]
	}
	return append(dst, fold.adds...)
}

// appendEdgeDelta appends the endpoint-normalized delta of one link,
// unless its old and new weights are equal.
func appendEdgeDelta(dst []graph.EdgeDelta, a, b int, oldW, newW float64) []graph.EdgeDelta {
	if oldW == newW {
		return dst
	}
	if a > b {
		a, b = b, a
	}
	return append(dst, graph.EdgeDelta{A: a, B: b, OldW: oldW, NewW: newW})
}

// stationBlock returns the length of the leading run of lds whose A is gid.
func stationBlock(lds []LinkDelta, gid int) int {
	n := 0
	for n < len(lds) && lds[n].A == gid {
		n++
	}
	return n
}

// handoverFold is appendEdgeDeltas' scratch: the additions it holds back
// until every removal is out, and a per-satellite slot. A station block
// stamps every satellite it adds with the block's epoch and remembers the
// new uplink's delay; a removal that finds its satellite stamped folds
// with that addition and clears the stamp. Epochs only grow, so no block
// sees another's stamps and nothing is cleared between blocks.
type handoverFold struct {
	adds  []graph.EdgeDelta
	sat   []foldSlot
	epoch uint32
}

// foldSlot is one satellite's entry in handoverFold.
type foldSlot struct {
	epoch uint32
	newQ  int32
}

// size makes room for sats satellites.
func (f *handoverFold) size(sats int) {
	if len(f.sat) < sats {
		f.sat = make([]foldSlot, sats)
		f.epoch = 0
	}
}

// appendBlock folds one station's removed and added uplinks: weight
// changes and removals go to dst, additions to f.adds.
func (f *handoverFold) appendBlock(dst []graph.EdgeDelta, gid int, rem, add []LinkDelta) []graph.EdgeDelta {
	f.epoch++
	if f.epoch == 0 {
		clear(f.sat)
		f.epoch = 1
	}
	for _, ld := range add {
		f.sat[ld.B] = foldSlot{epoch: f.epoch, newQ: ld.NewQ}
	}
	for _, ld := range rem {
		newW := -1.0
		if s := &f.sat[ld.B]; s.epoch == f.epoch {
			newW = quantaWeight(s.newQ)
			s.epoch = 0
		}
		dst = appendEdgeDelta(dst, ld.B, gid, quantaWeight(ld.OldQ), newW)
	}
	for _, ld := range add {
		if f.sat[ld.B].epoch == f.epoch {
			f.adds = appendEdgeDelta(f.adds, ld.B, gid, -1, quantaWeight(ld.NewQ))
		}
	}
	return dst
}

// carryJob is one piece of the previous state's path cache on its way into
// the next state's source record into: a tree repaired under the tick's
// deltas (tree set), a pair re-searched (pair set), or a tree planted by a
// full run (neither set) for a source whose pair searches settled more
// nodes than a repair would. Workers fill the fresh side and the settled
// count; the results are published serially afterwards. count marks a tree
// job for a source next did not hold yet, whose outcome the diff counts.
type carryJob struct {
	src       int
	into      *pathSource
	tree      *pathEntry
	pair      *pairEntry
	stamp     uint64
	freshTree *pathEntry
	freshPair *pairEntry
	settled   int
	fast      bool
	count     bool
}

// carryPaths brings the completed path-cache entries of the previous state
// that were read within idleSnapshots, and that the new state does not
// hold yet, over to it, adding to the diff's path counters. On a
// bit-identical graph (the diff is empty, or only node activity flipped —
// the bounding box does not affect path calculation, §3.3) trees and pairs
// are shared outright; otherwise trees are repaired under the tick's merged
// graph-level edge deltas (as produced by appendEdgeDeltas — the pool
// computes them once and shares them with the graph patch), so a small
// non-empty diff costs O(affected cone) per tree, and pairs are searched
// again. A source whose pair searches on the previous state settled more
// nodes than a repair would (treePays) gets a tree instead, one full run.
// With repair disabled (SetPathRepair) nothing is recomputed ahead.
//
// Both halves of a snapshot call it: prepare brings what is complete and
// recently read when it looks, finish what was completed or read on the
// previous state afterwards (a read only makes an entry younger), and
// copies the read stamps of entries prev gained since onto the entries the
// first pass made from them — so together they carry exactly the entries a
// single pass at the boundary would. Each entry is recomputed into a new
// one, a tree into arrays taken from spareTrees: prev may still be
// published and leased by concurrent readers, so its entries (and any
// entries they in turn carried) are never mutated in place. The
// recomputations fan out across GOMAXPROCS workers; results are
// deterministic per entry, so parallelism never changes one.
//
// The counters count sources, whatever serves them: CarriedPaths a source
// shared, RepairedPaths one recomputed, except that a whole-tree read's
// tree (pathEntry.whole) whose repair fell back to a full run counts in
// RepairFallbacks. A source counts in the pass that first brings it, so
// they do not depend on how many targets a source's readers ask for, or on
// whether a tree or pairs serve it.
func (p *SnapshotPool) carryPaths(pr *prepared) {
	prev, next := pr.prev, pr.out
	if prev == nil || next.diff.Full {
		return
	}
	share := next.diff.LinksUnchanged()
	if !share && pr.noRepair {
		return
	}
	jobs, brought := p.jobScratch[:0], 0
	for i := range prev.paths {
		from, to := &prev.paths[i], &next.paths[i]
		from.mu.Lock()
		for a, src := range from.m {
			var fresh bool
			jobs, fresh = next.carrySource(to, a, src, share, jobs)
			if fresh {
				brought++
			}
		}
		from.mu.Unlock()
	}
	p.jobScratch = jobs
	if share {
		next.diff.CarriedPaths += brought
		return
	}
	if len(jobs) > 0 { // a steady finish has none
		par.For(len(jobs), func(lo, hi int) {
			ws := dijkstraWorkspaces.Get().(*graph.Workspace)
			for j := lo; j < hi; j++ {
				next.runCarryJob(&jobs[j], pr.deltas, ws)
			}
			dijkstraWorkspaces.Put(ws)
		})
	}
	for j := range jobs {
		job := &jobs[j]
		switch {
		case job.freshPair != nil:
			job.into.pairs = append(job.into.pairs, job.freshPair)
			job.into.settled += job.settled
		case job.freshTree != nil:
			job.into.setTree(job.freshTree)
			if !job.count {
				break
			}
			if job.tree != nil && job.tree.whole && !job.fast {
				next.diff.RepairFallbacks++
			} else {
				brought++
			}
		}
		*job = carryJob{} // release entry references held by the scratch
	}
	next.diff.RepairedPaths += brought
}

// carrySource brings source a's record src of the previous state into
// shard to of next (not published yet, so to needs no lock), sharing its
// entries when share is set and queueing jobs otherwise. It reports whether
// the source is new to next and already counted: a source whose only job
// is a tree repair is counted when the repair is done (carryJob.count).
//
// A tree serves the source once it is complete. One still being computed —
// planted by a read of prev that races this pass — leaves the source to
// its pairs, so whether the plant finished before the boundary cannot
// decide whether the source goes on, nor how it counts.
func (next *State) carrySource(to *pathShard, a int, src *pathSource, share bool, jobs []carryJob) ([]carryJob, bool) {
	dst := to.m[a]
	isNew := dst == nil
	into := func() *pathSource {
		if dst == nil {
			dst = to.source(a)
		}
		return dst
	}
	if e := src.tree; e != nil && e.done.Load() {
		switch {
		case dst != nil && dst.tree != nil:
			// Brought by the first pass, which copied e's read stamp;
			// reads of prev since then must reach the copy too.
			dst.tree.markRead(e.lastRead.Load())
		case !e.carries(next.seq):
		case share:
			e.shared = true
			into().setTree(e)
			return jobs, isNew
		default:
			jobs = append(jobs, carryJob{src: a, into: into(), tree: e, count: isNew})
		}
		return jobs, false
	}
	if dst != nil && dst.tree != nil {
		for _, pe := range src.pairs {
			dst.tree.markRead(pe.lastRead.Load())
		}
		return jobs, false
	}
	plant := !share && next.treePays(src.settled)
	planted, stamp := false, uint64(0)
	for _, pe := range src.pairs {
		if dst != nil {
			if held := dst.pair(pe.dst); held != nil {
				held.markRead(pe.lastRead.Load())
				continue
			}
		}
		if !pe.carries(next.seq) {
			continue
		}
		switch {
		case plant:
			planted, stamp = true, max(stamp, pe.lastRead.Load())
		case share:
			into().pairs = append(into().pairs, pe)
		default:
			jobs = append(jobs, carryJob{src: a, into: into(), pair: pe, stamp: pe.lastRead.Load()})
		}
	}
	if planted {
		jobs = append(jobs, carryJob{src: a, into: into(), stamp: stamp})
	}
	return jobs, isNew && dst != nil
}

// runCarryJob computes one carryJob into next, on a worker of carryPaths.
// An entry that cannot be recomputed (which diff-produced deltas rule out)
// is left out, and a read computes it.
func (next *State) runCarryJob(job *carryJob, deltas []graph.EdgeDelta, ws *graph.Workspace) {
	if old := job.pair; old != nil {
		pe := &pairEntry{dst: old.dst}
		job.settled = next.searchPair(pe, job.src, ws)
		if pe.err != nil {
			return
		}
		pe.lastRead.Store(job.stamp)
		pe.done.Store(true)
		job.freshPair = pe
		return
	}
	e := spareTrees.Get().(*pathEntry)
	var err error
	if old := job.tree; old != nil {
		n := len(old.sp.Dist)
		e.sp.Source = job.src
		e.sp.Dist, e.sp.Prev = resize(e.sp.Dist, n), resize(e.sp.Prev, n)
		copy(e.sp.Dist, old.sp.Dist)
		copy(e.sp.Prev, old.sp.Prev)
		job.fast, err = next.g.RepairSSSP(&e.sp, deltas, next.transitFn, ws)
		job.stamp = old.lastRead.Load()
	} else {
		e.sp, err = next.g.DijkstraTransitInto(job.src, next.transitFn, e.sp.Dist, e.sp.Prev, ws)
	}
	if err != nil {
		return
	}
	e.whole = job.tree != nil && job.tree.whole
	e.lastRead.Store(job.stamp)
	e.done.Store(true)
	job.freshTree = e
}
