package constellation

import (
	"math"
	"sync/atomic"

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

// repairJob carries one completed path-cache entry of the previous state
// through the parallel repair: workers fill fresh with a repaired entry,
// which is then published into the next state's shards.
type repairJob struct {
	src   int
	old   *pathEntry
	fresh *pathEntry
}

// repairPaths rebuilds next's shortest-path cache from prev's completed
// entries read within idleSnapshots, under the tick's merged graph-level
// edge deltas (as produced by
// appendEdgeDeltas — the pool computes them once and shares them with the
// graph patch), so a small non-empty diff costs O(affected cone) per
// cached source instead of a full Dijkstra recompute. Each entry is
// repaired on a copy drawn from next's spares pool — prev may still be
// published and leased by concurrent readers, so its entries (and any
// entries they in turn carried) are never mutated in place, the same
// copy-on-harvest safety rule the carry-over path follows. The work fans
// out across GOMAXPROCS workers; results are deterministic per source, so
// parallelism never changes a repaired tree. Runs before next is published,
// once per half of a snapshot (SnapshotPool.carryPaths): sources next
// already holds are skipped and the diff's counters are added to, so the
// second pass repairs only what was completed on prev since the first.
func (p *SnapshotPool) repairPaths(prev, next *State, deltas []graph.EdgeDelta) {
	jobs := p.jobScratch[:0]
	for i := range prev.paths {
		src, held := &prev.paths[i], next.paths[i].m
		src.mu.Lock()
		for a, e := range src.m {
			if h, ok := held[a]; ok {
				// Repaired by the first pass, which copied e's read stamp;
				// reads of prev since then must reach the copy too.
				h.markRead(e.lastRead.Load())
				continue
			}
			if e.carries(next.seq) {
				jobs = append(jobs, repairJob{src: a, old: e})
			}
		}
		src.mu.Unlock()
	}
	p.jobScratch = jobs
	if len(jobs) == 0 {
		return
	}
	var repaired, fallbacks atomic.Int64
	par.For(len(jobs), func(lo, hi int) {
		ws := dijkstraWorkspaces.Get().(*graph.Workspace)
		for j := lo; j < hi; j++ {
			job := &jobs[j]
			dist, prevArr := next.takeArrays()
			n := len(job.old.sp.Dist)
			dist = resize(dist, n)
			prevArr = resize(prevArr, n)
			copy(dist, job.old.sp.Dist)
			copy(prevArr, job.old.sp.Prev)
			sp := graph.ShortestPaths{Source: job.src, Dist: dist, Prev: prevArr}
			fast, err := next.g.RepairSSSP(&sp, deltas, next.transitFn, ws)
			if err != nil {
				// Unrepairable entry (cannot happen for diff-produced
				// deltas): leave it out and let a query recompute it.
				continue
			}
			e := next.takeEntry()
			e.sp, e.err = sp, nil
			e.lastRead.Store(job.old.lastRead.Load())
			e.done.Store(true)
			job.fresh = e
			if fast {
				repaired.Add(1)
			} else {
				fallbacks.Add(1)
			}
		}
		dijkstraWorkspaces.Put(ws)
	})
	for j := range jobs {
		if jobs[j].fresh != nil {
			sh := &next.paths[jobs[j].src%pathShards]
			sh.mu.Lock()
			sh.m[jobs[j].src] = jobs[j].fresh
			sh.mu.Unlock()
		}
		jobs[j] = repairJob{} // release entry references held by the scratch
	}
	next.diff.RepairedPaths += int(repaired.Load())
	next.diff.RepairFallbacks += int(fallbacks.Load())
}
