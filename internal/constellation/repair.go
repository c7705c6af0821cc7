package constellation

import (
	"slices"
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
// graph-level edge deltas: endpoint-normalized, then merged per link so
// that a GSL handover shipped wholesale (old uplink sequence removed, new
// one added) collapses into a weight change for every surviving link — and
// into nothing when only the sequence order changed. Sequence order fixes
// the graph's adjacency order, but the canonical tie-break makes shortest
// paths order-independent, so dropping cancelled pairs is exact; without
// the merge the repairer would see the source's own uplinks as removed
// tree edges and unsettle their entire subtrees. Activity flips are
// omitted: the bounding box does not affect path calculation (§3.3), so
// they leave the graph untouched.
func appendEdgeDeltas(dst []graph.EdgeDelta, d *Diff) []graph.EdgeDelta {
	add := func(a, b int, oldW, newW float64) {
		if a > b {
			a, b = b, a
		}
		dst = append(dst, graph.EdgeDelta{A: a, B: b, OldW: oldW, NewW: newW})
	}
	for _, ld := range d.Added {
		add(ld.A, ld.B, -1, quantaWeight(ld.NewQ))
	}
	for _, ld := range d.Removed {
		add(ld.A, ld.B, quantaWeight(ld.OldQ), -1)
	}
	for _, ld := range d.DelayChanged {
		add(ld.A, ld.B, quantaWeight(ld.OldQ), quantaWeight(ld.NewQ))
	}
	slices.SortFunc(dst, func(x, y graph.EdgeDelta) int {
		if x.A != y.A {
			return x.A - y.A
		}
		return x.B - y.B
	})
	out := dst[:0]
	for i := 0; i < len(dst); {
		agg := dst[i]
		j := i + 1
		// A link appears at most once per side of the diff, so a run is
		// at most one removal plus one addition: fold the pair into one
		// old→new delta.
		for ; j < len(dst) && dst[j].A == agg.A && dst[j].B == agg.B; j++ {
			if dst[j].OldW >= 0 {
				agg.OldW = dst[j].OldW
			}
			if dst[j].NewW >= 0 {
				agg.NewW = dst[j].NewW
			}
		}
		i = j
		if agg.OldW != agg.NewW {
			out = append(out, agg)
		}
	}
	return out
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
// entries under the tick's merged graph-level edge deltas (as produced by
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
			if _, ok := held[a]; ok {
				continue
			}
			if e.done.Load() && e.err == nil {
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
