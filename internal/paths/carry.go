package paths

import (
	"celestial/internal/graph"
	"celestial/internal/par"
)

// Counts are the sources the carries into a cache brought. Carried counts
// the sources shared with the previous cache because the graph was
// unchanged; Repaired those brought under the edge deltas, by tree repair
// (graph.RepairSSSP), pair re-search (graph.ShortestPair) or a tree planted
// for a source whose pairs cost more; Fallbacks the sources read as whole
// trees whose repair fell back to a full run. They count sources, not
// entries, whatever serves them, and a source counts in one of the three.
type Counts struct {
	Carried, Repaired, Fallbacks int
}

// carryJob is one piece of the previous cache on its way into the source
// record into: a tree repaired under the deltas (tree set), a pair
// re-searched (pair set), or a tree planted by a full run (neither set) for
// a source whose pair searches settled more nodes than a repair would.
// Workers fill the fresh side and the settled count; the results are
// published serially afterwards. count marks a tree job for a source the
// cache did not hold yet, whose outcome the Counts count.
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

// Carry makes the cache the successor of prev: it takes the position after
// prev's and brings over the completed entries of prev that were read
// within idleSnapshots and that the cache does not hold yet. With share
// set the two graphs are bit-identical and the entries are shared
// outright; otherwise trees are repaired under deltas, the canonical edge
// deltas from prev's graph to the cache's, so a small change costs
// O(affected cone) per tree, and pairs are searched again. A source whose
// pair searches on prev settled more nodes than a repair would (treePays)
// gets a tree instead, one full run.
//
// A cache may carry from the same prev twice: first while prev is still
// being read, then once it is not. The second pass brings what was
// completed or read on prev in between (a read only makes an entry
// younger), and copies the read stamps of entries prev gained since onto
// the entries the first pass made from them — so together the two carry
// exactly the entries, and count exactly the sources, one pass after the
// last read would. Carry returns the counts of every pass since the
// cache's Reset.
//
// Each entry is recomputed into a new one, a tree into arrays taken from
// spareTrees: prev may still be read, so its entries (and any entries they
// in turn carried) are never mutated in place. The recomputations fan out
// across GOMAXPROCS workers; each is a function of one entry, so
// parallelism never changes a result.
//
// The cache must not be read while Carry runs.
func (c *Cache) Carry(prev *Cache, deltas []graph.EdgeDelta, share bool) Counts {
	c.seq = prev.seq + 1
	jobs, n := c.jobs[:0], &c.counts
	prev.mu.Lock()
	for a, src := range prev.m {
		var fresh bool
		if jobs, fresh = c.carrySource(a, src, share, jobs); fresh && share {
			n.Carried++
		} else if fresh {
			n.Repaired++
		}
	}
	prev.mu.Unlock()
	c.jobs = jobs
	if len(jobs) > 0 { // sharing, or a steady second pass, queues none
		par.For(len(jobs), func(lo, hi int) {
			ws := dijkstraWorkspaces.Get().(*graph.Workspace)
			for j := lo; j < hi; j++ {
				c.runCarryJob(&jobs[j], deltas, ws)
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
			if job.tree == nil || !job.tree.whole || job.fast {
				if job.count {
					n.Repaired++
				}
				break
			}
			// A whole tree whose repair fell back counts in Fallbacks,
			// also when an earlier pass counted its source by the pairs
			// the tree now replaces: one pass would have found the tree.
			n.Fallbacks++
			if !job.count {
				n.Repaired--
			}
		}
		*job = carryJob{} // release entry references held by the scratch
	}
	return *n
}

// carrySource brings source a's record src of prev into the cache (not
// read yet, so it needs no lock), sharing its entries when share is set and
// queueing jobs otherwise. It reports whether the source is new to the
// cache and already counted: a source whose only job is a tree repair is
// counted when the repair is done (carryJob.count).
//
// A tree serves the source once it is complete. One still being computed —
// planted by a read of prev that races this pass — leaves the source to
// its pairs, so whether the plant finished before the second pass cannot
// decide whether the source goes on, nor how it counts.
func (c *Cache) carrySource(a int, src *pathSource, share bool, jobs []carryJob) ([]carryJob, bool) {
	dst := c.m[a]
	isNew := dst == nil
	into := func() *pathSource {
		if dst == nil {
			dst = c.source(a)
		}
		return dst
	}
	if e := src.tree; e != nil && e.done.Load() {
		switch {
		case dst != nil && dst.tree != nil && e.whole && !dst.tree.whole:
			// The first pass planted a tree for the source's pairs, and a
			// whole-tree read planted e since: one pass would have
			// repaired e, and counted a fallback as one.
			jobs = append(jobs, carryJob{src: a, into: dst, tree: e})
		case dst != nil && dst.tree != nil:
			// Brought by the first pass, which copied e's read stamp;
			// reads of prev since then must reach the copy too.
			dst.tree.markRead(e.lastRead.Load())
		case !e.carries(c.seq):
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
	plant := !share && c.treePays(src.settled)
	planted, stamp := false, uint64(0)
	for _, pe := range src.pairs {
		if dst != nil {
			if held := dst.pair(pe.dst); held != nil {
				held.markRead(pe.lastRead.Load())
				continue
			}
		}
		if !pe.carries(c.seq) {
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

// runCarryJob computes one carryJob into the cache, on a worker of Carry.
// An entry that cannot be recomputed (which canonical deltas between the
// two graphs rule out) is left out, and a read computes it.
func (c *Cache) runCarryJob(job *carryJob, deltas []graph.EdgeDelta, ws *graph.Workspace) {
	if old := job.pair; old != nil {
		pe := &pairEntry{dst: old.dst}
		job.settled = c.searchPair(pe, job.src, ws)
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
		e.sp.Source = job.src
		e.sp.Dist = append(e.sp.Dist[:0], old.sp.Dist...)
		e.sp.Prev = append(e.sp.Prev[:0], old.sp.Prev...)
		job.fast, err = c.g.RepairSSSP(&e.sp, deltas, c.transit, ws)
		job.stamp = old.lastRead.Load()
	} else {
		e.sp, err = c.g.DijkstraTransitInto(job.src, c.transit, e.sp.Dist, e.sp.Prev, ws)
	}
	if err != nil {
		return
	}
	e.whole = job.tree != nil && job.tree.whole
	e.lastRead.Store(job.stamp)
	e.done.Store(true)
	job.freshTree = e
}
