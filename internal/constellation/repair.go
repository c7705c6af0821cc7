package constellation

import (
	"math"

	"celestial/internal/graph"
	"celestial/internal/netem"
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
