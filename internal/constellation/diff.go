package constellation

import (
	"math"
	"slices"
)

// LinkDelta is one changed link in a Diff, in constellation-wide node IDs.
// OldQ and NewQ are the link's one-way delay in netem.DelayQuantum units on
// the base and the new snapshot; -1 marks a side on which the link does not
// exist.
type LinkDelta struct {
	A, B       int
	OldQ, NewQ int32
}

// Diff describes how a snapshot differs from the previous pooled snapshot,
// at the granularity the emulated network can express: link delays are
// compared as netem.DelayQuantum counts, so satellite motion too small to
// change any emulated delay produces an empty diff. This mirrors the
// paper's coordinator, which distributes only the difference between
// consecutive constellation states to the hosts instead of reprogramming
// the whole network every epoch.
//
// A Diff is owned by its State and reuses its slices across recycled
// snapshots; callers that retain diff information across ticks should copy
// it (AppendRecord, or keep Stats()).
type Diff struct {
	// DiffRecord is the diff's content, everything a retained record
	// keeps.
	DiffRecord
	// GraphPatched reports that the snapshot's latency graph was
	// materialized by cloning the base state's CSR image and patching
	// this diff's merged edge deltas into it in place, instead of being
	// built from the link list; PatchedEdges counts those deltas (zero
	// when only node activity changed). Patched and built graphs are
	// query-identical.
	GraphPatched bool
	PatchedEdges int
}

// DiffRecord is the content of a Diff. Inside a Diff its slices are owned
// by the State and reused across recycled snapshots; a record made by
// AppendRecord or Clone owns its slices and stays valid indefinitely. The
// coordinator keeps a ring of recent records so the information service
// can replay topology deltas to clients (GET /diff?since=) long after the
// producing snapshots were recycled.
type DiffRecord struct {
	// T is the snapshot's offset; BaseT the compared-against snapshot's
	// offset (NaN when Full).
	T, BaseT float64
	// Full marks a diff with no usable base: the first snapshot, a
	// non-pooled snapshot, or a pool used single-buffered (the only
	// previous state was the buffer being overwritten). Consumers must
	// treat every link and node as changed.
	Full bool
	// Added and Removed are links that appeared or disappeared. A
	// station/shell whose realized uplink sequence changed is shipped
	// wholesale (old links removed, new links added) rather than
	// per-satellite matched, because the closest-first order itself fixes
	// the graph's row order, so an order change alone also invalidates
	// derived state. Such changes are not rare: on Starlink Gen2 (29,988
	// satellites, 100 stations, 1 s ticks) nearly every station/shell
	// sequence reorders every tick, and a tick ships ~9,300 GSLs on each
	// side, which the graph patch folds down to ~1,700 edge deltas
	// (appendEdgeDeltas). Both lists hold the ISL deltas first, then each
	// station's GSL deltas as one block, stations ascending.
	//
	// A follower applies a record in one order: Removed, then Added, then
	// DelayChanged. A satellite that stays visible while its sequence
	// reorders is in both Removed and Added, and it exists afterwards.
	Added, Removed []LinkDelta
	// DelayChanged are links present on both sides whose delay moved by
	// at least one quantum.
	DelayChanged []LinkDelta
	// Activated and Deactivated are nodes whose bounding-box activity
	// flipped.
	Activated, Deactivated []int32
	// CarriedPaths, RepairedPaths and RepairFallbacks are the
	// paths.Counts of the scenario's path cache carried from the base
	// state. All are zero on a Full diff, and RepairedPaths and
	// RepairFallbacks on link-unchanged diffs, which share.
	CarriedPaths    int
	RepairedPaths   int
	RepairFallbacks int
	// Degraded is the supervision level the producing tick ran at (the
	// numeric supervise.Level: 0 full, 1 repair deferred, 2 distribution
	// coalesced, 3 activity-only). Zero on unsupervised runs. It rides on
	// the diff so downstream consumers of /diff frames can tell which
	// deltas were produced under deadline pressure.
	Degraded uint8
}

// Empty reports whether the diff is empty at emulation granularity: no
// link appeared, disappeared or changed its delay quantum, and no node
// changed activity. An empty diff means the snapshot's link graph is
// bit-identical to the base state's, so consumers can keep every derived
// structure — netem shaper parameters, shortest-path trees — untouched.
func (r *DiffRecord) Empty() bool {
	return r.LinksUnchanged() && len(r.Activated) == 0 && len(r.Deactivated) == 0
}

// LinksUnchanged reports whether no link appeared, disappeared or changed
// its delay quantum — the snapshot's link graph (and therefore every
// shortest path) is bit-identical to the base state's, even if node
// activity flipped (the bounding box does not affect path calculation,
// §3.3 of the paper). The path cache is carried over wholesale on such
// diffs and incrementally repaired otherwise.
func (r *DiffRecord) LinksUnchanged() bool {
	return !r.Full && len(r.Added) == 0 && len(r.Removed) == 0 && len(r.DelayChanged) == 0
}

// Clone returns a deep copy of the record sharing no memory with r —
// the escape hatch for records whose slices are reused in place (like
// the coordinator's retention ring slots, refilled via AppendRecord).
func (r DiffRecord) Clone() DiffRecord {
	return r.appendTo(DiffRecord{})
}

// AppendRecord deep-copies the diff's content into dst, reusing dst's
// backing arrays when they are large enough — a ring of records refilled
// every tick allocates only while a slot's high-water mark grows. The
// returned record shares no memory with the Diff.
func (d *Diff) AppendRecord(dst DiffRecord) DiffRecord {
	return d.DiffRecord.appendTo(dst)
}

// appendTo returns a copy of r whose slices are dst's backing arrays
// refilled with r's elements.
func (r DiffRecord) appendTo(dst DiffRecord) DiffRecord {
	r.Added = append(dst.Added[:0], r.Added...)
	r.Removed = append(dst.Removed[:0], r.Removed...)
	r.DelayChanged = append(dst.DelayChanged[:0], r.DelayChanged...)
	r.Activated = append(dst.Activated[:0], r.Activated...)
	r.Deactivated = append(dst.Deactivated[:0], r.Deactivated...)
	return r
}

// DiffStats is a plain-counts summary of a Diff, safe to retain after the
// underlying State is recycled.
type DiffStats struct {
	T, BaseT        float64
	Full, Empty     bool
	Added           int
	Removed         int
	DelayChanged    int
	Activated       int
	Deactivated     int
	CarriedPaths    int
	RepairedPaths   int
	RepairFallbacks int
	GraphPatched    bool
	PatchedEdges    int
	Degraded        uint8
}

// Stats summarizes the diff.
func (d *Diff) Stats() DiffStats {
	return DiffStats{
		T: d.T, BaseT: d.BaseT, Full: d.Full, Empty: d.Empty(),
		Added: len(d.Added), Removed: len(d.Removed),
		DelayChanged: len(d.DelayChanged),
		Activated:    len(d.Activated), Deactivated: len(d.Deactivated),
		CarriedPaths:  d.CarriedPaths,
		RepairedPaths: d.RepairedPaths, RepairFallbacks: d.RepairFallbacks,
		GraphPatched: d.GraphPatched, PatchedEdges: d.PatchedEdges,
		Degraded: d.Degraded,
	}
}

// Diff returns how this snapshot differs from the previous pooled snapshot
// (a Full diff for non-pooled snapshots). The returned value is owned by
// the State and valid until it is recycled.
func (st *State) Diff() *Diff { return &st.diff }

// diffLinksFrom starts st.diff afresh and fills its link half by comparing
// st's link fingerprint — the per-plan-edge ISL delay quanta and the
// per-station realized uplink sequences recorded during assembly — against
// prev's. prev must be a fully computed snapshot of the same constellation
// that stays readable for the duration of the call; nil yields a Full diff.
// Links never depend on node activity (§3.3), so this half needs nothing
// that is decided at the tick boundary; diffActivityFrom is the other half.
func (st *State) diffLinksFrom(prev *State) {
	d := &st.diff
	*d = Diff{DiffRecord: DiffRecord{
		T: st.T, BaseT: math.NaN(),
		Added: d.Added[:0], Removed: d.Removed[:0], DelayChanged: d.DelayChanged[:0],
		Activated: d.Activated[:0], Deactivated: d.Deactivated[:0],
	}}
	if prev == nil || prev.c != st.c || len(prev.islQ) != len(st.islQ) ||
		len(prev.gslOff) != len(st.gslOff) || len(prev.Active) != len(st.Active) {
		d.Full = true
		return
	}
	d.BaseT = prev.T

	// ISLs: the +GRID plan is static, so plan edge i compares positionally.
	off := 0
	for _, edges := range st.c.edges {
		for i, e := range edges {
			oq, nq := prev.islQ[off+i], st.islQ[off+i]
			switch {
			case oq == nq:
			case oq < 0:
				d.Added = append(d.Added, LinkDelta{A: e.a, B: e.b, OldQ: -1, NewQ: nq})
			case nq < 0:
				d.Removed = append(d.Removed, LinkDelta{A: e.a, B: e.b, OldQ: oq, NewQ: -1})
			default:
				d.DelayChanged = append(d.DelayChanged, LinkDelta{A: e.a, B: e.b, OldQ: oq, NewQ: nq})
			}
		}
		off += len(edges)
	}

	// GSLs: compare each station/shell's realized closest-first sequence.
	shells := len(st.c.shells)
	gstBase := len(st.Active) - len(st.c.gst)
	for gi := range st.c.gst {
		gid := gstBase + gi
		for si := 0; si < shells; si++ {
			k := gi*shells + si
			po, p1 := prev.gslOff[k], prev.gslOff[k+1]
			no, n1 := st.gslOff[k], st.gslOff[k+1]
			if slices.Equal(prev.gslSat[po:p1], st.gslSat[no:n1]) {
				for j := int32(0); j < p1-po; j++ {
					if oq, nq := prev.gslQ[po+j], st.gslQ[no+j]; oq != nq {
						d.DelayChanged = append(d.DelayChanged,
							LinkDelta{A: gid, B: int(st.gslSat[no+j]), OldQ: oq, NewQ: nq})
					}
				}
				continue
			}
			for j := po; j < p1; j++ {
				d.Removed = append(d.Removed, LinkDelta{A: gid, B: int(prev.gslSat[j]), OldQ: prev.gslQ[j], NewQ: -1})
			}
			for j := no; j < n1; j++ {
				d.Added = append(d.Added, LinkDelta{A: gid, B: int(st.gslSat[j]), OldQ: -1, NewQ: st.gslQ[j]})
			}
		}
	}
}

// diffActivityFrom fills the activity half of st.diff, the nodes whose
// Active flag differs from prev's, once st.Active is final (bounding box
// and activity overlay both applied). A Full diff lists nothing.
func (st *State) diffActivityFrom(prev *State) {
	d := &st.diff
	if d.Full {
		return
	}
	for i := range st.Active {
		if prev.Active[i] != st.Active[i] {
			if st.Active[i] {
				d.Activated = append(d.Activated, int32(i))
			} else {
				d.Deactivated = append(d.Deactivated, int32(i))
			}
		}
	}
}
