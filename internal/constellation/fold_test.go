package constellation

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"celestial/internal/config"
	"celestial/internal/graph"
	"celestial/internal/orbit"
)

// referenceEdgeDeltas is the sort-and-fold appendEdgeDeltas replaced: every
// link delta, endpoint-normalized, sorted by link, and each link's run (at
// most one removal plus one addition) folded into one old→new delta, with
// pairs whose weights are equal dropped. It needs no knowledge of the
// diff's layout, which makes it the oracle of the station-by-station fold.
func referenceEdgeDeltas(dst []graph.EdgeDelta, d *Diff) []graph.EdgeDelta {
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

// foldWorld is a synthetic constellation for the fold differential: sats
// satellites split into contiguous shells, a random ISL plan inside each
// shell, and stations ground stations.
type foldWorld struct {
	c       *Constellation
	sats    int
	shellOf []int // shell index per satellite
}

func newFoldWorld(rng *rand.Rand, sats, shells, stations int) *foldWorld {
	w := &foldWorld{
		c: &Constellation{
			shells: make([]*orbit.Shell, shells),
			edges:  make([][]planEdge, shells),
			gst:    make([]config.GroundStation, stations),
		},
		sats:    sats,
		shellOf: make([]int, sats),
	}
	members := make([][]int, shells)
	for s := 0; s < sats; s++ {
		w.shellOf[s] = s * shells / sats
		members[w.shellOf[s]] = append(members[w.shellOf[s]], s)
	}
	for si, m := range members {
		seen := map[[2]int]bool{}
		for tries := 0; tries < 3*len(m); tries++ {
			a, b := m[rng.Intn(len(m))], m[rng.Intn(len(m))]
			if a == b || seen[[2]int{a, b}] || seen[[2]int{b, a}] {
				continue
			}
			seen[[2]int{a, b}] = true
			w.c.edges[si] = append(w.c.edges[si], planEdge{a: a, b: b})
		}
	}
	return w
}

// uplink is one entry of a station/shell's realized uplink sequence.
type uplink struct {
	sat int32
	q   int32
}

// state builds a State carrying only the link fingerprint diffLinksFrom
// reads: islQ per plan edge and seqs[gi*shells+si] per station/shell.
func (w *foldWorld) state(t float64, islQ []int32, seqs [][]uplink) *State {
	st := &State{c: w.c, T: t, islQ: islQ, Active: make([]bool, w.sats+len(w.c.gst))}
	st.gslOff = append(st.gslOff, 0)
	for _, seq := range seqs {
		for _, u := range seq {
			st.gslSat = append(st.gslSat, u.sat)
			st.gslQ = append(st.gslQ, u.q)
		}
		st.gslOff = append(st.gslOff, int32(len(st.gslSat)))
	}
	return st
}

// foldCases counts which kinds of change a generated tick holds, so the
// differential can prove its generator reached each of them.
type foldCases struct {
	islAdded, islRemoved, islDelay  int
	reorderOnly, handover, gslDelay int
	sharedSat                       int // ticks whose hub is in ≥ 2 changed blocks
}

// randomFoldTick draws a previous and a next link fingerprint on w and
// returns the states diffLinksFrom compares. Station/shell blocks are kept,
// re-delayed, reordered, handed over, emptied or filled. One hub satellite
// is in its shell's block at every station, and each of those blocks is
// reordered, handed over, emptied or filled.
func (w *foldWorld) randomFoldTick(rng *rand.Rand, cases *foldCases) (prev, next *State) {
	quantum := func() int32 { return int32(1 + rng.Intn(4)) }
	plan := 0
	for _, e := range w.c.edges {
		plan += len(e)
	}
	oldISL, newISL := make([]int32, plan), make([]int32, plan)
	for i := range oldISL {
		oldISL[i] = -1
		if rng.Intn(4) > 0 {
			oldISL[i] = quantum()
		}
		newISL[i] = oldISL[i]
		switch rng.Intn(4) {
		case 0:
			newISL[i] = -1
		case 1:
			newISL[i] = quantum()
		}
		switch o, n := oldISL[i], newISL[i]; {
		case o < 0 && n >= 0:
			cases.islAdded++
		case o >= 0 && n < 0:
			cases.islRemoved++
		case o >= 0 && o != n:
			cases.islDelay++
		}
	}

	shells := len(w.c.shells)
	hub, hubBlocks := rng.Intn(w.sats), 0
	oldSeqs := make([][]uplink, len(w.c.gst)*shells)
	newSeqs := make([][]uplink, len(oldSeqs))
	for gi := range w.c.gst {
		for si := 0; si < shells; si++ {
			k := gi*shells + si
			var pool []int32
			for s := 0; s < w.sats; s++ {
				if w.shellOf[s] == si && s != hub {
					pool = append(pool, int32(s))
				}
			}
			rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
			var old []uplink
			for _, s := range pool[:rng.Intn(len(pool)+1)] {
				old = append(old, uplink{s, quantum()})
			}
			hubHere := si == w.shellOf[hub]
			if hubHere {
				old = append(old, uplink{int32(hub), quantum()})
			}
			rng.Shuffle(len(old), func(i, j int) { old[i], old[j] = old[j], old[i] })
			oldSeqs[k] = old
			mode := rng.Intn(5)
			if hubHere && mode < 2 {
				mode += 2 // the hub's blocks all change
			}
			var nw []uplink
			switch mode {
			case 0: // kept as is
				nw = slices.Clone(old)
			case 1: // same sequence, some delays move
				nw = slices.Clone(old)
				for i := range nw {
					if rng.Intn(2) == 0 {
						nw[i].q = quantum()
					}
				}
			case 2: // same links, new order
				nw = slices.Clone(old)
				slices.Reverse(nw)
			case 3: // handover: some links stay (possibly re-delayed), some go, some arrive
				for _, u := range old {
					if u.sat == int32(hub) || rng.Intn(3) > 0 {
						if rng.Intn(2) == 0 {
							u.q = quantum()
						}
						nw = append(nw, u)
					}
				}
				for _, s := range pool[len(old)-boolInt(hubHere):] {
					if rng.Intn(3) == 0 {
						nw = append(nw, uplink{s, quantum()})
					}
				}
				rng.Shuffle(len(nw), func(i, j int) { nw[i], nw[j] = nw[j], nw[i] })
			default: // the station loses or gains the whole shell
				if len(old) > 0 && !hubHere {
					nw = nil
				} else {
					for _, s := range pool[len(old)-boolInt(hubHere):] {
						nw = append(nw, uplink{s, quantum()})
					}
				}
			}
			newSeqs[k] = nw
			if classify(old, nw, cases) && hubHere {
				hubBlocks++
			}
		}
	}
	if hubBlocks >= 2 {
		cases.sharedSat++
	}
	return w.state(0, oldISL, oldSeqs), w.state(1, newISL, newSeqs)
}

// classify counts what one station/shell block turned out to be and
// reports whether its sequence changed.
func classify(old, nw []uplink, cases *foldCases) bool {
	same := len(old) == len(nw)
	for i := 0; same && i < len(old); i++ {
		same = old[i].sat == nw[i].sat
	}
	if same {
		for i := range old {
			if old[i].q != nw[i].q {
				cases.gslDelay++
				break
			}
		}
		return false
	}
	bySat := func(x, y uplink) int { return cmp.Compare(x.sat, y.sat) }
	a, b := slices.Clone(old), slices.Clone(nw)
	slices.SortFunc(a, bySat)
	slices.SortFunc(b, bySat)
	if slices.Equal(a, b) {
		cases.reorderOnly++
	} else {
		cases.handover++
	}
	return true
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// compareEdgeDeltas asserts that the fold and the reference agree as
// multisets on next's diff against prev.
func compareEdgeDeltas(t *testing.T, w *foldWorld, prev, next *State, fold *handoverFold) {
	t.Helper()
	next.diffLinksFrom(prev)
	d := &next.diff
	got := appendEdgeDeltas(nil, d, w.sats, fold)
	for i := 1; i < len(got); i++ {
		if got[i-1].OldW < 0 && got[i].OldW >= 0 {
			t.Fatalf("delta %d (%+v) follows an addition", i, got[i])
		}
	}
	want := referenceEdgeDeltas(nil, d)
	byLink := func(x, y graph.EdgeDelta) int {
		return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B),
			cmp.Compare(x.OldW, y.OldW), cmp.Compare(x.NewW, y.NewW))
	}
	slices.SortFunc(got, byLink)
	slices.SortFunc(want, byLink)
	if !slices.Equal(got, want) {
		t.Fatalf("fold of %d added, %d removed, %d delay-changed links:\n got  %v\n want %v",
			len(d.Added), len(d.Removed), len(d.DelayChanged), got, want)
	}
}

// TestEdgeDeltasMatchReference checks the station-by-station fold against
// the sort-and-fold it replaced on random ticks, as multisets (the two
// emit in different orders), and that the fold puts every addition last.
// The generator must reach every kind of change: ISL additions, removals
// and delay changes, GSL delay changes, reorder-only blocks, true
// handovers, and a satellite in several stations' changed blocks in the
// same tick.
func TestEdgeDeltasMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	var cases foldCases
	var fold handoverFold // shared across ticks, as the pool shares it
	for i := 0; i < 300; i++ {
		w := newFoldWorld(rng, 2+rng.Intn(40), 1+rng.Intn(3), 1+rng.Intn(6))
		prev, next := w.randomFoldTick(rng, &cases)
		compareEdgeDeltas(t, w, prev, next, &fold)
	}
	if cases.islAdded == 0 || cases.islRemoved == 0 || cases.islDelay == 0 ||
		cases.reorderOnly == 0 || cases.handover == 0 || cases.gslDelay == 0 || cases.sharedSat < 2 {
		t.Fatalf("generator missed a case: %+v", cases)
	}

	// Reorder-only blocks fold to nothing, at every station, with one
	// satellite listed by all of them.
	w := newFoldWorld(rng, 12, 1, 4)
	w.c.edges[0] = nil
	var oldSeqs, newSeqs [][]uplink
	for gi := 0; gi < 4; gi++ {
		seq := []uplink{{0, 3}, {int32(1 + gi), 2}, {int32(5 + gi), 4}}
		oldSeqs = append(oldSeqs, seq)
		newSeqs = append(newSeqs, []uplink{seq[2], seq[0], seq[1]})
	}
	prev, next := w.state(0, nil, oldSeqs), w.state(1, nil, newSeqs)
	next.diffLinksFrom(prev)
	if len(next.diff.Added) != 12 || len(next.diff.Removed) != 12 {
		t.Fatalf("reordered blocks shipped %d added, %d removed links; want 12 each",
			len(next.diff.Added), len(next.diff.Removed))
	}
	if got := appendEdgeDeltas(nil, &next.diff, w.sats, &fold); len(got) != 0 {
		t.Fatalf("reorder-only ticks folded to %v, want nothing", got)
	}
}

// FuzzEdgeDeltasMatchReference runs the fold differential over generated
// ticks of fuzzer-chosen shape.
func FuzzEdgeDeltasMatchReference(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(1), uint8(3))
	f.Add(int64(2), uint8(40), uint8(3), uint8(6))
	f.Add(int64(3), uint8(1), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, sats, shells, stations uint8) {
		rng := rand.New(rand.NewSource(seed))
		w := newFoldWorld(rng, 1+int(sats)%64, 1+int(shells)%4, 1+int(stations)%8)
		var fold handoverFold
		for tick := 0; tick < 3; tick++ {
			prev, next := w.randomFoldTick(rng, &foldCases{})
			compareEdgeDeltas(t, w, prev, next, &fold)
		}
	})
}
