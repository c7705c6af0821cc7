package topo

import (
	"math"
	"math/rand"
	"testing"

	"celestial/internal/geom"
)

// assertIndexEquivalent checks an incrementally updated index against a
// fresh build over the same positions: exact same maximum radius, the same
// live satellite set per grid cell, and identical query results at the
// given stations for several masks.
func assertIndexEquivalent(t *testing.T, got, ref *VisIndex, stations []geom.Vec3, ctx string) {
	t.Helper()
	if got.maxRadiusKm != ref.maxRadiusKm {
		t.Fatalf("%s: max radius %v vs %v", ctx, got.maxRadiusKm, ref.maxRadiusKm)
	}
	if got.latCells != ref.latCells || got.lonCells != ref.lonCells {
		t.Fatalf("%s: grid %dx%d vs %dx%d", ctx, got.latCells, got.lonCells, ref.latCells, ref.lonCells)
	}
	cells := ref.latCells * ref.lonCells
	for c := 0; c < cells; c++ {
		want := map[int32]bool{}
		for _, si := range ref.idx[ref.start[c] : ref.start[c]+ref.cnt[c]] {
			want[si] = true
		}
		if int(got.cnt[c]) != len(want) {
			t.Fatalf("%s: cell %d holds %d sats, want %d", ctx, c, got.cnt[c], len(want))
		}
		for _, si := range got.idx[got.start[c] : got.start[c]+got.cnt[c]] {
			if !want[si] {
				t.Fatalf("%s: cell %d holds stray sat %d", ctx, c, si)
			}
		}
	}
	for _, s := range stations {
		for _, elev := range []float64{0, 10, 25} {
			want := ref.VisibleInto(s, elev, nil)
			gotUp := got.VisibleInto(s, elev, nil)
			assertUplinksEqual(t, want, gotUp, ctx)
		}
	}
}

// TestVisIndexUpdateMatchesBuildOverTicks is the tentpole differential: an
// index maintained purely by Update across many propagation steps of a
// real shell is exactly equivalent to a fresh Build at every tick.
func TestVisIndexUpdateMatchesBuildOverTicks(t *testing.T) {
	stations := benchStations(24)
	cell := SuggestedCellDeg(550, 25)
	var inc VisIndex
	for tick := 0; tick <= 20; tick++ {
		pos := shellPositions(t, float64(tick)*30)
		inc.Update(pos, cell, 4)
		var ref VisIndex
		ref.Build(pos, cell, 4)
		assertIndexEquivalent(t, &inc, &ref, stations, "multi-tick update")
	}
}

// TestVisIndexUpdateAntimeridian drifts a cluster of satellites across the
// ±180° meridian so they re-bucket between the first and last longitude
// column, and queries from stations on both sides of the date line.
func TestVisIndexUpdateAntimeridian(t *testing.T) {
	stations := []geom.Vec3{
		geom.LatLon{LatDeg: 10, LonDeg: 179.9}.ECEF(),
		geom.LatLon{LatDeg: 10, LonDeg: -179.9}.ECEF(),
		geom.LatLon{LatDeg: -33, LonDeg: 178}.ECEF(),
	}
	positionsAt := func(step int) []geom.Vec3 {
		pos := make([]geom.Vec3, 40)
		for i := range pos {
			lon := 178.0 + float64(step)*0.7 + float64(i)*0.11
			for lon > 180 {
				lon -= 360
			}
			lat := -30 + float64(i%10)*7
			pos[i] = geom.LatLon{LatDeg: lat, LonDeg: lon, AltKm: 550 + float64(i%5)}.ECEF()
		}
		return pos
	}
	var inc VisIndex
	for step := 0; step <= 12; step++ {
		pos := positionsAt(step)
		inc.Update(pos, 4, 2)
		var ref VisIndex
		ref.Build(pos, 4, 2)
		assertIndexEquivalent(t, &inc, &ref, stations, "antimeridian drift")
	}
}

// TestVisIndexUpdatePolar marches satellites over the pole, exercising the
// clamped top and bottom latitude bands and the all-longitude query walk.
func TestVisIndexUpdatePolar(t *testing.T) {
	stations := []geom.Vec3{
		geom.LatLon{LatDeg: 89.9, LonDeg: 0}.ECEF(),
		geom.LatLon{LatDeg: -89.9, LonDeg: 90}.ECEF(),
		geom.LatLon{LatDeg: 85, LonDeg: -120}.ECEF(),
	}
	positionsAt := func(step int) []geom.Vec3 {
		pos := make([]geom.Vec3, 30)
		for i := range pos {
			// Sweep latitude up through the pole band and back down the
			// far side (latitudes above 90 fold over with flipped
			// longitude, like a real polar pass).
			lat := 75 + float64(step)*2 + float64(i%6)
			lon := float64(i) * 12
			if lat > 90 {
				lat = 180 - lat
				lon += 180
			}
			for lon > 180 {
				lon -= 360
			}
			pos[i] = geom.LatLon{LatDeg: lat, LonDeg: lon, AltKm: 560}.ECEF()
		}
		return pos
	}
	var inc VisIndex
	for step := 0; step <= 10; step++ {
		pos := positionsAt(step)
		inc.Update(pos, 3, 3)
		var ref VisIndex
		ref.Build(pos, 3, 3)
		assertIndexEquivalent(t, &inc, &ref, stations, "polar pass")
	}
}

// TestVisIndexUpdateOscillation flips satellites across a cell boundary on
// every tick — the worst case for the per-cell slack scheme, repeatedly
// exercising swap-removal, slack append, and the repack path once a cell's
// slack runs out.
func TestVisIndexUpdateOscillation(t *testing.T) {
	stations := []geom.Vec3{
		geom.LatLon{LatDeg: 0, LonDeg: 0}.ECEF(),
		geom.LatLon{LatDeg: 2, LonDeg: 2}.ECEF(),
	}
	const n = 50
	positionsAt := func(side int) []geom.Vec3 {
		pos := make([]geom.Vec3, n)
		for i := range pos {
			// Cell boundaries at multiples of 4° (cellDeg = 4): oscillate
			// across the lon = 0 boundary; a few sats oscillate across a
			// lat boundary instead.
			lon := -0.3 + 0.6*float64(side)
			lat := 0.5 + float64(i%8)
			if i%7 == 0 {
				lon = 1 + float64(i%3)
				lat = -0.3 + 0.6*float64(side)
			}
			pos[i] = geom.LatLon{LatDeg: lat, LonDeg: lon + float64(i/8)*0.01, AltKm: 550}.ECEF()
		}
		return pos
	}
	var inc VisIndex
	for tick := 0; tick <= 16; tick++ {
		pos := positionsAt(tick % 2)
		inc.Update(pos, 4, 1)
		var ref VisIndex
		ref.Build(pos, 4, 1)
		assertIndexEquivalent(t, &inc, &ref, stations, "boundary oscillation")
	}
}

// TestVisIndexUpdateFallsBackToBuild covers the cold-start and
// shape-change fallbacks: a fresh index, a changed satellite count, and a
// changed cell size must all rebuild and stay exact.
func TestVisIndexUpdateFallsBackToBuild(t *testing.T) {
	station := geom.LatLon{LatDeg: 48, LonDeg: 11}.ECEF()
	pos := shellPositions(t, 7)
	var ix VisIndex
	ix.Update(pos, 6, 2) // cold start: must behave as Build
	want := VisibleSats(station, pos, 25)
	assertUplinksEqual(t, want, ix.VisibleInto(station, 25, nil), "cold-start update")

	short := pos[:len(pos)-5]
	ix.Update(short, 6, 2) // count change
	want = VisibleSats(station, short, 25)
	assertUplinksEqual(t, want, ix.VisibleInto(station, 25, nil), "count change")

	ix.Update(short, 9, 2) // grid change
	want = VisibleSats(station, short, 25)
	assertUplinksEqual(t, want, ix.VisibleInto(station, 25, nil), "grid change")

	ix.Update(nil, 9, 2) // back to empty
	if got := ix.VisibleInto(station, 25, nil); len(got) != 0 {
		t.Fatalf("empty update returned %d uplinks", len(got))
	}
}

// TestVisIndexUpdateWorkerInvariance locks in that the incremental path is
// deterministic in the worker count, including the lock-free partial-max
// reduction.
func TestVisIndexUpdateWorkerInvariance(t *testing.T) {
	stations := benchStations(8)
	var ref VisIndex
	for tick := 0; tick <= 6; tick++ {
		ref.Update(shellPositions(t, float64(tick)*45), 5, 1)
	}
	for _, workers := range []int{2, 3, 8, 64} {
		var ix VisIndex
		for tick := 0; tick <= 6; tick++ {
			ix.Update(shellPositions(t, float64(tick)*45), 5, workers)
		}
		assertIndexEquivalent(t, &ix, &ref, stations, "update worker invariance")
	}
}

// TestVisIndexUpdateRandomChurn stresses the bucket bookkeeping with
// unstructured random motion far beyond what orbital dynamics produce.
func TestVisIndexUpdateRandomChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	stations := benchStations(10)
	const n = 200
	lat := make([]float64, n)
	lon := make([]float64, n)
	for i := range lat {
		lat[i] = rng.Float64()*176 - 88
		lon[i] = rng.Float64()*360 - 180
	}
	positions := func() []geom.Vec3 {
		pos := make([]geom.Vec3, n)
		for i := range pos {
			pos[i] = geom.LatLon{LatDeg: lat[i], LonDeg: lon[i], AltKm: 540 + 30*rng.Float64()}.ECEF()
		}
		return pos
	}
	var inc VisIndex
	for tick := 0; tick < 12; tick++ {
		for i := range lat {
			lat[i] += rng.Float64()*16 - 8
			if lat[i] > 88 {
				lat[i] = 88
			} else if lat[i] < -88 {
				lat[i] = -88
			}
			lon[i] += rng.Float64()*30 - 15
			lon[i] = math.Mod(lon[i]+540, 360) - 180
		}
		pos := positions()
		inc.Update(pos, 5, 3)
		var ref VisIndex
		ref.Build(pos, 5, 3)
		assertIndexEquivalent(t, &inc, &ref, stations, "random churn")
	}
}

// checkCellNear requires cellNear to return cellOfPos's cell for p under
// every hint in and around that cell, and under one arbitrary hint.
func checkCellNear(t *testing.T, ix *VisIndex, p geom.Vec3, anyHint int) {
	t.Helper()
	r := p.Norm()
	want := ix.cellOfPos(p, r)
	b, c := int(want)/ix.lonCells, int(want)%ix.lonCells
	hints := []int{anyHint % (ix.latCells * ix.lonCells)}
	for hb := b - 1; hb <= b+1; hb++ {
		for dc := -1; dc <= 1; dc++ {
			if hb >= 0 && hb < ix.latCells {
				hints = append(hints, hb*ix.lonCells+(c+dc+ix.lonCells)%ix.lonCells)
			}
		}
	}
	for _, h := range hints {
		if got := ix.cellNear(p, r, int32(h)); got != want {
			t.Fatalf("cell %v°, p %+v, hint %d: cellNear %d, formula %d", ix.cellDeg, p, h, got, want)
		}
	}
}

// gridOf returns an index laid out on cellDeg cells.
func gridOf(cellDeg float64) *VisIndex {
	var ix VisIndex
	ix.Build([]geom.Vec3{{X: geom.EarthRadiusKm + 550}}, cellDeg, 1)
	return &ix
}

// checkCellNearAtEdge places a position on a band edge and a meridian edge
// of ix's grid (or at a pole, or on ±180°), nudged by ulps.
func checkCellNearAtEdge(t *testing.T, ix *VisIndex, band, meridian uint8, r float64, ulps int8, anyHint int) {
	t.Helper()
	lat := math.Min(float64(int(band)%(ix.latCells+1))*ix.cellDeg-90, 90)
	lon := math.Min(float64(int(meridian)%(ix.lonCells+1))*ix.cellDeg-180, 180)
	r = geom.EarthRadiusKm + fold(r, 150, 2450)
	p := geom.Vec3{
		X: r * math.Cos(geom.Rad(lat)) * math.Cos(geom.Rad(lon)),
		Y: r * math.Cos(geom.Rad(lat)) * math.Sin(geom.Rad(lon)),
		Z: r * math.Sin(geom.Rad(lat)),
	}
	checkCellNear(t, ix, nudge(p, int(ulps)%9), anyHint)
}

// TestCellNearMatchesFormulaRandom is the seeded twin of
// FuzzCellNearMatchesFormula: positions on and a few ulps off every edge
// of several grids, then random positions.
func TestCellNearMatchesFormulaRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for _, cellDeg := range []float64{1, 4, 5.7, 8, 12.35, 30} {
		ix := gridOf(cellDeg)
		for band := 0; band <= ix.latCells; band += 1 + band%3 {
			for meridian := 0; meridian <= ix.lonCells; meridian += 1 + rng.Intn(7) {
				for ulps := -4; ulps <= 4; ulps++ {
					checkCellNearAtEdge(t, ix, uint8(band), uint8(meridian), rng.Float64()*2450, int8(ulps), rng.Intn(1<<20))
				}
			}
		}
		for i := 0; i < 500; i++ {
			p := geom.LatLon{LatDeg: rng.Float64()*180 - 90, LonDeg: rng.Float64()*360 - 180, AltKm: rng.Float64() * 2500}.ECEF()
			checkCellNear(t, ix, p, rng.Intn(1<<20))
		}
	}
}

// FuzzCellNearMatchesFormula lets the fuzzer pick the grid, the edge and
// the nudge: a kept hint must be the cell asin and atan2 give.
func FuzzCellNearMatchesFormula(f *testing.F) {
	f.Add(5.7, uint8(3), uint8(0), 550.0, int8(0), 7)
	f.Add(12.35, uint8(15), uint8(30), 1325.0, int8(-1), 12)
	f.Add(30.0, uint8(0), uint8(12), 340.0, int8(1), 99)
	f.Add(1.0, uint8(180), uint8(255), 780.0, int8(8), 0)
	f.Fuzz(func(t *testing.T, cellDeg float64, band, meridian uint8, r float64, ulps int8, anyHint int) {
		if anyHint < 0 {
			anyHint = -(anyHint + 1)
		}
		checkCellNearAtEdge(t, gridOf(fold(cellDeg, 1, 29)), band, meridian, r, ulps, anyHint)
	})
}
