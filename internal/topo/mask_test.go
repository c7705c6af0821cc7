package topo

import (
	"math"
	"math/rand"
	"testing"

	"celestial/internal/geom"
)

// elevationOracle is the elevation test as a whole, per candidate: the
// station's zenith normalised, the sine of elevation clamped, asin taken
// and converted to degrees, for every satellite.
func elevationOracle(station, target geom.Vec3) float64 {
	los := target.Sub(station)
	zenith := station.Unit()
	sinEl := los.Unit().Dot(zenith)
	if sinEl > 1 {
		sinEl = 1
	} else if sinEl < -1 {
		sinEl = -1
	}
	return geom.Deg(math.Asin(sinEl))
}

func TestElevation(t *testing.T) {
	ground := geom.LatLon{}.ECEF()
	// Satellite directly overhead.
	overhead := geom.LatLon{AltKm: 550}.ECEF()
	if el := elevationOracle(ground, overhead); math.Abs(el-90) > 1e-6 {
		t.Errorf("overhead elevation = %v", el)
	}
	// Satellite on the horizon plane (same radial distance, 90° away).
	horizon := geom.LatLon{LonDeg: 90}.ECEF()
	if el := elevationOracle(ground, horizon); el >= 0 {
		t.Errorf("far satellite elevation = %v, want negative", el)
	}
	// The clamp's floor is exactly −90°: masks at or below it accept
	// everything and so may reject nothing early.
	if el := elevationDeg(-1); el != -90 {
		t.Errorf("elevationDeg(-1) = %v, want exactly -90", el)
	}
	for _, mask := range []float64{-90, -100, 90.5, math.NaN()} {
		if u := newUplinkTest(ground, mask); !math.IsInf(u.rejectBelow, -1) || !math.IsInf(u.acceptFrom, 1) {
			t.Errorf("mask %v decides below %v and from %v without asin, want neither", mask, u.rejectBelow, u.acceptFrom)
		}
	}
}

// sameFloat reports whether a and b have the same bits.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkAcceptMatchesAsin requires uplinkTest.accept to decide sinEl as the
// asin test does, and an uplink holding sinEl to report that test's
// elevation bit for bit.
func checkAcceptMatchesAsin(t *testing.T, u *uplinkTest, sinEl float64) {
	t.Helper()
	want := elevationDeg(sinEl)
	if ok := u.accept(sinEl); ok != (want >= u.minElevDeg) {
		t.Fatalf("mask %v (asin between %v and %v), sinEl %v: accept = %v, asin test = (%v, %v)",
			u.minElevDeg, u.rejectBelow, u.acceptFrom, sinEl, ok, want, want >= u.minElevDeg)
	}
	if el := (Uplink{SinEl: sinEl}).ElevationDeg(); !sameFloat(el, want) {
		t.Fatalf("sinEl %v: Uplink.ElevationDeg = %v, asin test %v", sinEl, el, want)
	}
}

// satAtElevation places a satellite at radius r seen from station at
// elevation elDeg and azimuth azDeg (geocentric horizon frame).
func satAtElevation(station geom.Vec3, elDeg, azDeg, r float64) geom.Vec3 {
	up := station.Unit()
	east := geom.Vec3{X: -station.Y, Y: station.X}.Unit()
	if east.Norm() == 0 {
		east = geom.Vec3{Y: 1}
	}
	north := geom.Vec3{
		X: up.Y*east.Z - up.Z*east.Y,
		Y: up.Z*east.X - up.X*east.Z,
		Z: up.X*east.Y - up.Y*east.X,
	}
	el, az := geom.Rad(elDeg), geom.Rad(azDeg)
	dir := up.Scale(math.Sin(el)).Add(east.Scale(math.Cos(el) * math.Sin(az))).Add(north.Scale(math.Cos(el) * math.Cos(az)))
	// Range along dir to the sphere of radius r: |station + d·dir| = r.
	rs := station.Norm()
	b := station.Dot(dir)
	d := -b + math.Sqrt(b*b+r*r-rs*rs)
	return station.Add(dir.Scale(d))
}

// nudge moves each coordinate of p by k ulps.
func nudge(p geom.Vec3, k int) geom.Vec3 {
	step := func(x float64) float64 {
		for i := 0; i < k; i++ {
			x = math.Nextafter(x, math.Inf(1))
		}
		for i := 0; i > k; i-- {
			x = math.Nextafter(x, math.Inf(-1))
		}
		return x
	}
	return geom.Vec3{X: step(p.X), Y: step(p.Y), Z: step(p.Z)}
}

// fold maps x into [lo, lo+span): values inside stay as they are, others
// wrap, and NaN and ±Inf go to lo.
func fold(x, lo, span float64) float64 {
	switch {
	case math.IsNaN(x) || math.IsInf(x, 0):
		return lo
	case x >= lo && x < lo+span:
		return x
	}
	return lo + math.Mod(math.Abs(x), span)
}

// checkMaskMatchesAsin runs one case: a station, a mask in [0, 90), and
// satellites at LEO radii, one of them placed on the mask and nudged by a
// few ulps. The sines within 8 ulps of sin(mask) and of the early-reject
// and early-accept thresholds must be decided as asin decides them; the
// brute scan must return exactly the satellites, and elevations, the
// per-candidate asin test accepts; and the index must return exactly the
// brute scan's list (a subsequence of it when its walk wraps across ±180°).
func checkMaskMatchesAsin(t *testing.T, lat, lon, alt, mask, az, el, r float64, ulps int8) {
	t.Helper()
	mask = fold(mask, 0, 90)
	station := geom.LatLon{LatDeg: fold(lat, -90, 180), LonDeg: fold(lon, -180, 360), AltKm: fold(alt, -0.5, 9.5)}.ECEF()
	u := newUplinkTest(station, mask)

	sinMask := math.Sin(geom.Rad(mask))
	for _, edge := range []float64{sinMask, u.rejectBelow, u.acceptFrom} {
		x := edge
		for i := 0; i < 8; i++ {
			x = math.Nextafter(x, math.Inf(-1))
		}
		for i := 0; i <= 16; i++ {
			checkAcceptMatchesAsin(t, &u, x)
			x = math.Nextafter(x, math.Inf(1))
		}
	}

	radius := geom.EarthRadiusKm + fold(r, 150, 2450)
	azDeg := fold(az, 0, 360)
	sats := []geom.Vec3{
		nudge(satAtElevation(station, mask, azDeg, radius), int(ulps)%9),
		satAtElevation(station, fold(el, -90, 180), azDeg+120, radius),
		satAtElevation(station, 90, 0, radius),
		satAtElevation(station, mask/2, azDeg+240, radius),
		satAtElevation(station, (mask+90)/2, azDeg+60, radius),
	}
	type visible struct {
		sat             int
		distKm, elevDeg float64
	}
	var want []visible
	for i, s := range sats {
		if e := elevationOracle(station, s); e >= mask {
			want = append(want, visible{sat: i, distKm: station.Distance(s), elevDeg: e})
		}
	}
	got := VisibleSatsInto(station, sats, mask, nil)
	if len(got) != len(want) {
		t.Fatalf("mask %v: brute scan %+v, asin test %+v", mask, got, want)
	}
	for _, g := range got {
		var w *visible
		for i := range want {
			if want[i].sat == g.Sat {
				w = &want[i]
			}
		}
		if w == nil || !sameFloat(g.ElevationDeg(), w.elevDeg) || !sameFloat(g.DistanceKm, w.distKm) {
			t.Fatalf("mask %v: brute scan %+v, asin test %+v", mask, got, want)
		}
	}
	var ix VisIndex
	ix.Build(sats, SuggestedCellDeg(radius-geom.EarthRadiusKm, mask), 1)
	indexed := ix.VisibleInto(station, mask, nil)
	// The walk is exact when it visits every cell, or stays clear of
	// ±180° and of the last, partial cell.
	if _, _, l0, l1 := ix.window(station, mask); l0 == 0 && l1 == ix.lonCells-1 || l0 >= 0 && l1 < ix.lonCells-1 {
		assertUplinksEqual(t, got, indexed, "index against brute scan")
		return
	}
	// A cap that may cross ±180°, where the index can miss candidates (the
	// defect window documents): what it returns must still be the brute
	// scan's uplinks, bit for bit and in its order.
	for i, j := 0, 0; i < len(indexed); i, j = i+1, j+1 {
		for j < len(got) && got[j].Sat != indexed[i].Sat {
			j++
		}
		if j == len(got) || got[j] != indexed[i] {
			t.Fatalf("mask %v: wrapped index %+v is not a subsequence of brute scan %+v", mask, indexed, got)
		}
	}
}

// TestElevationMaskMatchesAsinRandom is the seeded twin of
// FuzzElevationMaskMatchesAsin.
func TestElevationMaskMatchesAsinRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for _, mask := range []float64{0, 10, 25, 30, 40, 89.999999} {
		checkMaskMatchesAsin(t, 52.5, 13.4, 0.03, mask, 0, 45, 550, 0)
	}
	for i := 0; i < 2000; i++ {
		checkMaskMatchesAsin(t, rng.Float64()*180-90, rng.Float64()*360-180, rng.Float64()*3,
			rng.Float64()*90, rng.Float64()*360, rng.Float64()*180-90, rng.Float64()*2450,
			int8(rng.Intn(17)-8))
	}
}

// FuzzElevationMaskMatchesAsin lets the fuzzer pick the station, the mask
// and the satellites: the early rejection and acceptance on sines must
// never decide a candidate differently from asin, nor the kept sine give
// an accepted elevation other bits.
func FuzzElevationMaskMatchesAsin(f *testing.F) {
	f.Add(52.5, 13.4, 0.03, 25.0, 0.0, 45.0, 550.0, int8(0))
	f.Add(-33.9, 151.2, 0.0, 10.0, 90.0, 9.999999, 340.0, int8(1))
	f.Add(89.9, -180.0, 2.0, 40.0, 270.0, -5.0, 1325.0, int8(-1))
	f.Add(0.0, 0.0, 0.0, 0.0, 180.0, 0.0, 780.0, int8(3))
	f.Add(12.0, 77.0, 0.9, 89.999, 33.0, 89.0, 614.0, int8(-8))
	f.Fuzz(func(t *testing.T, lat, lon, alt, mask, az, el, r float64, ulps int8) {
		checkMaskMatchesAsin(t, lat, lon, alt, mask, az, el, r, ulps)
	})
}
