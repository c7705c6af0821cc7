package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVecOps(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, 5, 6}
	if got := a.Add(b); got != (Vec3{5, 7, 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := b.Sub(a); got != (Vec3{3, 3, 3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Dot(b); got != 32 {
		t.Errorf("Dot = %v", got)
	}
	if got := (Vec3{3, 4, 0}).Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
	if got := (Vec3{0, 0, 2}).Unit(); got != (Vec3{0, 0, 1}) {
		t.Errorf("Unit = %v", got)
	}
	if got := (Vec3{}).Unit(); got != (Vec3{}) {
		t.Errorf("Unit(zero) = %v", got)
	}
	if got := a.Scale(2); got != (Vec3{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Distance(b); !almostEqual(got, math.Sqrt(27), 1e-12) {
		t.Errorf("Distance = %v", got)
	}
}

func TestDegRadRoundTrip(t *testing.T) {
	if err := quick.Check(func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
			return true
		}
		return almostEqual(Deg(Rad(x)), x, 1e-9*math.Max(1, math.Abs(x)))
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestECEFKnownPoints(t *testing.T) {
	tests := []struct {
		name string
		in   LatLon
		want Vec3
		tol  float64
	}{
		{"equator prime meridian", LatLon{0, 0, 0}, Vec3{6378.137, 0, 0}, 1e-6},
		{"north pole", LatLon{90, 0, 0}, Vec3{0, 0, 6356.7523142}, 1e-3},
		{"south pole", LatLon{-90, 0, 0}, Vec3{0, 0, -6356.7523142}, 1e-3},
		{"equator 90E", LatLon{0, 90, 0}, Vec3{0, 6378.137, 0}, 1e-6},
		{"equator 550km up", LatLon{0, 0, 550}, Vec3{6928.137, 0, 0}, 1e-6},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.in.ECEF()
			if got.Distance(tt.want) > tt.tol {
				t.Errorf("ECEF(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestGeodeticRoundTrip(t *testing.T) {
	err := quick.Check(func(lat, lon, alt float64) bool {
		lat = math.Mod(math.Abs(lat), 89) // stay off the poles for lon comparison
		lon = math.Mod(lon, 180)
		alt = math.Mod(math.Abs(alt), 2000)
		in := LatLon{lat, lon, alt}
		out := ToGeodetic(in.ECEF())
		return almostEqual(out.LatDeg, in.LatDeg, 1e-6) &&
			almostEqual(out.LonDeg, in.LonDeg, 1e-6) &&
			almostEqual(out.AltKm, in.AltKm, 1e-6)
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Error(err)
	}
}

func TestToGeodeticPole(t *testing.T) {
	got := ToGeodetic(Vec3{0, 0, 7000})
	if !almostEqual(got.LatDeg, 90, 1e-6) {
		t.Errorf("pole latitude = %v", got.LatDeg)
	}
	if !almostEqual(got.AltKm, 7000-6356.7523142, 1e-3) {
		t.Errorf("pole altitude = %v", got.AltKm)
	}
}

func TestNormalizeLonDeg(t *testing.T) {
	tests := []struct{ in, want float64 }{
		{0, 0}, {180, 180}, {-180, 180}, {181, -179}, {-181, 179},
		{360, 0}, {540, 180}, {720, 0}, {-360, 0},
	}
	for _, tt := range tests {
		if got := NormalizeLonDeg(tt.in); !almostEqual(got, tt.want, 1e-9) {
			t.Errorf("NormalizeLonDeg(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestGreatCircle(t *testing.T) {
	// Quarter of Earth's circumference between equator and pole.
	want := math.Pi / 2 * EarthRadiusKm
	got := GreatCircleKm(LatLon{0, 0, 0}, LatLon{90, 0, 0})
	if !almostEqual(got, want, 1e-6) {
		t.Errorf("equator to pole = %v, want %v", got, want)
	}
	// Symmetry and identity.
	a, b := LatLon{52.52, 13.40, 0}, LatLon{40.71, -74.01, 0} // Berlin, NYC
	if d := GreatCircleKm(a, a); d != 0 {
		t.Errorf("self distance = %v", d)
	}
	if d1, d2 := GreatCircleKm(a, b), GreatCircleKm(b, a); !almostEqual(d1, d2, 1e-9) {
		t.Errorf("asymmetric: %v vs %v", d1, d2)
	}
	// Berlin to New York is about 6385 km.
	if d := GreatCircleKm(a, b); d < 6300 || d > 6500 {
		t.Errorf("Berlin-NYC = %v km, want ≈6385", d)
	}
}

func TestGMSTReference(t *testing.T) {
	// Vallado example 3-5: 1992 Aug 20 12:14 UT1 -> GMST 152.578788°.
	jd := JulianDate(1992, 8, 20, 12, 14, 0)
	got := Deg(GMST(jd))
	if !almostEqual(got, 152.578788, 1e-4) {
		t.Errorf("GMST = %v°, want 152.578788°", got)
	}
}

func TestJulianDateKnown(t *testing.T) {
	// J2000.0 epoch: 2000 Jan 1 12:00 TT ~ JD 2451545.0.
	if jd := JulianDate(2000, 1, 1, 12, 0, 0); !almostEqual(jd, 2451545.0, 1e-9) {
		t.Errorf("J2000 = %v", jd)
	}
	// Unix epoch: 1970 Jan 1 00:00 -> JD 2440587.5.
	if jd := JulianDate(1970, 1, 1, 0, 0, 0); !almostEqual(jd, 2440587.5, 1e-9) {
		t.Errorf("unix epoch = %v", jd)
	}
}

func TestECIECEFRoundTrip(t *testing.T) {
	err := quick.Check(func(x, y, z, theta float64) bool {
		if math.IsNaN(x+y+z+theta) || math.IsInf(x+y+z+theta, 0) {
			return true
		}
		theta = math.Mod(theta, 2*math.Pi)
		p := Vec3{math.Mod(x, 1e4), math.Mod(y, 1e4), math.Mod(z, 1e4)}
		q := EarthRotationAt(-theta).ECIToECEF(EarthRotationAt(theta).ECIToECEF(p))
		return p.Distance(q) < 1e-6
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

func TestECIToECEFQuarterTurn(t *testing.T) {
	p := Vec3{1000, 0, 42}
	got := EarthRotationAt(math.Pi / 2).ECIToECEF(p)
	want := Vec3{0, -1000, 42}
	if got.Distance(want) > 1e-9 {
		t.Errorf("quarter turn = %v, want %v", got, want)
	}
}

func TestLineOfSight(t *testing.T) {
	r := EarthRadiusKm
	tests := []struct {
		name string
		a, b Vec3
		occ  float64
		want bool
	}{
		{"adjacent sats same side", Vec3{r + 550, 0, 0}, Vec3{r + 550, 1000, 0}, 80, true},
		{"opposite sides of earth", Vec3{r + 550, 0, 0}, Vec3{-(r + 550), 0, 0}, 80, false},
		// Two satellites at 600 km separated by 40° central angle: the
		// chord's closest approach is R·cos(20°) ≈ 6557 km > 6458 km.
		{"40 degrees apart clears atmosphere",
			Vec3{r + 600, 0, 0},
			Vec3{(r + 600) * math.Cos(Rad(40)), (r + 600) * math.Sin(Rad(40)), 0}, 80, true},
		// At 120° the closest approach is R·cos(60°) ≈ 3489 km: occluded.
		{"120 degrees apart occluded",
			Vec3{r + 600, 0, 0},
			Vec3{(r + 600) * math.Cos(Rad(120)), (r + 600) * math.Sin(Rad(120)), 0}, 80, false},
		{"degenerate same point above", Vec3{r + 550, 0, 0}, Vec3{r + 550, 0, 0}, 80, true},
		{"degenerate same point below cutoff", Vec3{r + 50, 0, 0}, Vec3{r + 50, 0, 0}, 80, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, got := LineOfSight(tt.a, tt.b, tt.occ); got != tt.want {
				t.Errorf("LineOfSight = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestLineOfSightSymmetric(t *testing.T) {
	err := quick.Check(func(ax, ay, az, bx, by, bz float64) bool {
		a := Vec3{math.Mod(ax, 9000), math.Mod(ay, 9000), math.Mod(az, 9000)}
		b := Vec3{math.Mod(bx, 9000), math.Mod(by, 9000), math.Mod(bz, 9000)}
		_, ab := LineOfSight(a, b, 80)
		_, ba := LineOfSight(b, a, 80)
		return ab == ba
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

// TestLineOfSightLengthIsDistance: the length LineOfSight returns is
// a.Distance(b) bit for bit, in both directions, clear or not.
func TestLineOfSightLengthIsDistance(t *testing.T) {
	err := quick.Check(func(ax, ay, az, bx, by, bz float64) bool {
		a := Vec3{math.Mod(ax, 9000), math.Mod(ay, 9000), math.Mod(az, 9000)}
		b := Vec3{math.Mod(bx, 9000), math.Mod(by, 9000), math.Mod(bz, 9000)}
		ab, _ := LineOfSight(a, b, 80)
		ba, _ := LineOfSight(b, a, 80)
		d := math.Float64bits(a.Distance(b))
		return math.Float64bits(ab) == d && math.Float64bits(ba) == d
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

func TestFootprint(t *testing.T) {
	// Higher altitude => larger footprint; higher min elevation => smaller.
	lo := Footprint(550, 30)
	hi := Footprint(1325, 30)
	if hi <= lo {
		t.Errorf("footprint(1325) = %v <= footprint(550) = %v", hi, lo)
	}
	strict := Footprint(550, 60)
	if strict >= lo {
		t.Errorf("footprint at 60° = %v >= at 30° = %v", strict, lo)
	}
	// At 90° min elevation the footprint collapses to ~0.
	if f := Footprint(550, 90); !almostEqual(f, 0, 1e-9) {
		t.Errorf("footprint at 90° = %v", f)
	}
}

func TestPropagationDelay(t *testing.T) {
	// 29979.2458 km at c is exactly 100 ms.
	if d := PropagationDelay(29979.2458); !almostEqual(d, 0.1, 1e-12) {
		t.Errorf("delay = %v", d)
	}
}

func TestSlantRange(t *testing.T) {
	g := LatLon{0, 0, 0}
	s := LatLon{0, 0, 550}.ECEF()
	if d := g.ECEF().Distance(s); !almostEqual(d, 550, 1e-9) {
		t.Errorf("slant range = %v", d)
	}
}

func BenchmarkECEF(b *testing.B) {
	l := LatLon{52.52, 13.4, 0}
	for i := 0; i < b.N; i++ {
		_ = l.ECEF()
	}
}

func BenchmarkToGeodetic(b *testing.B) {
	p := LatLon{52.52, 13.4, 550}.ECEF()
	for i := 0; i < b.N; i++ {
		_ = ToGeodetic(p)
	}
}

func BenchmarkLineOfSight(b *testing.B) {
	a := Vec3{EarthRadiusKm + 550, 0, 0}
	c := Vec3{0, EarthRadiusKm + 550, 0}
	for i := 0; i < b.N; i++ {
		_, _ = LineOfSight(a, c, 80)
	}
}
