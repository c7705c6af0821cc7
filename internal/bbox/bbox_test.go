package bbox

import (
	"math"
	"testing"
	"testing/quick"

	"celestial/internal/geom"
	"celestial/internal/rng"
)

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		box     Box
		wantErr bool
	}{
		{"whole earth", WholeEarth, false},
		{"west africa", Box{-5, -20, 20, 20}, false},
		{"antimeridian pacific", Box{-40, 150, 40, -120}, false},
		{"bad lat order", Box{40, 0, 20, 10}, true},
		{"lat too low", Box{-91, 0, 0, 10}, true},
		{"lat too high", Box{0, 0, 95, 10}, true},
		{"lon out of range", Box{0, -190, 10, 0}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.box.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestContains(t *testing.T) {
	africa := Box{-5, -20, 25, 25}
	tests := []struct {
		name string
		loc  geom.LatLon
		want bool
	}{
		{"accra inside", geom.LatLon{LatDeg: 5.6, LonDeg: -0.19}, true},
		{"johannesburg outside", geom.LatLon{LatDeg: -26.2, LonDeg: 28.05}, false},
		{"north edge", geom.LatLon{LatDeg: 25, LonDeg: 0}, true},
		{"just north", geom.LatLon{LatDeg: 25.01, LonDeg: 0}, false},
		{"west edge", geom.LatLon{LatDeg: 0, LonDeg: -20}, true},
		{"lon wrapped to inside", geom.LatLon{LatDeg: 0, LonDeg: 340}, true}, // 340 => -20
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := africa.Contains(tt.loc); got != tt.want {
				t.Errorf("Contains(%v) = %v, want %v", tt.loc, got, tt.want)
			}
		})
	}
}

func TestContainsAntimeridian(t *testing.T) {
	pacific := Box{-40, 150, 40, -120}
	tests := []struct {
		name string
		loc  geom.LatLon
		want bool
	}{
		{"fiji", geom.LatLon{LatDeg: -17.7, LonDeg: 178}, true},
		{"hawaii", geom.LatLon{LatDeg: 21.3, LonDeg: -157.8}, true},
		{"dateline", geom.LatLon{LatDeg: 0, LonDeg: 180}, true},
		{"greenwich", geom.LatLon{LatDeg: 0, LonDeg: 0}, false},
		{"too far north", geom.LatLon{LatDeg: 50, LonDeg: 180}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := pacific.Contains(tt.loc); got != tt.want {
				t.Errorf("Contains(%v) = %v, want %v", tt.loc, got, tt.want)
			}
		})
	}
}

func TestWholeEarthContainsEverything(t *testing.T) {
	err := quick.Check(func(lat, lon float64) bool {
		lat = math.Mod(lat, 90)
		lon = math.Mod(lon, 180)
		return WholeEarth.Contains(geom.LatLon{LatDeg: lat, LonDeg: lon})
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Error(err)
	}
}

func TestContainsECEF(t *testing.T) {
	africa := Box{-5, -20, 25, 25}
	accraOverhead := geom.LatLon{LatDeg: 5.6, LonDeg: -0.19, AltKm: 550}.ECEF()
	if !africa.ContainsECEF(accraOverhead) {
		t.Error("satellite over Accra not in box")
	}
	pacificSat := geom.LatLon{LatDeg: 0, LonDeg: -150, AltKm: 550}.ECEF()
	if africa.ContainsECEF(pacificSat) {
		t.Error("satellite over Pacific in Africa box")
	}
}

func TestAreaFraction(t *testing.T) {
	if f := WholeEarth.AreaFraction(); math.Abs(f-1) > 1e-12 {
		t.Errorf("whole earth fraction = %v", f)
	}
	// Northern hemisphere is half.
	north := Box{0, -180, 90, 180}
	if f := north.AreaFraction(); math.Abs(f-0.5) > 1e-12 {
		t.Errorf("north fraction = %v", f)
	}
	// A half-longitude equatorial band: fraction = sin(30°)/2 * 1/2... verify
	// numerically against the spherical zone formula.
	band := Box{-30, -90, 30, 90}
	want := (math.Sin(geom.Rad(30)) - math.Sin(geom.Rad(-30))) / 2 * 0.5
	if f := band.AreaFraction(); math.Abs(f-want) > 1e-12 {
		t.Errorf("band fraction = %v, want %v", f, want)
	}
	// Antimeridian-crossing box has the same area as the mirrored box.
	a := Box{-10, 170, 10, -170}
	b := Box{-10, -10, 10, 10}
	if math.Abs(a.AreaFraction()-b.AreaFraction()) > 1e-12 {
		t.Errorf("wrap area %v != mirror area %v", a.AreaFraction(), b.AreaFraction())
	}
}

func TestAreaKm2(t *testing.T) {
	earth := 4 * math.Pi * geom.EarthRadiusKm * geom.EarthRadiusKm
	if a := WholeEarth.AreaKm2(); math.Abs(a-earth) > 1 {
		t.Errorf("whole earth area = %v, want %v", a, earth)
	}
}

func TestLonSpan(t *testing.T) {
	if s := (Box{0, -20, 10, 25}).LonSpanDeg(); s != 45 {
		t.Errorf("span = %v, want 45", s)
	}
	if s := (Box{0, 150, 10, -120}).LonSpanDeg(); s != 90 {
		t.Errorf("wrap span = %v, want 90", s)
	}
}

func TestEstimateResources(t *testing.T) {
	// A quarter-earth box with 4000 satellites: expect ~1000 active.
	quarter := Box{-90, -180, 90, -90}
	est := EstimateResources(quarter, 4000,
		MachineSize{VCPUs: 2, MemoryMiB: 512}, 4, MachineSize{VCPUs: 4, MemoryMiB: 4096})
	if est.ExpectedActive != 1000 {
		t.Errorf("expected active = %d, want 1000", est.ExpectedActive)
	}
	if est.PeakActive != 1500 {
		t.Errorf("peak = %d, want 1500", est.PeakActive)
	}
	if want := 1500*2 + 4*4; est.VCPUs != want {
		t.Errorf("vcpus = %d, want %d", est.VCPUs, want)
	}
	if want := 1500*512 + 4*4096; est.MemoryMiB != want {
		t.Errorf("memory = %d, want %d", est.MemoryMiB, want)
	}
}

func TestEstimateCapsAtTotal(t *testing.T) {
	est := EstimateResources(WholeEarth, 100, MachineSize{VCPUs: 1, MemoryMiB: 128}, 0, MachineSize{})
	if est.ExpectedActive != 100 || est.PeakActive != 100 {
		t.Errorf("estimate = %+v, want capped at 100", est)
	}
}

func TestEstimatePaperScenario(t *testing.T) {
	// §4.1: bounding box over North/West Africa, Starlink shell 1 (1584
	// satellites at 2 vCPUs each): Celestial estimates 137 required
	// cores. Our model should land in that neighborhood.
	box := Box{-5, -20, 25, 25}
	est := EstimateResources(box, 1584,
		MachineSize{VCPUs: 2, MemoryMiB: 512},
		5, MachineSize{VCPUs: 4, MemoryMiB: 4096})
	if est.VCPUs < 80 || est.VCPUs > 220 {
		t.Errorf("estimated vCPUs = %d, want on the order of 137", est.VCPUs)
	}
}

func TestContainsFractionMatchesArea(t *testing.T) {
	// Property: the fraction of uniformly distributed points inside the
	// box approximates its area fraction.
	box := Box{-30, -60, 45, 80}
	inside, total := 0, 0
	for lat := -88.0; lat <= 88; lat += 2 {
		// Weight samples by cos(lat) via sample count per band.
		n := int(math.Round(50 * math.Cos(geom.Rad(lat))))
		for i := 0; i < n; i++ {
			lon := -180 + 360*float64(i)/float64(n)
			total++
			if box.Contains(geom.LatLon{LatDeg: lat, LonDeg: lon}) {
				inside++
			}
		}
	}
	got := float64(inside) / float64(total)
	want := box.AreaFraction()
	if math.Abs(got-want) > 0.02 {
		t.Errorf("sampled fraction %v vs analytic %v", got, want)
	}
}

func BenchmarkContains(b *testing.B) {
	box := Box{-5, -20, 25, 25}
	loc := geom.LatLon{LatDeg: 5.6, LonDeg: -0.19}
	for i := 0; i < b.N; i++ {
		box.Contains(loc)
	}
}

func TestIsWholeEarth(t *testing.T) {
	if !WholeEarth.IsWholeEarth() {
		t.Error("WholeEarth not recognized")
	}
	for _, b := range []Box{
		{LatMinDeg: -90, LonMinDeg: -180, LatMaxDeg: 90, LonMaxDeg: 179},
		{LatMinDeg: -89, LonMinDeg: -180, LatMaxDeg: 90, LonMaxDeg: 180},
		{LatMinDeg: -5, LonMinDeg: -20, LatMaxDeg: 25, LonMaxDeg: 25},
		{},
	} {
		if b.IsWholeEarth() {
			t.Errorf("%v claims to cover the whole earth", b)
		}
	}
}

// testerBoxes are the box shapes the tester must agree with Box.ContainsECEF
// on: every combination of latitude edges at, near and away from the poles
// and of longitude ranges that span everything, wrap, or are degenerate.
var testerBoxes = []struct {
	name string
	box  Box
}{
	{"pm60 all-lon", Box{-60, -180, 60, 180}},
	{"whole earth", WholeEarth},
	{"antimeridian", Box{-40, 150, 40, -120}},
	{"small", Box{-5, -20, 25, 25}},
	{"thin", Box{30, -180, 30.1, 180}},
	{"hemisphere", Box{0, -180, 90, 180}},
	{"degenerate zero", Box{}},
}

// ecefAt converts without going through Validate-d types: latitudes a hair
// past a pole are clamped, as no such point exists.
func ecefAt(latDeg, lonDeg, altKm float64) geom.Vec3 {
	latDeg = math.Max(-90, math.Min(90, latDeg))
	return geom.LatLon{LatDeg: latDeg, LonDeg: lonDeg, AltKm: altKm}.ECEF()
}

// TestTesterMatchesContainsECEF is the differential test of the prepared
// tester: on uniform LEO points and on points placed adversarially close to
// every edge it must return exactly what Box.ContainsECEF returns, while
// deciding almost all uniform points on its fast path and none of the points
// below the equatorial sphere.
func TestTesterMatchesContainsECEF(t *testing.T) {
	perBox := 1_000_000
	if testing.Short() {
		perBox = 100_000
	}
	for bi, tb := range testerBoxes {
		t.Run(tb.name, func(t *testing.T) {
			t.Parallel()
			b, tester := tb.box, NewTester(tb.box)
			r := rng.New(int64(1000 + bi))
			uni := func(lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }
			check := func(kind string, p geom.Vec3) bool {
				want := b.ContainsECEF(p)
				if got := tester.ContainsECEF(p); got != want {
					t.Fatalf("%s point %+v (%+v): tester %v, box %v", kind, p, geom.ToGeodetic(p), got, want)
				}
				_, decided := tester.decide(p)
				return decided
			}

			// Uniform over the sphere of directions, 0–2,000 km up.
			fast := 0
			for i := 0; i < perBox*6/10; i++ {
				lat := geom.Deg(math.Asin(uni(-1, 1)))
				if check("uniform", ecefAt(lat, uni(-180, 180), uni(0, 2000))) {
					fast++
				}
			}
			if tb.name == "pm60 all-lon" && fast < perBox*6/10*99/100 {
				t.Errorf("fast path decided only %d of %d uniform points", fast, perBox*6/10)
			}

			// Within 1e-5° of each latitude edge, on both sides.
			latEdges := []float64{b.LatMinDeg, b.LatMaxDeg}
			lonEdges := []float64{b.LonMinDeg, b.LonMaxDeg}
			for i := 0; i < perBox*2/10; i++ {
				lat := latEdges[i%2] + uni(-1e-5, 1e-5)
				lon := uni(-180, 180)
				if i%4 >= 2 { // and at a longitude edge at once
					lon = lonEdges[i/4%2] + uni(-1e-6, 1e-6)
				}
				check("lat-edge", ecefAt(lat, lon, uni(0, 2000)))
			}
			// Within 1e-6° of each longitude edge, at latitudes inside,
			// outside and across the box.
			for i := 0; i < perBox/10; i++ {
				lon := lonEdges[i%2] + uni(-1e-6, 1e-6)
				check("lon-edge", ecefAt(geom.Deg(math.Asin(uni(-1, 1))), lon, uni(0, 2000)))
			}
			// Within 1e-7° of both poles, down to the axis itself.
			for i := 0; i < perBox/20; i++ {
				lat := 90 - uni(0, 1e-7)*float64(i%3) // every third exactly on the axis
				if i%2 == 1 {
					lat = -lat
				}
				check("pole", ecefAt(lat, uni(-180, 180), uni(0, 2000)))
			}
			// Below the equatorial sphere, where the bound on tan φ does
			// not hold: the fast path must decline every one.
			for i := 0; i < perBox/20; i++ {
				p := ecefAt(geom.Deg(math.Asin(uni(-1, 1))), uni(-180, 180), 0).Scale(uni(0, 1))
				if p.Norm() >= geom.EarthRadiusKm {
					continue
				}
				if check("sub-surface", p) {
					t.Fatalf("fast path decided sub-surface point %+v", p)
				}
			}
		})
	}
}

// FuzzTesterMatchesContainsECEF lets the fuzzer pick box and point freely —
// invalid boxes, NaNs, infinities and denormals included: the tester has no
// precondition under which it may disagree with Box.ContainsECEF.
func FuzzTesterMatchesContainsECEF(f *testing.F) {
	for _, tb := range testerBoxes {
		b := tb.box
		f.Add(b.LatMinDeg, b.LonMinDeg, b.LatMaxDeg, b.LonMaxDeg, 3500.0, -3500.0, 4800.0)
		f.Add(b.LatMinDeg, b.LonMinDeg, b.LatMaxDeg, b.LonMaxDeg, 0.0, 1e-7, -6900.0)
		edge := ecefAt(b.LatMaxDeg, b.LonMinDeg, 550)
		f.Add(b.LatMinDeg, b.LonMinDeg, b.LatMaxDeg, b.LonMaxDeg, edge.X, edge.Y, edge.Z)
	}
	f.Add(-60.0, -180.0, 60.0, 180.0, 1e200, 1.0, 1e200)
	f.Add(math.NaN(), -180.0, 60.0, math.Inf(1), math.Inf(-1), 0.0, math.NaN())
	f.Fuzz(func(t *testing.T, latMin, lonMin, latMax, lonMax, x, y, z float64) {
		b := Box{LatMinDeg: latMin, LonMinDeg: lonMin, LatMaxDeg: latMax, LonMaxDeg: lonMax}
		tester := NewTester(b)
		p := geom.Vec3{X: x, Y: y, Z: z}
		if got, want := tester.ContainsECEF(p), b.ContainsECEF(p); got != want {
			t.Fatalf("box %+v point %+v: tester %v, box %v", b, p, got, want)
		}
	})
}
