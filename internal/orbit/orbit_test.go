package orbit

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"celestial/internal/geom"
)

var testEpoch = geom.JulianDate(2022, 4, 14, 12, 0, 0)

func smallShell(model Model) ShellConfig {
	return ShellConfig{
		Name: "test", Planes: 6, SatsPerPlane: 8, AltitudeKm: 550,
		InclinationDeg: 53, ArcDeg: 360, PhasingFactor: 1, Model: model,
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*ShellConfig)
		wantErr string
	}{
		{"valid", func(c *ShellConfig) {}, ""},
		{"zero planes", func(c *ShellConfig) { c.Planes = 0 }, "planes"},
		{"negative sats", func(c *ShellConfig) { c.SatsPerPlane = -1 }, "sats per plane"},
		{"too low", func(c *ShellConfig) { c.AltitudeKm = 100 }, "altitude"},
		{"too high", func(c *ShellConfig) { c.AltitudeKm = 36000 }, "altitude"},
		{"bad inclination", func(c *ShellConfig) { c.InclinationDeg = 200 }, "inclination"},
		{"bad arc", func(c *ShellConfig) { c.ArcDeg = 400 }, "arc"},
		{"bad eccentricity", func(c *ShellConfig) { c.Eccentricity = 0.5 }, "eccentricity"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := smallShell(ModelKepler)
			tt.mutate(&cfg)
			err := cfg.Validate()
			if tt.wantErr == "" {
				if err != nil {
					t.Errorf("Validate: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Errorf("Validate = %v, want error mentioning %q", err, tt.wantErr)
			}
		})
	}
}

// flatIndex converts a (plane, index) pair to the flat satellite index.
func flatIndex(s *Shell, plane, index int) int {
	return plane*s.Config().SatsPerPlane + index
}

func TestFlatIndexRoundTrip(t *testing.T) {
	s, err := NewShell(smallShell(ModelKepler), testEpoch)
	if err != nil {
		t.Fatal(err)
	}
	err = quick.Check(func(n uint16) bool {
		flat := int(n) % s.Size()
		p, k := s.PlaneIndex(flat)
		return flatIndex(s, p, k) == flat && p < 6 && k < 8
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestKeplerAltitudeExact(t *testing.T) {
	s, err := NewShell(smallShell(ModelKepler), testEpoch)
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range []float64{0, 60, 3600, 86400} {
		pos, err := s.PositionsECEF(sec, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pos {
			if alt := p.Norm() - geom.EarthRadiusKm; math.Abs(alt-550) > 1e-6 {
				t.Fatalf("t=%v sat %d altitude = %v", sec, i, alt)
			}
		}
	}
}

func TestSatellitesEvenlySpaced(t *testing.T) {
	for _, model := range []Model{ModelKepler, ModelSGP4} {
		s, err := NewShell(smallShell(model), testEpoch)
		if err != nil {
			t.Fatal(err)
		}
		// Distance between adjacent satellites in one plane should be
		// ~2R·sin(π/S) and equal for all pairs.
		want := 2 * (geom.EarthRadiusKm + 550) * math.Sin(math.Pi/8)
		pos, err := s.PositionsECEF(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 8; k++ {
			a := pos[flatIndex(s, 2, k)]
			b := pos[flatIndex(s, 2, (k+1)%8)]
			d := a.Distance(b)
			tol := 1e-6
			if model == ModelSGP4 {
				tol = 30 // SGP4 short-period J2 oscillation
			}
			if math.Abs(d-want) > tol {
				t.Errorf("%v: adjacent distance = %v, want %v", model, d, want)
			}
		}
	}
}

func TestKeplerSGP4Agree(t *testing.T) {
	// Positions of the two models should agree reasonably well at epoch
	// and drift slowly (J2 secular effects) afterwards.
	k, err := NewShell(smallShell(ModelKepler), testEpoch)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewShell(smallShell(ModelSGP4), testEpoch)
	if err != nil {
		t.Fatal(err)
	}
	pk, err := k.PositionsECEF(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := g.PositionsECEF(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pk {
		if d := pk[i].Distance(pg[i]); d > 50 {
			t.Errorf("sat %d: kepler vs sgp4 at epoch differ by %v km", i, d)
		}
	}
}

func TestOrbitalPeriod(t *testing.T) {
	s, err := NewShell(smallShell(ModelKepler), testEpoch)
	if err != nil {
		t.Fatal(err)
	}
	// 550 km: ~95.6 minutes.
	r := geom.EarthRadiusKm + s.Config().AltitudeKm
	p := 2 * math.Pi * math.Sqrt(r*r*r/geom.EarthMuKm3S2)
	if p < 5700 || p > 5780 {
		t.Errorf("period = %v s", p)
	}
	// Satellite returns to its ECI start after exactly one period.
	a, err := s.PositionECI(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.PositionECI(0, p)
	if err != nil {
		t.Fatal(err)
	}
	if d := a.Distance(b); d > 1e-6 {
		t.Errorf("kepler orbit not periodic: %v km", d)
	}
}

func TestIridiumSeamGeometry(t *testing.T) {
	cfg := Iridium(ModelKepler)
	if cfg.Size() != 66 {
		t.Fatalf("iridium size = %d, want 66", cfg.Size())
	}
	s, err := NewShell(cfg, testEpoch)
	if err != nil {
		t.Fatal(err)
	}
	// With a 180° arc, plane 0 and plane 5 are 150° apart in RAAN; the
	// satellites in them move in nearly opposite directions where their
	// orbits cross. Verify the RAAN spacing by checking plane normals.
	pos0a, _ := s.PositionECI(flatIndex(s, 0, 0), 0)
	pos0b, _ := s.PositionECI(flatIndex(s, 0, 3), 0)
	n0 := cross(pos0a, pos0b).Unit()
	pos5a, _ := s.PositionECI(flatIndex(s, 5, 0), 0)
	pos5b, _ := s.PositionECI(flatIndex(s, 5, 3), 0)
	n5 := cross(pos5a, pos5b).Unit()
	angle := geom.Deg(math.Acos(math.Abs(n0.Dot(n5))))
	if math.Abs(angle-30) > 1 { // 180 - 150 = 30° between plane normals
		t.Errorf("angle between plane 0 and plane 5 normals = %v°, want ≈30°", angle)
	}
}

func TestStarlinkPhase1Shape(t *testing.T) {
	shells := StarlinkPhase1(ModelKepler)
	if len(shells) != 5 {
		t.Fatalf("got %d shells, want 5", len(shells))
	}
	wantSizes := []int{1584, 1600, 400, 375, 450}
	total := 0
	for i, cfg := range shells {
		if err := cfg.Validate(); err != nil {
			t.Errorf("shell %d: %v", i, err)
		}
		if cfg.Size() != wantSizes[i] {
			t.Errorf("shell %d size = %d, want %d", i, cfg.Size(), wantSizes[i])
		}
		total += cfg.Size()
	}
	if total != 4409 {
		t.Errorf("total = %d, want 4409", total)
	}
}

func TestStarlinkShell1Instantiates(t *testing.T) {
	cfg := StarlinkPhase1(ModelKepler)[0]
	s, err := NewShell(cfg, testEpoch)
	if err != nil {
		t.Fatal(err)
	}
	pos, err := s.PositionsECEF(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pos) != 1584 {
		t.Fatalf("positions = %d", len(pos))
	}
	// All satellites must stay below 53° geocentric latitude; geodetic
	// latitude on the WGS84 ellipsoid can exceed that by up to ~0.19°.
	for i, p := range pos {
		ll := geom.ToGeodetic(p)
		if math.Abs(ll.LatDeg) > 53.2 {
			t.Errorf("sat %d latitude = %v", i, ll.LatDeg)
		}
	}
}

func TestGroundTrackMoves(t *testing.T) {
	s, err := NewShell(smallShell(ModelKepler), testEpoch)
	if err != nil {
		t.Fatal(err)
	}
	at := func(tSeconds float64) geom.Vec3 {
		pos, err := s.PositionsECEF(tSeconds, nil)
		if err != nil {
			t.Fatal(err)
		}
		return pos[0]
	}
	a, b := at(0), at(10)
	// In 10 s a LEO satellite moves about 76 km along-track.
	if d := a.Distance(b); d < 40 || d > 120 {
		t.Errorf("moved %v km in 10 s", d)
	}
}

func TestPositionIndexOutOfRange(t *testing.T) {
	s, err := NewShell(smallShell(ModelKepler), testEpoch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PositionECI(-1, 0); err == nil {
		t.Error("accepted negative index")
	}
	if _, err := s.PositionECI(s.Size(), 0); err == nil {
		t.Error("accepted out-of-range index")
	}
}

func TestJulianToYearDoy(t *testing.T) {
	tests := []struct {
		jd       float64
		wantYear int
		wantDoy  float64
	}{
		{geom.JulianDate(2022, 1, 1, 0, 0, 0), 2022, 1},
		{geom.JulianDate(2022, 12, 31, 12, 0, 0), 2022, 365.5},
		{geom.JulianDate(2020, 2, 29, 0, 0, 0), 2020, 60},
		{geom.JulianDate(2000, 1, 1, 6, 0, 0), 2000, 1.25},
	}
	for _, tt := range tests {
		year, doy := julianToYearDoy(tt.jd)
		if year != tt.wantYear || math.Abs(doy-tt.wantDoy) > 1e-8 {
			t.Errorf("julianToYearDoy(%v) = %d, %v; want %d, %v",
				tt.jd, year, doy, tt.wantYear, tt.wantDoy)
		}
	}
}

func TestPositionsECEFReusesBuffer(t *testing.T) {
	s, err := NewShell(smallShell(ModelKepler), testEpoch)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]geom.Vec3, 0, s.Size())
	out, err := s.PositionsECEF(0, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &buf[:1][0] {
		t.Error("buffer was reallocated despite sufficient capacity")
	}
}

func TestModelString(t *testing.T) {
	if ModelSGP4.String() != "sgp4" || ModelKepler.String() != "kepler" {
		t.Error("model strings wrong")
	}
	if Model(9).String() != "model(9)" {
		t.Errorf("unknown model string = %q", Model(9).String())
	}
}

func BenchmarkShell1584Kepler(b *testing.B) {
	cfg := StarlinkPhase1(ModelKepler)[0]
	s, err := NewShell(cfg, testEpoch)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]geom.Vec3, s.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.PositionsECEF(float64(i), buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShell1584SGP4(b *testing.B) {
	cfg := StarlinkPhase1(ModelSGP4)[0]
	s, err := NewShell(cfg, testEpoch)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]geom.Vec3, s.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.PositionsECEF(float64(i), buf); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPositionsECEFRangeMatchesFull(t *testing.T) {
	s, err := NewShell(smallShell(ModelKepler), testEpoch)
	if err != nil {
		t.Fatal(err)
	}
	full, err := s.PositionsECEF(120, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the same buffer in three disjoint ranges.
	dst := make([]geom.Vec3, s.Size())
	cut1, cut2 := s.Size()/3, 2*s.Size()/3
	for _, r := range [][2]int{{0, cut1}, {cut1, cut2}, {cut2, s.Size()}} {
		if err := s.PositionsECEFRange(120, dst, r[0], r[1]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range full {
		if full[i] != dst[i] {
			t.Fatalf("sat %d: range fill %v != full fill %v", i, dst[i], full[i])
		}
	}
	// Invalid ranges and short destinations are rejected.
	if err := s.PositionsECEFRange(0, dst, -1, 2); err == nil {
		t.Error("accepted negative lo")
	}
	if err := s.PositionsECEFRange(0, dst, 2, 1); err == nil {
		t.Error("accepted lo > hi")
	}
	if err := s.PositionsECEFRange(0, dst, 0, s.Size()+1); err == nil {
		t.Error("accepted hi > size")
	}
	if err := s.PositionsECEFRange(0, dst[:2], 0, s.Size()); err == nil {
		t.Error("accepted short destination")
	}
}

// cross returns the cross product a × b.
func cross(a, b geom.Vec3) geom.Vec3 {
	return geom.Vec3{X: a.Y*b.Z - a.Z*b.Y, Y: a.Z*b.X - a.X*b.Z, Z: a.X*b.Y - a.Y*b.X}
}
