package sgp4

import (
	"errors"
	"math"
	"testing"

	"celestial/internal/geom"
	"celestial/internal/tle"
)

// mustSat builds a Satellite from raw TLE lines.
func mustSat(t *testing.T, name, l1, l2 string) *Satellite {
	t.Helper()
	parsed, err := tle.Parse(name, l1, l2)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	s, err := New(parsed)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// epochJD is the Julian date of a TLE's epoch.
func epochJD(t testing.TB, l1, l2 string) float64 {
	t.Helper()
	parsed, err := tle.Parse("", l1, l2)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return geom.JulianDate(parsed.EpochYear, 1, 1, 0, 0, 0) + parsed.EpochDay - 1
}

// positionECEF propagates to minutes after the epoch and rotates the
// position into the Earth-fixed frame with the IAU-82 GMST, as
// orbit.Shell does for every satellite.
func positionECEF(s *Satellite, epoch, minutes float64) (geom.Vec3, error) {
	st, err := s.PropagateMinutes(minutes)
	if err != nil {
		return geom.Vec3{}, err
	}
	return geom.EarthRotationAt(geom.GMST(epoch + minutes/1440)).ECIToECEF(st.Position), nil
}

// The python-sgp4 documentation reference case: ISS element set with a
// published TEME state at JD 2458827.362605.
const (
	issL1 = "1 25544U 98067A   19343.69339541  .00001764  00000-0  40967-4 0  9998"
	issL2 = "2 25544  51.6439 211.2001 0007417  17.6667  85.6398 15.50103472202482"
)

func TestISSReferenceState(t *testing.T) {
	s := mustSat(t, "ISS", issL1, issL2)
	st, err := s.PropagateMinutes((2458827.0 + 0.362605 - epochJD(t, issL1, issL2)) * 1440.0)
	if err != nil {
		t.Fatalf("Propagate: %v", err)
	}
	// Expected values from the python-sgp4 README (truncated there to two
	// decimals, so allow 10 m / 1 cm/s).
	wantR := geom.Vec3{X: -6102.44, Y: -986.33, Z: -2820.31}
	wantV := geom.Vec3{X: -1.45, Y: -5.52, Z: 5.10}
	if d := st.Position.Distance(wantR); d > 0.02 {
		t.Errorf("position = %v, want ≈%v (off by %.4f km)", st.Position, wantR, d)
	}
	if d := st.Velocity.Distance(wantV); d > 0.01 {
		t.Errorf("velocity = %v, want ≈%v (off by %.5f km/s)", st.Velocity, wantV, d)
	}
}

func TestISSPhysicalSanity(t *testing.T) {
	s := mustSat(t, "ISS", issL1, issL2)
	st, err := s.PropagateMinutes(0)
	if err != nil {
		t.Fatal(err)
	}
	r := st.Position.Norm()
	// ISS altitude is roughly 420 km in late 2019.
	if alt := r - geom.EarthRadiusKm; alt < 350 || alt > 480 {
		t.Errorf("altitude at epoch = %v km", alt)
	}
	if v := st.Velocity.Norm(); v < 7.5 || v > 7.8 {
		t.Errorf("speed at epoch = %v km/s", v)
	}
	// Velocity should be nearly perpendicular to position (e ≈ 0.0007).
	cosAngle := st.Position.Unit().Dot(st.Velocity.Unit())
	if math.Abs(cosAngle) > 0.01 {
		t.Errorf("r·v direction cosine = %v, want ≈0", cosAngle)
	}
}

func TestOrbitPeriodicity(t *testing.T) {
	s := mustSat(t, "ISS", issL1, issL2)
	parsed, _ := tle.Parse("ISS", issL1, issL2)
	period := 1440 / parsed.MeanMotion // minutes

	st0, err := s.PropagateMinutes(0)
	if err != nil {
		t.Fatal(err)
	}
	st1, err := s.PropagateMinutes(period)
	if err != nil {
		t.Fatal(err)
	}
	// After one nodal period the satellite returns close to its start in
	// the inertial frame; J2 precession and drag cause modest drift.
	if d := st0.Position.Distance(st1.Position); d > 150 {
		t.Errorf("position after one period differs by %v km", d)
	}
}

func TestInclinationPreserved(t *testing.T) {
	// A synthesized circular 53° orbit should stay at ≈53° inclination:
	// the z-extent of the orbit ≈ r·sin(i).
	e := tle.Elements{
		NoradID: 1, EpochYear: 2022, EpochDay: 1, InclinationDeg: 53,
		MeanAnomalyDeg: 0, MeanMotion: tle.MeanMotionFromAltitude(550),
	}
	l1, l2 := tle.Synthesize(e)
	s := mustSat(t, "gen", l1, l2)

	maxZ := 0.0
	var r float64
	for m := 0.0; m < 100; m += 0.5 {
		st, err := s.PropagateMinutes(m)
		if err != nil {
			t.Fatal(err)
		}
		if z := math.Abs(st.Position.Z); z > maxZ {
			maxZ = z
		}
		r = st.Position.Norm()
	}
	wantZ := r * math.Sin(geom.Rad(53))
	if math.Abs(maxZ-wantZ) > 30 {
		t.Errorf("max |z| = %v km, want ≈%v", maxZ, wantZ)
	}
}

func TestSynthesizedAltitudeHolds(t *testing.T) {
	for _, alt := range []float64{550, 780, 1110, 1325} {
		e := tle.Elements{
			NoradID: 2, EpochYear: 2022, EpochDay: 1, InclinationDeg: 70,
			MeanMotion: tle.MeanMotionFromAltitude(alt),
		}
		l1, l2 := tle.Synthesize(e)
		s := mustSat(t, "gen", l1, l2)
		for m := 0.0; m <= 200; m += 10 {
			st, err := s.PropagateMinutes(m)
			if err != nil {
				t.Fatalf("alt %v t=%v: %v", alt, m, err)
			}
			got := st.Position.Norm() - geom.EarthRadiusKm
			// SGP4 with J2 short-period terms oscillates by ~10-20 km
			// around the mean altitude for circular orbits.
			if math.Abs(got-alt) > 35 {
				t.Errorf("alt %v km at t=%v: radius error %v km", alt, m, got-alt)
			}
		}
	}
}

func TestAngularMomentumStable(t *testing.T) {
	s := mustSat(t, "ISS", issL1, issL2)
	st0, err := s.PropagateMinutes(0)
	if err != nil {
		t.Fatal(err)
	}
	h0 := cross(st0.Position, st0.Velocity).Norm()
	for _, m := range []float64{10, 45, 90, 360, 1440} {
		st, err := s.PropagateMinutes(m)
		if err != nil {
			t.Fatal(err)
		}
		h := cross(st.Position, st.Velocity).Norm()
		if math.Abs(h-h0)/h0 > 0.01 {
			t.Errorf("angular momentum at t=%v drifted %.3f%%", m, 100*math.Abs(h-h0)/h0)
		}
	}
}

func TestBackwardPropagation(t *testing.T) {
	s := mustSat(t, "ISS", issL1, issL2)
	st, err := s.PropagateMinutes(-30)
	if err != nil {
		t.Fatalf("backward propagation: %v", err)
	}
	if alt := st.Position.Norm() - geom.EarthRadiusKm; alt < 300 || alt > 500 {
		t.Errorf("backward altitude = %v km", alt)
	}
}

func TestDeepSpaceRejected(t *testing.T) {
	// A 12-hour Molniya-style orbit: mean motion 2 rev/day.
	e := tle.Elements{
		NoradID: 3, EpochYear: 2022, EpochDay: 1, InclinationDeg: 63.4,
		Eccentricity: 0.7, MeanMotion: 2.0,
	}
	l1, l2 := tle.Synthesize(e)
	parsed, err := tle.Parse("molniya", l1, l2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(parsed); !errors.Is(err, ErrDeepSpace) {
		t.Errorf("New(deep space) error = %v, want ErrDeepSpace", err)
	}
}

func TestPositionECEFGroundTrack(t *testing.T) {
	// A polar satellite's ECEF ground track must reach high latitudes.
	e := tle.Elements{
		NoradID: 4, EpochYear: 2022, EpochDay: 1, InclinationDeg: 90,
		MeanMotion: tle.MeanMotionFromAltitude(780),
	}
	l1, l2 := tle.Synthesize(e)
	s := mustSat(t, "polar", l1, l2)
	jd0 := epochJD(t, l1, l2)
	maxLat := 0.0
	for m := 0.0; m < 110; m++ {
		p, err := positionECEF(s, jd0, m)
		if err != nil {
			t.Fatal(err)
		}
		ll := geom.ToGeodetic(p)
		if ll.LatDeg > maxLat {
			maxLat = ll.LatDeg
		}
		if math.Abs(ll.AltKm-780) > 40 {
			t.Errorf("t=%v: altitude %v km, want ≈780", m, ll.AltKm)
		}
	}
	if maxLat < 85 {
		t.Errorf("polar orbit max latitude = %v°, want ≈90°", maxLat)
	}
}

func TestECEFAccountsForEarthRotation(t *testing.T) {
	// In ECEF, a prograde LEO satellite's longitude shifts westward by
	// about 22.5° per 90-minute orbit due to Earth rotation.
	e := tle.Elements{
		NoradID: 5, EpochYear: 2022, EpochDay: 1, InclinationDeg: 53,
		MeanMotion: tle.MeanMotionFromAltitude(550),
	}
	l1, l2 := tle.Synthesize(e)
	s := mustSat(t, "gen", l1, l2)
	jd0 := epochJD(t, l1, l2)
	p0, err := positionECEF(s, jd0, 0)
	if err != nil {
		t.Fatal(err)
	}
	period := 1440 / tle.MeanMotionFromAltitude(550) // minutes
	p1, err := positionECEF(s, jd0, period)
	if err != nil {
		t.Fatal(err)
	}
	dLon := geom.NormalizeLonDeg(geom.ToGeodetic(p1).LonDeg - geom.ToGeodetic(p0).LonDeg)
	if dLon > -15 || dLon < -30 {
		t.Errorf("longitude shift per orbit = %v°, want ≈-24°", dLon)
	}
}

func TestEccentricityErrorSurfaces(t *testing.T) {
	parsed, err := tle.Parse("ISS", issL1, issL2)
	if err != nil {
		t.Fatal(err)
	}
	parsed.Eccentricity = 1.5
	if _, err := New(parsed); !errors.Is(err, ErrEccentricity) {
		t.Errorf("New(e=1.5) error = %v, want ErrEccentricity", err)
	}
}

func TestConcurrentPropagation(t *testing.T) {
	s := mustSat(t, "ISS", issL1, issL2)
	want, err := s.PropagateMinutes(42)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 100; j++ {
				st, err := s.PropagateMinutes(42)
				if err != nil {
					done <- err
					return
				}
				if st.Position != want.Position {
					done <- errors.New("non-deterministic result")
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func BenchmarkPropagate(b *testing.B) {
	parsed, _ := tle.Parse("ISS", issL1, issL2)
	s, _ := New(parsed)
	for i := 0; i < b.N; i++ {
		if _, err := s.PropagateMinutes(float64(i % 1440)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPositionECEF(b *testing.B) {
	parsed, _ := tle.Parse("ISS", issL1, issL2)
	s, _ := New(parsed)
	jd := epochJD(b, issL1, issL2)
	for i := 0; i < b.N; i++ {
		if _, err := positionECEF(s, jd, float64(i%1440)); err != nil {
			b.Fatal(err)
		}
	}
}

// cross returns the cross product a × b.
func cross(a, b geom.Vec3) geom.Vec3 {
	return geom.Vec3{X: a.Y*b.Z - a.Z*b.Y, Y: a.Z*b.X - a.X*b.Z, Z: a.X*b.Y - a.Y*b.X}
}
