package orbit

import (
	"math"
	"math/rand"
	"testing"

	"celestial/internal/geom"
)

// keplerECIOracle is the circular-orbit position with every term computed
// per satellite, as the propagator did before it hoisted the terms that are
// constant per plane and per shell: six trig calls for the ECI position.
func keplerECIOracle(cfg ShellConfig, flat int, tSeconds float64) geom.Vec3 {
	arc, phase := geom.Rad(cfg.arc()), cfg.phaseStep()
	radiusKm := geom.EarthRadiusKm + cfg.AltitudeKm
	meanRate := math.Sqrt(geom.EarthMuKm3S2 / (radiusKm * radiusKm * radiusKm))
	incRad := geom.Rad(cfg.InclinationDeg)
	p, k := flat/cfg.SatsPerPlane, flat%cfg.SatsPerPlane
	raan := arc * float64(p) / float64(cfg.Planes)
	m0 := 2*math.Pi*float64(k)/float64(cfg.SatsPerPlane) + phase*float64(p)
	u := m0 + meanRate*tSeconds
	cosU, sinU := math.Cos(u), math.Sin(u)
	cosR, sinR := math.Cos(raan), math.Sin(raan)
	cosI, sinI := math.Cos(incRad), math.Sin(incRad)
	return geom.Vec3{
		X: radiusKm * (cosR*cosU - sinR*sinU*cosI),
		Y: radiusKm * (sinR*cosU + cosR*sinU*cosI),
		Z: radiusKm * (sinU * sinI),
	}
}

// keplerECEFOracle rotates the oracle's ECI position into the Earth-fixed
// frame with the GMST's cosine and sine taken per satellite: eight trig
// calls in all.
func keplerECEFOracle(cfg ShellConfig, epochJD float64, flat int, tSeconds float64) geom.Vec3 {
	p := keplerECIOracle(cfg, flat, tSeconds)
	gmst := geom.GMST(epochJD + tSeconds/86400)
	cosT, sinT := math.Cos(gmst), math.Sin(gmst)
	return geom.Vec3{
		X: cosT*p.X + sinT*p.Y,
		Y: -sinT*p.X + cosT*p.Y,
		Z: p.Z,
	}
}

func sameBits(a, b geom.Vec3) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.Z) == math.Float64bits(b.Z)
}

// keplerCase maps arbitrary inputs onto a valid Kepler shell: planes and
// sats per plane in [1, 256], altitude in [200, 2500] km, inclination in
// [0, 180]°, arc in [0, 360]° (0 is the 360° default), any phasing factor.
func keplerCase(planes, sats uint8, alt, inc, arc float64, phasing int16) ShellConfig {
	fold := func(x, lo, span float64) float64 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return lo
		}
		return lo + math.Mod(math.Abs(x), span+1e-9)
	}
	return ShellConfig{
		Name:           "fuzz",
		Planes:         1 + int(planes),
		SatsPerPlane:   1 + int(sats),
		AltitudeKm:     math.Min(fold(alt, 200, 2300), 2500),
		InclinationDeg: math.Min(fold(inc, 0, 180), 180),
		ArcDeg:         math.Min(fold(arc, 0, 360), 360),
		PhasingFactor:  int(phasing),
		Model:          ModelKepler,
	}
}

// checkKeplerMatchesOracle fills the shell's positions at t in three
// ranges split at cut1 and cut2 (last range first) and requires every one
// bit-equal to the eight-trig oracle, and PositionECI bit-equal to its ECI
// half.
func checkKeplerMatchesOracle(t *testing.T, cfg ShellConfig, tSeconds float64, cut1, cut2 uint16) {
	t.Helper()
	s, err := NewShell(cfg, testEpoch)
	if err != nil {
		t.Fatalf("%+v: %v", cfg, err)
	}
	n := s.Size()
	a, b := int(cut1)%(n+1), int(cut2)%(n+1)
	if a > b {
		a, b = b, a
	}
	dst := make([]geom.Vec3, n)
	for _, r := range [][2]int{{b, n}, {a, b}, {0, a}} {
		if err := s.PositionsECEFRange(tSeconds, dst, r[0], r[1]); err != nil {
			t.Fatalf("%+v range %v: %v", cfg, r, err)
		}
	}
	for i := 0; i < n; i++ {
		if want := keplerECEFOracle(cfg, testEpoch, i, tSeconds); !sameBits(dst[i], want) {
			t.Fatalf("%+v t=%v sat %d: range fill %v, oracle %v", cfg, tSeconds, i, dst[i], want)
		}
		eci, err := s.PositionECI(i, tSeconds)
		if err != nil {
			t.Fatal(err)
		}
		if want := keplerECIOracle(cfg, i, tSeconds); !sameBits(eci, want) {
			t.Fatalf("%+v t=%v sat %d: PositionECI %v, oracle %v", cfg, tSeconds, i, eci, want)
		}
	}
}

// keplerSeedShells are the checked-in constellations' shells.
func keplerSeedShells() []ShellConfig {
	shells := append(StarlinkGen2(ModelKepler), StarlinkPhase1(ModelKepler)...)
	return append(shells, Iridium(ModelKepler))
}

// TestKeplerMatchesPerSatelliteRandom is the seeded twin of
// FuzzKeplerMatchesPerSatellite: the checked-in shells at fixed and large
// times, then random shells, times and splits.
func TestKeplerMatchesPerSatelliteRandom(t *testing.T) {
	for _, cfg := range keplerSeedShells() {
		for _, ts := range []float64{0, 1, 600.5, 86400, 1e6 + 0.25, 3.1e7} {
			checkKeplerMatchesOracle(t, cfg, ts, uint16(cfg.Size()/3), uint16(cfg.Size()/2))
		}
	}
	rng := rand.New(rand.NewSource(49))
	for i := 0; i < 300; i++ {
		cfg := keplerCase(uint8(rng.Intn(64)), uint8(rng.Intn(64)), rng.Float64()*2500,
			rng.Float64()*180, rng.Float64()*360, int16(rng.Intn(1<<16)-1<<15))
		if i%10 == 0 {
			cfg.InclinationDeg = float64(i % 3 * 90) // 0, 90 and 180 exactly
		}
		ts := rng.Float64() * math.Pow(10, float64(rng.Intn(12)))
		if rng.Intn(2) == 0 {
			ts = -ts
		}
		checkKeplerMatchesOracle(t, cfg, ts, uint16(rng.Intn(1<<16)), uint16(rng.Intn(1<<16)))
	}
}

// FuzzKeplerMatchesPerSatellite lets the fuzzer pick the shell, the time
// (any finite t) and the chunk splits: the shared-term propagation has no
// input on which it may differ from the per-satellite formula by a bit.
func FuzzKeplerMatchesPerSatellite(f *testing.F) {
	for _, cfg := range keplerSeedShells() {
		f.Add(uint8(cfg.Planes-1), uint8(cfg.SatsPerPlane-1), cfg.AltitudeKm-200,
			cfg.InclinationDeg, cfg.ArcDeg, int16(cfg.PhasingFactor), 1e6+0.5, uint16(7), uint16(300))
	}
	f.Add(uint8(5), uint8(10), 580.0, 180.0, 0.0, int16(-3), 0.0, uint16(0), uint16(0))
	f.Add(uint8(0), uint8(0), 0.0, 90.0, 360.0, int16(1), 1e15, uint16(1), uint16(1))
	f.Fuzz(func(t *testing.T, planes, sats uint8, alt, inc, arc float64, phasing int16, tSeconds float64, cut1, cut2 uint16) {
		if math.IsNaN(tSeconds) || math.IsInf(tSeconds, 0) {
			t.Skip("positions are defined at finite times")
		}
		checkKeplerMatchesOracle(t, keplerCase(planes, sats, alt, inc, arc, phasing), tSeconds, cut1, cut2)
	})
}
