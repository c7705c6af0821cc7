// Package orbit models LEO constellation shells.
//
// A constellation comprises shells of satellites, each shell at its own
// altitude and with its own orbital parameters; each shell consists of a
// number of orbital planes evenly spaced around the equator, and each plane
// contains evenly spaced satellites following the same orbit (§2.1 of the
// paper). This package turns shell parameters into per-satellite
// propagators and positions.
//
// Two propagation models are supported. ModelSGP4 synthesizes a TLE per
// satellite and runs it through the SGP4 propagator, which is the paper's
// model (it extends SILLEO-SCNS with SGP4 support). ModelKepler is an
// idealized circular-orbit propagator with the same shell geometry; it is
// faster and drift-free, which is useful for long virtual-time experiments
// and for differential testing against SGP4.
//
// The Kepler model computes each trig term where it is constant: the
// cosine and sine of a plane's RAAN and of the shell's inclination once in
// NewShell, of GMST once per PositionsECEFRange call. A satellite then
// costs one math.Sincos of its argument of latitude, which returns the
// bits math.Sin and math.Cos do, so positions are bit-equal to evaluating
// all eight terms per satellite (FuzzKeplerMatchesPerSatellite).
package orbit

import (
	"fmt"
	"math"

	"celestial/internal/geom"
	"celestial/internal/sgp4"
	"celestial/internal/tle"
)

// Model selects the satellite position propagator for a shell.
type Model int

const (
	// ModelSGP4 synthesizes TLEs and propagates with SGP4.
	ModelSGP4 Model = iota
	// ModelKepler uses an ideal circular-orbit propagator.
	ModelKepler
)

// String implements fmt.Stringer.
func (m Model) String() string {
	switch m {
	case ModelSGP4:
		return "sgp4"
	case ModelKepler:
		return "kepler"
	default:
		return fmt.Sprintf("model(%d)", int(m))
	}
}

// ShellConfig describes one constellation shell.
type ShellConfig struct {
	// Name identifies the shell in logs and visualizations.
	Name string
	// Planes is the number of orbital planes.
	Planes int
	// SatsPerPlane is the number of satellites in each plane.
	SatsPerPlane int
	// AltitudeKm is the orbit altitude above the equatorial radius.
	AltitudeKm float64
	// InclinationDeg is the plane inclination against the equator.
	InclinationDeg float64
	// ArcDeg is the arc of ascending nodes over which planes are spread:
	// 360 for a Walker delta constellation (Starlink), 180 for a Walker
	// star / polar constellation (Iridium). Defaults to 360 when zero.
	ArcDeg float64
	// PhasingFactor is the Walker inter-plane phasing factor F: the
	// in-plane offset between adjacent planes is F*360/(Planes*SatsPerPlane)
	// degrees of mean anomaly.
	PhasingFactor int
	// Eccentricity of the orbits (SGP4 model only; Kepler assumes 0).
	Eccentricity float64
	// Model selects the propagator.
	Model Model
}

// Validate reports a descriptive error for an unusable configuration.
func (c ShellConfig) Validate() error {
	switch {
	case c.Planes <= 0:
		return fmt.Errorf("orbit: shell %q: planes must be positive, have %d", c.Name, c.Planes)
	case c.SatsPerPlane <= 0:
		return fmt.Errorf("orbit: shell %q: sats per plane must be positive, have %d", c.Name, c.SatsPerPlane)
	case c.AltitudeKm < 200 || c.AltitudeKm > 2500:
		return fmt.Errorf("orbit: shell %q: altitude %.0f km outside LEO range [200, 2500]", c.Name, c.AltitudeKm)
	case c.InclinationDeg < 0 || c.InclinationDeg > 180:
		return fmt.Errorf("orbit: shell %q: inclination %.1f° outside [0, 180]", c.Name, c.InclinationDeg)
	case c.ArcDeg < 0 || c.ArcDeg > 360:
		return fmt.Errorf("orbit: shell %q: arc of ascending nodes %.1f° outside [0, 360]", c.Name, c.ArcDeg)
	case c.Eccentricity < 0 || c.Eccentricity >= 0.05:
		return fmt.Errorf("orbit: shell %q: eccentricity %v outside [0, 0.05)", c.Name, c.Eccentricity)
	}
	return nil
}

// Size returns the number of satellites in the shell.
func (c ShellConfig) Size() int { return c.Planes * c.SatsPerPlane }

// arc returns the configured arc of ascending nodes with the 360° default.
func (c ShellConfig) arc() float64 {
	if c.ArcDeg == 0 {
		return 360
	}
	return c.ArcDeg
}

// phaseStep is the Walker in-plane offset between adjacent planes, in
// radians of mean anomaly.
func (c ShellConfig) phaseStep() float64 {
	return 2 * math.Pi * float64(c.PhasingFactor) / float64(c.Size())
}

// Elements returns the orbital elements of every satellite in the shell at
// an epoch (a Julian date), in flat index order: plane p's ascending node
// sits at arc·p/Planes and slot k's mean anomaly at 360·k/SatsPerPlane plus
// p phasing steps. NoradID counts from 1 within the shell. The SGP4 model
// propagates exactly these elements, so a TLE synthesized from them
// describes the satellite the testbed runs.
func (c ShellConfig) Elements(epochJD float64) []tle.Elements {
	mm := tle.MeanMotionFromAltitude(c.AltitudeKm)
	year, doy := julianToYearDoy(epochJD)
	phaseDeg := geom.Deg(c.phaseStep())
	els := make([]tle.Elements, 0, c.Size())
	for p := 0; p < c.Planes; p++ {
		raanDeg := c.arc() * float64(p) / float64(c.Planes)
		for k := 0; k < c.SatsPerPlane; k++ {
			els = append(els, tle.Elements{
				Name:           fmt.Sprintf("%s-P%d-S%d", c.Name, p, k),
				NoradID:        p*c.SatsPerPlane + k + 1,
				EpochYear:      year,
				EpochDay:       doy,
				InclinationDeg: c.InclinationDeg,
				RAANDeg:        raanDeg,
				Eccentricity:   c.Eccentricity,
				MeanAnomalyDeg: 360*float64(k)/float64(c.SatsPerPlane) + phaseDeg*float64(p),
				MeanMotion:     mm,
			})
		}
	}
	return els
}

// Shell is an instantiated constellation shell bound to an epoch.
type Shell struct {
	cfg     ShellConfig
	epochJD float64

	// SGP4 path.
	sats []*sgp4.Satellite

	// Kepler path: the cosine and sine of RAAN per plane and of the
	// inclination, and the initial mean anomaly per satellite.
	cosRAAN, sinRAAN []float64 // per plane
	cosInc, sinInc   float64
	m0               []float64 // radians, per satellite (flat index)
	meanRate         float64   // radians per second
	radiusKm         float64
}

// NewShell instantiates a shell at the given epoch (Julian date).
func NewShell(cfg ShellConfig, epochJD float64) (*Shell, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Shell{cfg: cfg, epochJD: epochJD}

	switch cfg.Model {
	case ModelKepler:
		arc, phase := geom.Rad(cfg.arc()), cfg.phaseStep()
		s.radiusKm = geom.EarthRadiusKm + cfg.AltitudeKm
		s.meanRate = math.Sqrt(geom.EarthMuKm3S2 / (s.radiusKm * s.radiusKm * s.radiusKm))
		inc := geom.Rad(cfg.InclinationDeg)
		s.cosInc, s.sinInc = math.Cos(inc), math.Sin(inc)
		s.cosRAAN = make([]float64, cfg.Planes)
		s.sinRAAN = make([]float64, cfg.Planes)
		s.m0 = make([]float64, cfg.Size())
		for p := 0; p < cfg.Planes; p++ {
			raan := arc * float64(p) / float64(cfg.Planes)
			s.cosRAAN[p], s.sinRAAN[p] = math.Cos(raan), math.Sin(raan)
			for k := 0; k < cfg.SatsPerPlane; k++ {
				m := 2*math.Pi*float64(k)/float64(cfg.SatsPerPlane) + phase*float64(p)
				s.m0[p*cfg.SatsPerPlane+k] = m
			}
		}
	case ModelSGP4:
		els := cfg.Elements(epochJD)
		s.sats = make([]*sgp4.Satellite, 0, len(els))
		for _, el := range els {
			l1, l2 := tle.Synthesize(el)
			parsed, err := tle.Parse(el.Name, l1, l2)
			if err != nil {
				return nil, fmt.Errorf("orbit: synthesizing %s: %w", el.Name, err)
			}
			sat, err := sgp4.New(parsed)
			if err != nil {
				return nil, fmt.Errorf("orbit: initializing %s: %w", el.Name, err)
			}
			s.sats = append(s.sats, sat)
		}
	default:
		return nil, fmt.Errorf("orbit: unknown model %v", cfg.Model)
	}
	return s, nil
}

// julianToYearDoy converts a Julian date to a calendar year and fractional
// day-of-year, the epoch encoding TLEs use.
func julianToYearDoy(jd float64) (year int, doy float64) {
	// Find the year by scanning from a coarse estimate.
	year = int((jd-2415020.5)/365.25) + 1900
	for geom.JulianDate(year, 1, 1, 0, 0, 0) > jd {
		year--
	}
	for geom.JulianDate(year+1, 1, 1, 0, 0, 0) <= jd {
		year++
	}
	return year, jd - geom.JulianDate(year, 1, 1, 0, 0, 0) + 1
}

// Config returns the shell's configuration.
func (s *Shell) Config() ShellConfig { return s.cfg }

// Size returns the number of satellites in the shell.
func (s *Shell) Size() int { return s.cfg.Size() }

// PlaneIndex converts a flat satellite index to its (plane, index) pair.
func (s *Shell) PlaneIndex(flat int) (plane, index int) {
	return flat / s.cfg.SatsPerPlane, flat % s.cfg.SatsPerPlane
}

// PositionECI returns the TEME/ECI position of one satellite at an offset
// of t seconds after the shell epoch.
func (s *Shell) PositionECI(flat int, tSeconds float64) (geom.Vec3, error) {
	if flat < 0 || flat >= s.Size() {
		return geom.Vec3{}, fmt.Errorf("orbit: satellite index %d out of range [0, %d)", flat, s.Size())
	}
	if s.cfg.Model == ModelKepler {
		plane, _ := s.PlaneIndex(flat)
		u := s.m0[flat] + s.meanRate*tSeconds // argument of latitude
		sinU, cosU := math.Sincos(u)
		cosR, sinR := s.cosRAAN[plane], s.sinRAAN[plane]
		cosI, sinI := s.cosInc, s.sinInc
		// Rotate the in-plane position (r·cosU, r·sinU, 0) by
		// inclination about x, then by RAAN about z.
		return geom.Vec3{
			X: s.radiusKm * (cosR*cosU - sinR*sinU*cosI),
			Y: s.radiusKm * (sinR*cosU + cosR*sinU*cosI),
			Z: s.radiusKm * (sinU * sinI),
		}, nil
	}
	st, err := s.sats[flat].PropagateMinutes(tSeconds / 60)
	if err != nil {
		return geom.Vec3{}, err
	}
	return st.Position, nil
}

// PositionsECEF computes the Earth-fixed positions of every satellite in
// the shell at an offset of t seconds after the epoch, reusing dst when it
// has sufficient capacity.
func (s *Shell) PositionsECEF(tSeconds float64, dst []geom.Vec3) ([]geom.Vec3, error) {
	n := s.Size()
	if cap(dst) < n {
		dst = make([]geom.Vec3, n)
	}
	dst = dst[:n]
	if err := s.PositionsECEFRange(tSeconds, dst, 0, n); err != nil {
		return nil, err
	}
	return dst, nil
}

// PositionsECEFRange fills dst[lo:hi] with the Earth-fixed positions of
// satellites lo..hi-1 at an offset of t seconds after the epoch. dst must
// be a full shell-sized slice (len >= Size()); dst[i] receives satellite
// i's position, so disjoint ranges may be filled concurrently from
// different goroutines — this is the unit of work of the parallel snapshot
// pipeline.
func (s *Shell) PositionsECEFRange(tSeconds float64, dst []geom.Vec3, lo, hi int) error {
	n := s.Size()
	if lo < 0 || hi > n || lo > hi {
		return fmt.Errorf("orbit: %s: range [%d, %d) outside [0, %d)", s.cfg.Name, lo, hi, n)
	}
	if len(dst) < hi {
		return fmt.Errorf("orbit: %s: destination of %d for range ending %d", s.cfg.Name, len(dst), hi)
	}
	rot := geom.EarthRotationAt(geom.GMST(s.epochJD + tSeconds/86400))
	for i := lo; i < hi; i++ {
		eci, err := s.PositionECI(i, tSeconds)
		if err != nil {
			return fmt.Errorf("orbit: %s sat %d: %w", s.cfg.Name, i, err)
		}
		dst[i] = rot.ECIToECEF(eci)
	}
	return nil
}

// StarlinkPhase1 returns the five shells of the planned phase I Starlink
// constellation as shown in Fig. 1 of the paper: 1,584 satellites at
// 550 km, 1,600 at 1110 km, 400 at 1130 km, 375 at 1275 km and 450 at
// 1325 km.
func StarlinkPhase1(model Model) []ShellConfig {
	return []ShellConfig{
		{Name: "starlink-1", Planes: 72, SatsPerPlane: 22, AltitudeKm: 550, InclinationDeg: 53.0, ArcDeg: 360, PhasingFactor: 17, Model: model},
		{Name: "starlink-2", Planes: 32, SatsPerPlane: 50, AltitudeKm: 1110, InclinationDeg: 53.8, ArcDeg: 360, PhasingFactor: 17, Model: model},
		{Name: "starlink-3", Planes: 8, SatsPerPlane: 50, AltitudeKm: 1130, InclinationDeg: 74.0, ArcDeg: 360, PhasingFactor: 1, Model: model},
		{Name: "starlink-4", Planes: 5, SatsPerPlane: 75, AltitudeKm: 1275, InclinationDeg: 81.0, ArcDeg: 360, PhasingFactor: 1, Model: model},
		{Name: "starlink-5", Planes: 6, SatsPerPlane: 75, AltitudeKm: 1325, InclinationDeg: 70.0, ArcDeg: 360, PhasingFactor: 1, Model: model},
	}
}

// StarlinkGen2 returns the nine shells of the FCC-filed second-generation
// Starlink constellation: 29,988 satellites, dominated by three dense
// VLEO layers at 340–350 km plus mid-inclination shells around 525–535 km,
// a near-polar shell at 360 km and two small retrograde shells. This is
// the scale target of the Gen2 fast path: incremental visibility updates,
// in-place CSR patching and arena-backed snapshots.
func StarlinkGen2(model Model) []ShellConfig {
	return []ShellConfig{
		{Name: "gen2-1", Planes: 48, SatsPerPlane: 110, AltitudeKm: 340, InclinationDeg: 53.0, ArcDeg: 360, PhasingFactor: 17, Model: model},
		{Name: "gen2-2", Planes: 48, SatsPerPlane: 110, AltitudeKm: 345, InclinationDeg: 46.0, ArcDeg: 360, PhasingFactor: 17, Model: model},
		{Name: "gen2-3", Planes: 48, SatsPerPlane: 110, AltitudeKm: 350, InclinationDeg: 38.0, ArcDeg: 360, PhasingFactor: 17, Model: model},
		{Name: "gen2-4", Planes: 30, SatsPerPlane: 120, AltitudeKm: 360, InclinationDeg: 96.9, ArcDeg: 360, PhasingFactor: 1, Model: model},
		{Name: "gen2-5", Planes: 28, SatsPerPlane: 120, AltitudeKm: 525, InclinationDeg: 53.0, ArcDeg: 360, PhasingFactor: 17, Model: model},
		{Name: "gen2-6", Planes: 28, SatsPerPlane: 120, AltitudeKm: 530, InclinationDeg: 43.0, ArcDeg: 360, PhasingFactor: 17, Model: model},
		{Name: "gen2-7", Planes: 28, SatsPerPlane: 120, AltitudeKm: 535, InclinationDeg: 33.0, ArcDeg: 360, PhasingFactor: 17, Model: model},
		{Name: "gen2-8", Planes: 12, SatsPerPlane: 12, AltitudeKm: 604, InclinationDeg: 148.0, ArcDeg: 360, PhasingFactor: 1, Model: model},
		{Name: "gen2-9", Planes: 18, SatsPerPlane: 18, AltitudeKm: 614, InclinationDeg: 115.7, ArcDeg: 360, PhasingFactor: 1, Model: model},
	}
}

// Iridium returns the Iridium constellation used in the paper's case study
// (§5): a single shell of 66 satellites in 6 planes at 780 km altitude in a
// polar orbit (90° inclination), with planes spaced evenly over only half
// the globe (180° arc of ascending nodes) so that satellites descending
// their orbit cover the other half.
func Iridium(model Model) ShellConfig {
	return ShellConfig{
		Name:           "iridium",
		Planes:         6,
		SatsPerPlane:   11,
		AltitudeKm:     780,
		InclinationDeg: 90,
		ArcDeg:         180,
		PhasingFactor:  2,
		Model:          model,
	}
}
