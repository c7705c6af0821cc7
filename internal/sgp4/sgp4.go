// Package sgp4 implements the SGP4 simplified perturbations model for
// near-Earth satellite orbit propagation.
//
// SGP4 is the state of the art for computing satellite positions from NORAD
// two-line element sets and the model Celestial's Constellation Calculation
// uses (§3.1 of the paper). It accounts for secular and periodic
// perturbations caused by the Earth's oblateness (J2–J4 zonal harmonics)
// and for atmospheric drag through the B* term.
//
// This implementation follows the reference formulation of Hoots &
// Roehrich, Spacetrack Report #3 (1980), with the corrections from Vallado
// et al., "Revisiting Spacetrack Report #3" (AIAA 2006-6753), using WGS-72
// gravity constants (the constants TLEs are generated against). Only the
// near-Earth branch is implemented: every constellation in the paper
// (Starlink shells at 550–1325 km, Iridium at 780 km) has an orbital period
// far below the 225-minute deep-space threshold. Initializing a deep-space
// element set returns ErrDeepSpace.
//
// Positions and velocities are returned in the TEME (true equator, mean
// equinox) inertial frame in kilometers and kilometers per second. Use
// geom.EarthRotationAt with the epoch's GMST to rotate into the Earth-fixed
// frame.
package sgp4

import (
	"errors"
	"fmt"
	"math"

	"celestial/internal/geom"
	"celestial/internal/tle"
)

// WGS-72 gravity constants, the conventional constant set for SGP4.
const (
	earthRadiusKm = 6378.135
	muKm3S2       = 398600.8
	j2            = 0.001082616
	j3            = -0.00000253881
	j4            = -0.00000165597
	j3oj2         = j3 / j2

	twoPi = 2 * math.Pi
	x2o3  = 2.0 / 3.0
	// deepSpaceMinutes is the orbital period above which the SDP4
	// deep-space corrections would be required.
	deepSpaceMinutes = 225.0
)

// xke is the square root of Earth's gravitational parameter in units of
// (earth radii)^1.5 / minute.
var xke = 60.0 / math.Sqrt(earthRadiusKm*earthRadiusKm*earthRadiusKm/muKm3S2)

// Propagation errors, mirroring the error codes of the reference
// implementation.
var (
	// ErrDeepSpace is returned by New for element sets with orbital
	// periods of 225 minutes or more, which require SDP4.
	ErrDeepSpace = errors.New("sgp4: deep-space element set (period >= 225 min) not supported")

	// ErrEccentricity is returned when the propagated eccentricity
	// leaves the valid range [0, 1).
	ErrEccentricity = errors.New("sgp4: propagated eccentricity out of range")

	// ErrSemiLatus is returned when the semi-latus rectum becomes
	// negative, indicating an invalid orbit.
	ErrSemiLatus = errors.New("sgp4: negative semi-latus rectum")

	// ErrDecayed is returned when the satellite position falls below
	// the Earth's surface.
	ErrDecayed = errors.New("sgp4: satellite has decayed")
)

// Satellite is an initialized SGP4 propagator for one element set. It is
// immutable after New and safe for concurrent use.
type Satellite struct {
	// Elements straight from the TLE (converted to radians / radians
	// per minute).
	noradID int
	bstar   float64
	ecco    float64
	argpo   float64
	inclo   float64
	mo      float64
	no      float64 // un-Kozai'd mean motion, rad/min
	nodeo   float64

	// Derived constants from sgp4init.
	isimp                 bool
	aycof, con41, cc1     float64
	cc4, cc5, d2, d3, d4  float64
	delmo, eta, argpdot   float64
	omgcof, sinmao, t2cof float64
	t3cof, t4cof, t5cof   float64
	x1mth2, x7thm1, mdot  float64
	nodedot, xlcof, xmcof float64
	nodecf                float64
}

// State is a propagated position and velocity in the TEME frame.
type State struct {
	// Position in kilometers.
	Position geom.Vec3
	// Velocity in kilometers per second.
	Velocity geom.Vec3
}

// New initializes a propagator from a parsed TLE.
func New(t tle.TLE) (*Satellite, error) {
	s := &Satellite{
		noradID: t.NoradID,
		bstar:   t.BStar,
		ecco:    t.Eccentricity,
		argpo:   geom.Rad(t.ArgPerigeeDeg),
		inclo:   geom.Rad(t.InclinationDeg),
		mo:      geom.Rad(t.MeanAnomalyDeg),
		nodeo:   geom.Rad(t.RAANDeg),
		no:      t.MeanMotion * twoPi / 1440.0, // rev/day -> rad/min
	}
	if 2*math.Pi/s.no >= deepSpaceMinutes {
		return nil, fmt.Errorf("%w: norad %d period %.1f min",
			ErrDeepSpace, t.NoradID, 2*math.Pi/s.no)
	}
	if s.ecco < 0 || s.ecco >= 1 {
		return nil, fmt.Errorf("%w: e=%v at init", ErrEccentricity, s.ecco)
	}
	s.init()
	return s, nil
}

// init performs the sgp4init computation of all propagation constants.
func (s *Satellite) init() {
	eccsq := s.ecco * s.ecco
	omeosq := 1.0 - eccsq
	rteosq := math.Sqrt(omeosq)
	cosio := math.Cos(s.inclo)
	cosio2 := cosio * cosio

	// Un-Kozai the mean motion.
	ak := math.Pow(xke/s.no, x2o3)
	d1 := 0.75 * j2 * (3.0*cosio2 - 1.0) / (rteosq * omeosq)
	del := d1 / (ak * ak)
	adel := ak * (1.0 - del*del - del*(1.0/3.0+134.0*del*del/81.0))
	del = d1 / (adel * adel)
	s.no = s.no / (1.0 + del)

	ao := math.Pow(xke/s.no, x2o3)
	sinio := math.Sin(s.inclo)
	po := ao * omeosq
	con42 := 1.0 - 5.0*cosio2
	s.con41 = -con42 - cosio2 - cosio2
	posq := po * po
	rp := ao * (1.0 - s.ecco)

	s.isimp = rp < 220.0/earthRadiusKm+1.0

	ss := 78.0/earthRadiusKm + 1.0
	qzms2t := math.Pow((120.0-78.0)/earthRadiusKm, 4)
	sfour := ss
	qzms24 := qzms2t
	perige := (rp - 1.0) * earthRadiusKm
	if perige < 156.0 {
		sfour = perige - 78.0
		if perige < 98.0 {
			sfour = 20.0
		}
		qzms24 = math.Pow((120.0-sfour)/earthRadiusKm, 4)
		sfour = sfour/earthRadiusKm + 1.0
	}
	pinvsq := 1.0 / posq

	tsi := 1.0 / (ao - sfour)
	s.eta = ao * s.ecco * tsi
	etasq := s.eta * s.eta
	eeta := s.ecco * s.eta
	psisq := math.Abs(1.0 - etasq)
	coef := qzms24 * math.Pow(tsi, 4)
	coef1 := coef / math.Pow(psisq, 3.5)
	cc2 := coef1 * s.no * (ao*(1.0+1.5*etasq+eeta*(4.0+etasq)) +
		0.375*j2*tsi/psisq*s.con41*(8.0+3.0*etasq*(8.0+etasq)))
	s.cc1 = s.bstar * cc2
	cc3 := 0.0
	if s.ecco > 1.0e-4 {
		cc3 = -2.0 * coef * tsi * j3oj2 * s.no * sinio / s.ecco
	}
	s.x1mth2 = 1.0 - cosio2
	s.cc4 = 2.0 * s.no * coef1 * ao * omeosq *
		(s.eta*(2.0+0.5*etasq) + s.ecco*(0.5+2.0*etasq) -
			j2*tsi/(ao*psisq)*
				(-3.0*s.con41*(1.0-2.0*eeta+etasq*(1.5-0.5*eeta))+
					0.75*s.x1mth2*(2.0*etasq-eeta*(1.0+etasq))*math.Cos(2.0*s.argpo)))
	s.cc5 = 2.0 * coef1 * ao * omeosq * (1.0 + 2.75*(etasq+eeta) + eeta*etasq)

	cosio4 := cosio2 * cosio2
	temp1 := 1.5 * j2 * pinvsq * s.no
	temp2 := 0.5 * temp1 * j2 * pinvsq
	temp3 := -0.46875 * j4 * pinvsq * pinvsq * s.no
	s.mdot = s.no + 0.5*temp1*rteosq*s.con41 +
		0.0625*temp2*rteosq*(13.0-78.0*cosio2+137.0*cosio4)
	s.argpdot = -0.5*temp1*con42 +
		0.0625*temp2*(7.0-114.0*cosio2+395.0*cosio4) +
		temp3*(3.0-36.0*cosio2+49.0*cosio4)
	xhdot1 := -temp1 * cosio
	s.nodedot = xhdot1 + (0.5*temp2*(4.0-19.0*cosio2)+
		2.0*temp3*(3.0-7.0*cosio2))*cosio
	s.omgcof = s.bstar * cc3 * math.Cos(s.argpo)
	s.xmcof = 0.0
	if s.ecco > 1.0e-4 {
		s.xmcof = -x2o3 * coef * s.bstar / eeta
	}
	s.nodecf = 3.5 * omeosq * xhdot1 * s.cc1
	s.t2cof = 1.5 * s.cc1
	// Avoid division by zero for inclo = 180°.
	if math.Abs(cosio+1.0) > 1.5e-12 {
		s.xlcof = -0.25 * j3oj2 * sinio * (3.0 + 5.0*cosio) / (1.0 + cosio)
	} else {
		s.xlcof = -0.25 * j3oj2 * sinio * (3.0 + 5.0*cosio) / 1.5e-12
	}
	s.aycof = -0.5 * j3oj2 * sinio
	s.delmo = math.Pow(1.0+s.eta*math.Cos(s.mo), 3)
	s.sinmao = math.Sin(s.mo)
	s.x7thm1 = 7.0*cosio2 - 1.0

	if !s.isimp {
		cc1sq := s.cc1 * s.cc1
		s.d2 = 4.0 * ao * tsi * cc1sq
		temp := s.d2 * tsi * s.cc1 / 3.0
		s.d3 = (17.0*ao + sfour) * temp
		s.d4 = 0.5 * temp * ao * tsi * (221.0*ao + 31.0*sfour) * s.cc1
		s.t3cof = s.d2 + 2.0*cc1sq
		s.t4cof = 0.25 * (3.0*s.d3 + s.cc1*(12.0*s.d2+10.0*cc1sq))
		s.t5cof = 0.2 * (3.0*s.d4 + 12.0*s.cc1*s.d3 + 6.0*s.d2*s.d2 +
			15.0*cc1sq*(2.0*s.d2+cc1sq))
	}
}

// PropagateMinutes computes the TEME state at tsince minutes after the
// element set epoch. Negative times propagate backwards.
func (s *Satellite) PropagateMinutes(tsince float64) (State, error) {
	var st State
	vkmpersec := earthRadiusKm * xke / 60.0
	t := tsince

	// Secular gravity and atmospheric drag.
	xmdf := s.mo + s.mdot*t
	argpdf := s.argpo + s.argpdot*t
	nodedf := s.nodeo + s.nodedot*t
	argpm := argpdf
	mm := xmdf
	t2 := t * t
	nodem := nodedf + s.nodecf*t2
	tempa := 1.0 - s.cc1*t
	tempe := s.bstar * s.cc4 * t
	templ := s.t2cof * t2

	if !s.isimp {
		delomg := s.omgcof * t
		delmtemp := 1.0 + s.eta*math.Cos(xmdf)
		delm := s.xmcof * (delmtemp*delmtemp*delmtemp - s.delmo)
		temp := delomg + delm
		mm = xmdf + temp
		argpm = argpdf - temp
		t3 := t2 * t
		t4 := t3 * t
		tempa = tempa - s.d2*t2 - s.d3*t3 - s.d4*t4
		tempe = tempe + s.bstar*s.cc5*(math.Sin(mm)-s.sinmao)
		templ = templ + s.t3cof*t3 + t4*(s.t4cof+t*s.t5cof)
	}

	nm := s.no
	em := s.ecco
	inclm := s.inclo

	am := math.Pow(xke/nm, x2o3) * tempa * tempa
	nm = xke / math.Pow(am, 1.5)
	em = em - tempe

	if em >= 1.0 || em < -0.001 {
		return st, fmt.Errorf("%w: e=%v at t=%v min", ErrEccentricity, em, t)
	}
	if em < 1.0e-6 {
		em = 1.0e-6
	}
	mm = mm + s.no*templ
	xlm := mm + argpm + nodem

	nodem = math.Mod(nodem, twoPi)
	argpm = math.Mod(argpm, twoPi)
	xlm = math.Mod(xlm, twoPi)
	mm = math.Mod(xlm-argpm-nodem, twoPi)

	sinim := math.Sin(inclm)
	cosim := math.Cos(inclm)

	ep := em
	xincp := inclm
	argpp := argpm
	nodep := nodem
	mp := mm
	sinip := sinim
	cosip := cosim

	// Long period periodics.
	axnl := ep * math.Cos(argpp)
	temp := 1.0 / (am * (1.0 - ep*ep))
	aynl := ep*math.Sin(argpp) + temp*s.aycof
	xl := mp + argpp + nodep + temp*s.xlcof*axnl

	// Solve Kepler's equation.
	u := math.Mod(xl-nodep, twoPi)
	eo1 := u
	tem5 := 9999.9
	var sineo1, coseo1 float64
	for ktr := 1; math.Abs(tem5) >= 1.0e-12 && ktr <= 10; ktr++ {
		sineo1 = math.Sin(eo1)
		coseo1 = math.Cos(eo1)
		tem5 = 1.0 - coseo1*axnl - sineo1*aynl
		tem5 = (u - aynl*coseo1 + axnl*sineo1 - eo1) / tem5
		if math.Abs(tem5) >= 0.95 {
			if tem5 > 0 {
				tem5 = 0.95
			} else {
				tem5 = -0.95
			}
		}
		eo1 += tem5
	}

	// Short period preliminary quantities.
	ecose := axnl*coseo1 + aynl*sineo1
	esine := axnl*sineo1 - aynl*coseo1
	el2 := axnl*axnl + aynl*aynl
	pl := am * (1.0 - el2)
	if pl < 0.0 {
		return st, fmt.Errorf("%w: pl=%v at t=%v min", ErrSemiLatus, pl, t)
	}

	rl := am * (1.0 - ecose)
	rdotl := math.Sqrt(am) * esine / rl
	rvdotl := math.Sqrt(pl) / rl
	betal := math.Sqrt(1.0 - el2)
	temp = esine / (1.0 + betal)
	sinu := am / rl * (sineo1 - aynl - axnl*temp)
	cosu := am / rl * (coseo1 - axnl + aynl*temp)
	su := math.Atan2(sinu, cosu)
	sin2u := (cosu + cosu) * sinu
	cos2u := 1.0 - 2.0*sinu*sinu
	temp = 1.0 / pl
	temp1 := 0.5 * j2 * temp
	temp2 := temp1 * temp

	// Short period periodics.
	mrt := rl*(1.0-1.5*temp2*betal*s.con41) + 0.5*temp1*s.x1mth2*cos2u
	su = su - 0.25*temp2*s.x7thm1*sin2u
	xnode := nodep + 1.5*temp2*cosip*sin2u
	xinc := xincp + 1.5*temp2*cosip*sinip*cos2u
	mvt := rdotl - nm*temp1*s.x1mth2*sin2u/xke
	rvdot := rvdotl + nm*temp1*(s.x1mth2*cos2u+1.5*s.con41)/xke

	// Orientation vectors.
	sinsu := math.Sin(su)
	cossu := math.Cos(su)
	snod := math.Sin(xnode)
	cnod := math.Cos(xnode)
	sini := math.Sin(xinc)
	cosi := math.Cos(xinc)
	xmx := -snod * cosi
	xmy := cnod * cosi
	ux := xmx*sinsu + cnod*cossu
	uy := xmy*sinsu + snod*cossu
	uz := sini * sinsu
	vx := xmx*cossu - cnod*sinsu
	vy := xmy*cossu - snod*sinsu
	vz := sini * cossu

	st.Position = geom.Vec3{
		X: mrt * ux * earthRadiusKm,
		Y: mrt * uy * earthRadiusKm,
		Z: mrt * uz * earthRadiusKm,
	}
	st.Velocity = geom.Vec3{
		X: (mvt*ux + rvdot*vx) * vkmpersec,
		Y: (mvt*uy + rvdot*vy) * vkmpersec,
		Z: (mvt*uz + rvdot*vz) * vkmpersec,
	}

	if mrt < 1.0 {
		return st, fmt.Errorf("%w: norad %d at t=%v min", ErrDecayed, s.noradID, t)
	}
	return st, nil
}
