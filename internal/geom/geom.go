// Package geom provides the geometric and geodetic primitives used by the
// Celestial constellation calculation: Cartesian vectors, WGS84 Earth
// constants, conversions between geodetic, Earth-centered Earth-fixed
// (ECEF) and Earth-centered inertial (ECI) frames, Greenwich mean sidereal
// time, and line-of-sight tests with a configurable atmospheric occlusion
// altitude.
//
// Distances are in kilometers and angles in radians unless a name says
// otherwise. All functions are pure and safe for concurrent use.
package geom

import (
	"fmt"
	"math"
)

// Earth and physical constants. Values follow WGS84 and the conventions of
// the SGP4 reference implementation.
const (
	// EarthRadiusKm is the WGS84 equatorial radius of the Earth.
	EarthRadiusKm = 6378.137

	// EarthFlattening is the WGS84 flattening factor.
	EarthFlattening = 1.0 / 298.257223563

	// EarthMuKm3S2 is the WGS84 gravitational parameter in km^3/s^2.
	EarthMuKm3S2 = 398600.4418

	// SpeedOfLightKmS is the speed of light in vacuum in km/s. The paper
	// assumes both laser ISLs and RF ground links propagate at c.
	SpeedOfLightKmS = 299792.458

	// AtmosphereCutoffKm is the default altitude below which an
	// inter-satellite laser link is considered refracted by the
	// atmosphere and therefore unavailable (see §3.1 of the paper).
	AtmosphereCutoffKm = 80.0
)

// Deg converts radians to degrees.
func Deg(rad float64) float64 { return rad * 180 / math.Pi }

// Rad converts degrees to radians.
func Rad(deg float64) float64 { return deg * math.Pi / 180 }

// Vec3 is a three-dimensional Cartesian vector in kilometers.
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Dot returns the dot product of v and w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Unit returns v normalized to unit length. The zero vector is returned
// unchanged.
func (v Vec3) Unit() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Distance returns the Euclidean distance between v and w in kilometers.
func (v Vec3) Distance(w Vec3) float64 { return v.Sub(w).Norm() }

// String implements fmt.Stringer.
func (v Vec3) String() string {
	return fmt.Sprintf("(%.3f, %.3f, %.3f)", v.X, v.Y, v.Z)
}

// LatLon is a geodetic coordinate in degrees with altitude in kilometers
// above the WGS84 ellipsoid.
type LatLon struct {
	LatDeg float64
	LonDeg float64
	AltKm  float64
}

// String implements fmt.Stringer.
func (l LatLon) String() string {
	return fmt.Sprintf("%.4f°, %.4f°, %.1f km", l.LatDeg, l.LonDeg, l.AltKm)
}

// NormalizeLonDeg wraps a longitude into (-180, 180].
func NormalizeLonDeg(lon float64) float64 {
	lon = math.Mod(lon, 360)
	if lon > 180 {
		lon -= 360
	}
	if lon <= -180 {
		lon += 360
	}
	return lon
}

// ECEF converts a geodetic coordinate to an ECEF position vector using the
// WGS84 ellipsoid.
func (l LatLon) ECEF() Vec3 {
	lat := Rad(l.LatDeg)
	lon := Rad(l.LonDeg)
	sinLat := math.Sin(lat)
	cosLat := math.Cos(lat)
	e2 := EarthFlattening * (2 - EarthFlattening)
	n := EarthRadiusKm / math.Sqrt(1-e2*sinLat*sinLat)
	return Vec3{
		X: (n + l.AltKm) * cosLat * math.Cos(lon),
		Y: (n + l.AltKm) * cosLat * math.Sin(lon),
		Z: (n*(1-e2) + l.AltKm) * sinLat,
	}
}

// ToGeodetic converts an ECEF position vector to geodetic coordinates using
// Bowring's iterative method. It converges to sub-millimeter accuracy in a
// handful of iterations for any LEO-relevant position.
func ToGeodetic(p Vec3) LatLon {
	lon := math.Atan2(p.Y, p.X)
	rho := math.Hypot(p.X, p.Y)
	e2 := EarthFlattening * (2 - EarthFlattening)

	// Near the poles the iteration below divides by cos(lat); handle the
	// axis directly.
	if rho < 1e-9 {
		b := EarthRadiusKm * (1 - EarthFlattening)
		lat := math.Pi / 2
		if p.Z < 0 {
			lat = -lat
		}
		return LatLon{LatDeg: Deg(lat), LonDeg: 0, AltKm: math.Abs(p.Z) - b}
	}

	lat := math.Atan2(p.Z, rho*(1-e2))
	var alt float64
	for i := 0; i < 8; i++ {
		sinLat := math.Sin(lat)
		n := EarthRadiusKm / math.Sqrt(1-e2*sinLat*sinLat)
		alt = rho/math.Cos(lat) - n
		newLat := math.Atan2(p.Z, rho*(1-e2*n/(n+alt)))
		if math.Abs(newLat-lat) < 1e-12 {
			lat = newLat
			break
		}
		lat = newLat
	}
	return LatLon{LatDeg: Deg(lat), LonDeg: NormalizeLonDeg(Deg(lon)), AltKm: alt}
}

// GreatCircleKm returns the great-circle surface distance between two
// geodetic points on a sphere of EarthRadiusKm, ignoring altitude. It uses
// the haversine formula.
func GreatCircleKm(a, b LatLon) float64 {
	lat1, lon1 := Rad(a.LatDeg), Rad(a.LonDeg)
	lat2, lon2 := Rad(b.LatDeg), Rad(b.LonDeg)
	dLat := lat2 - lat1
	dLon := lon2 - lon1
	h := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * EarthRadiusKm * math.Asin(math.Min(1, math.Sqrt(h)))
}

// GMST returns the Greenwich mean sidereal time in radians for a given time
// expressed as a Julian date (UT1). It follows the IAU 1982 model, which is
// the convention SGP4 implementations use to rotate ECI (TEME) positions
// into the Earth-fixed frame.
func GMST(julianDate float64) float64 {
	// Centuries since J2000.0.
	t := (julianDate - 2451545.0) / 36525.0
	// Seconds of sidereal time.
	theta := 67310.54841 +
		(876600.0*3600+8640184.812866)*t +
		0.093104*t*t -
		6.2e-6*t*t*t
	// Convert from seconds of time to radians (360°/86400 s * π/180).
	rad := math.Mod(Rad(theta/240.0), 2*math.Pi)
	if rad < 0 {
		rad += 2 * math.Pi
	}
	return rad
}

// EarthRotation is the rotation from the ECI (TEME) frame into the
// Earth-fixed frame at one Greenwich mean sidereal time. It holds the
// GMST's cosine and sine, so every position rotated at one instant shares
// one pair of trig calls.
type EarthRotation struct {
	cosT, sinT float64
}

// EarthRotationAt returns the rotation at a Greenwich mean sidereal time
// in radians.
func EarthRotationAt(gmstRad float64) EarthRotation {
	return EarthRotation{cosT: math.Cos(gmstRad), sinT: math.Sin(gmstRad)}
}

// ECIToECEF rotates an ECI (TEME) position into the Earth-fixed frame.
func (r EarthRotation) ECIToECEF(p Vec3) Vec3 {
	return Vec3{
		X: r.cosT*p.X + r.sinT*p.Y,
		Y: -r.sinT*p.X + r.cosT*p.Y,
		Z: p.Z,
	}
}

// LineOfSight reports whether the straight segment between two positions
// clears a sphere of radius EarthRadiusKm + occlusionAltKm centered at the
// origin. It is used for ISL feasibility: a laser link whose lowest point
// dips into the atmosphere (default cutoff 80 km) is considered refracted
// and unavailable. It also returns the segment's length, which the test
// forms on the way: b−a is the exact negation of a−b, so the length is
// a.Distance(b) bit for bit.
func LineOfSight(a, b Vec3, occlusionAltKm float64) (lengthKm float64, clear bool) {
	r := EarthRadiusKm + occlusionAltKm
	// Closest approach of segment ab to the origin.
	ab := b.Sub(a)
	abLen2 := ab.Dot(ab)
	if abLen2 == 0 {
		return 0, a.Norm() > r
	}
	t := -a.Dot(ab) / abLen2
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	closest := a.Add(ab.Scale(t))
	return math.Sqrt(abLen2), closest.Norm() > r
}

// PropagationDelay returns the one-way signal propagation delay for a
// straight-line distance in kilometers, assuming propagation at the speed
// of light in vacuum (the paper's assumption for both laser ISLs and RF
// ground links).
func PropagationDelay(distanceKm float64) float64 {
	return distanceKm / SpeedOfLightKmS
}

// Footprint returns the maximum great-circle (central-angle) radius in
// radians of the coverage cone of a satellite at altKm altitude for ground
// stations requiring at least minElevDeg elevation.
func Footprint(altKm, minElevDeg float64) float64 {
	e := Rad(minElevDeg)
	// From the geometry of the Earth-centered triangle:
	//   sin(beta) = Re/(Re+h) * cos(e);  central angle = pi/2 - e - beta.
	beta := math.Asin(EarthRadiusKm / (EarthRadiusKm + altKm) * math.Cos(e))
	return math.Pi/2 - e - beta
}

// JulianDate converts a calendar date/time (UTC) to a Julian date. Valid
// for all dates after 1900, which covers every TLE epoch.
func JulianDate(year, month, day, hour, minute int, sec float64) float64 {
	if month <= 2 {
		year--
		month += 12
	}
	a := year / 100
	b := 2 - a + a/4
	jd := math.Floor(365.25*float64(year+4716)) +
		math.Floor(30.6001*float64(month+1)) +
		float64(day) + float64(b) - 1524.5
	return jd + (float64(hour)+float64(minute)/60+sec/3600)/24
}
