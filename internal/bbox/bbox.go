// Package bbox implements Celestial's geographic bounding box: a
// configurable area on Earth to which emulated satellite servers are
// limited (§3.3 of the paper). Satellites inside the box run as active
// machines; satellites outside are suspended to free host resources.
//
// The box also backs the resource estimation feature: Celestial "helps the
// user configure their bounding box in a manner that makes sure that
// available resources meet the demand from the emulation based on
// per-microVM resources and bounding box area".
package bbox

import (
	"fmt"
	"math"

	"celestial/internal/geom"
)

// Box is a latitude/longitude-aligned bounding box. A box whose LonMinDeg
// is greater than its LonMaxDeg crosses the antimeridian. The zero value is
// the degenerate box at (0, 0).
type Box struct {
	LatMinDeg float64
	LonMinDeg float64
	LatMaxDeg float64
	LonMaxDeg float64
}

// WholeEarth covers every location; with it no satellite is ever
// suspended (the remedy §6.3 of the paper suggests for state-dependent
// workloads).
var WholeEarth = Box{LatMinDeg: -90, LonMinDeg: -180, LatMaxDeg: 90, LonMaxDeg: 180}

// Validate reports an error for out-of-range coordinates.
func (b Box) Validate() error {
	switch {
	case b.LatMinDeg < -90 || b.LatMaxDeg > 90:
		return fmt.Errorf("bbox: latitude range [%v, %v] outside [-90, 90]", b.LatMinDeg, b.LatMaxDeg)
	case b.LatMinDeg > b.LatMaxDeg:
		return fmt.Errorf("bbox: latitude min %v greater than max %v", b.LatMinDeg, b.LatMaxDeg)
	case b.LonMinDeg < -180 || b.LonMinDeg > 180 || b.LonMaxDeg < -180 || b.LonMaxDeg > 180:
		return fmt.Errorf("bbox: longitude range [%v, %v] outside [-180, 180]", b.LonMinDeg, b.LonMaxDeg)
	}
	return nil
}

// CrossesAntimeridian reports whether the box wraps around ±180°.
func (b Box) CrossesAntimeridian() bool { return b.LonMinDeg > b.LonMaxDeg }

// IsWholeEarth reports whether the box covers every location, so callers
// on hot paths can skip the per-position geodetic conversion entirely (it
// dominated the constellation update's CPU profile for the default box).
func (b Box) IsWholeEarth() bool {
	return b.LatMinDeg <= -90 && b.LatMaxDeg >= 90 &&
		b.LonMinDeg <= -180 && b.LonMaxDeg >= 180
}

// Contains reports whether a geodetic location lies within the box.
// Altitude is ignored: a satellite is "inside" when its ground track is.
func (b Box) Contains(l geom.LatLon) bool {
	if l.LatDeg < b.LatMinDeg || l.LatDeg > b.LatMaxDeg {
		return false
	}
	return b.containsLon(geom.NormalizeLonDeg(l.LonDeg))
}

// containsLon reports whether a normalized longitude lies within the box's
// longitude range.
func (b Box) containsLon(lon float64) bool {
	if b.CrossesAntimeridian() {
		return lon >= b.LonMinDeg || lon <= b.LonMaxDeg
	}
	return lon >= b.LonMinDeg && lon <= b.LonMaxDeg
}

// ContainsECEF reports whether an Earth-fixed position's ground track lies
// within the box.
func (b Box) ContainsECEF(p geom.Vec3) bool {
	return b.Contains(geom.ToGeodetic(p))
}

// testerMarginDeg is the latitude margin inside which a Tester does not
// trust its bound and asks Box.ContainsECEF: five orders of magnitude above
// the 1e-12 rad at which geom.ToGeodetic's iteration stops, so a latitude
// the bound places further than this from a box edge is on the same side of
// it in the exact computation.
const testerMarginDeg = 1e-6

// Tester answers Box.ContainsECEF for one box, bit for bit, without the
// iterative geodetic conversion for almost every point. For a point on or
// above the ellipsoid at geodetic latitude φ and height h,
//
//	tan φ = (z/ρ) · (N+h) / (N(1−e²)+h),   ρ = √(x²+y²),
//
// and the second factor lies in [1, 1/(1−f)²] (≤ 1.00674), so tan φ lies
// between z/ρ and (z/ρ)/(1−f)². When that whole interval is on one side of
// a latitude edge by more than testerMarginDeg the edge is decided; when
// every edge is, the longitude — the same closed-form expression ToGeodetic
// evaluates — settles the answer. Otherwise (for a ±60° box, a band about
// 0.17° of latitude wide at each edge), and for points below the equatorial
// sphere, on the polar axis or absurdly far away, the tester falls back to
// Box.ContainsECEF.
type Tester struct {
	box Box
	// The latitude interval [lo, hi] of tan φ is wholly inside the box
	// when inLo <= lo && hi <= inHi, wholly outside when hi < outLo or
	// lo > outHi.
	inLo, inHi, outLo, outHi float64
	allLon                   bool
}

// NewTester prepares the fast containment test for b.
func NewTester(b Box) Tester {
	return Tester{
		box:    b,
		inLo:   tanDeg(b.LatMinDeg + testerMarginDeg),
		inHi:   tanDeg(b.LatMaxDeg - testerMarginDeg),
		outLo:  tanDeg(b.LatMinDeg - testerMarginDeg),
		outHi:  tanDeg(b.LatMaxDeg + testerMarginDeg),
		allLon: b.LonMinDeg <= -180 && b.LonMaxDeg >= 180,
	}
}

// tanDeg is the tangent of a latitude in degrees, ±Inf at and beyond the
// poles: no latitude lies past them, so such an edge excludes nothing.
func tanDeg(deg float64) float64 {
	switch {
	case deg <= -90:
		return math.Inf(-1)
	case deg >= 90:
		return math.Inf(1)
	}
	return math.Tan(geom.Rad(deg))
}

// Bounds of the fast path: outside the equatorial sphere a point is on or
// above the ellipsoid (h >= 0, which the tan φ interval needs); ρ and |p|
// are bounded so that neither the squares nor z/ρ overflow or lose the
// axis case ToGeodetic handles separately.
const (
	testerMinR2   = geom.EarthRadiusKm * geom.EarthRadiusKm
	testerMaxR2   = 1e20
	testerMinRho2 = 1e-12
	// testerTanRatio is 1/(1−f)², the upper bound of tan φ / (z/ρ).
	testerTanRatio = 1 / ((1 - geom.EarthFlattening) * (1 - geom.EarthFlattening))
)

// ContainsECEF reports exactly what Box.ContainsECEF reports for the
// tester's box.
func (t *Tester) ContainsECEF(p geom.Vec3) bool {
	if in, decided := t.decide(p); decided {
		return in
	}
	return t.box.ContainsECEF(p)
}

// decide is the fast path: it answers for every point whose latitude
// interval clears all edges by the margin, and declines the rest.
func (t *Tester) decide(p geom.Vec3) (in, decided bool) {
	rho2 := p.X*p.X + p.Y*p.Y
	r2 := rho2 + p.Z*p.Z
	// Written so that a NaN coordinate fails the guard.
	if !(r2 >= testerMinR2 && r2 <= testerMaxR2 && rho2 >= testerMinRho2) {
		return false, false
	}
	lo := p.Z / math.Sqrt(rho2)
	hi := lo * testerTanRatio
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi < t.outLo || lo > t.outHi {
		return false, true
	}
	if lo >= t.inLo && hi <= t.inHi {
		return t.allLon || t.box.containsLon(
			geom.NormalizeLonDeg(geom.Deg(math.Atan2(p.Y, p.X)))), true
	}
	return false, false
}

// LonSpanDeg returns the longitudinal extent of the box in degrees.
func (b Box) LonSpanDeg() float64 {
	if b.CrossesAntimeridian() {
		return 360 - (b.LonMinDeg - b.LonMaxDeg)
	}
	return b.LonMaxDeg - b.LonMinDeg
}

// AreaFraction returns the fraction of the Earth's surface the box covers,
// using the exact spherical-zone formula.
func (b Box) AreaFraction() float64 {
	latSpan := math.Sin(geom.Rad(b.LatMaxDeg)) - math.Sin(geom.Rad(b.LatMinDeg))
	return latSpan / 2 * (b.LonSpanDeg() / 360)
}

// AreaKm2 returns the surface area of the box in square kilometers.
func (b Box) AreaKm2() float64 {
	return b.AreaFraction() * 4 * math.Pi * geom.EarthRadiusKm * geom.EarthRadiusKm
}

// String implements fmt.Stringer.
func (b Box) String() string {
	return fmt.Sprintf("bbox[%.2f,%.2f → %.2f,%.2f]",
		b.LatMinDeg, b.LonMinDeg, b.LatMaxDeg, b.LonMaxDeg)
}

// Estimate is the resource demand prediction for running a bounding box.
type Estimate struct {
	// ExpectedActive is the expected number of simultaneously active
	// satellite machines (satellites whose ground track is in the box).
	ExpectedActive int
	// PeakActive is a conservative upper bound including a safety
	// margin for uneven satellite distribution.
	PeakActive int
	// VCPUs and MemoryMiB are the host resources needed to run
	// PeakActive machines plus the configured ground stations.
	VCPUs     int
	MemoryMiB int
}

// MachineSize describes the per-machine resource allocation used for the
// estimate.
type MachineSize struct {
	VCPUs     int
	MemoryMiB int
}

// EstimateResources predicts host resource demand for a bounding box, given
// the total number of constellation satellites, the per-satellite machine
// size, and the ground-station machines (count and size). The expected
// number of in-box satellites is the box's area fraction times the
// constellation size; the peak estimate applies a 1.5× margin, mirroring
// Celestial's behavior of suggesting capacity above the average demand
// (the paper's example estimates 137 cores and then deliberately
// over-provisions with 96).
func EstimateResources(b Box, totalSats int, sat MachineSize, gstCount int, gst MachineSize) Estimate {
	expected := int(math.Ceil(b.AreaFraction() * float64(totalSats)))
	peak := int(math.Ceil(1.5 * float64(expected)))
	if peak > totalSats {
		peak = totalSats
	}
	if expected > totalSats {
		expected = totalSats
	}
	return Estimate{
		ExpectedActive: expected,
		PeakActive:     peak,
		VCPUs:          peak*sat.VCPUs + gstCount*gst.VCPUs,
		MemoryMiB:      peak*sat.MemoryMiB + gstCount*gst.MemoryMiB,
	}
}
