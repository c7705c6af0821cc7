// Package topo derives the network topology of a LEO constellation: the
// +GRID inter-satellite link plan, per-snapshot ISL feasibility based on
// line of sight, and ground-station uplink selection based on a minimum
// elevation above the horizon (§2.1 and §3.1 of the paper).
package topo

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"celestial/internal/geom"
	"celestial/internal/orbit"
)

// ISL is a planned inter-satellite link between two satellites of the same
// shell, identified by flat indices.
type ISL struct {
	A, B int
}

// GridLinks returns the +GRID ISL plan for a shell: every satellite links
// to its predecessor and successor within its plane and to the satellite
// with the same in-plane index in each of the two closest adjacent planes.
// For Walker star constellations (arc of ascending nodes < 360°) the first
// and last plane are not adjacent: their satellites move in opposite
// directions, so no cross-seam ISLs exist — the Iridium property shown in
// Fig. 10 of the paper.
func GridLinks(cfg orbit.ShellConfig) []ISL {
	p, s := cfg.Planes, cfg.SatsPerPlane
	links := make([]ISL, 0, 2*p*s)
	flat := func(plane, idx int) int { return plane*s + idx }

	// Intra-plane ring links.
	if s > 1 {
		for pl := 0; pl < p; pl++ {
			for k := 0; k < s; k++ {
				next := (k + 1) % s
				if s == 2 && next < k {
					continue // avoid duplicating the single pair
				}
				links = append(links, ISL{A: flat(pl, k), B: flat(pl, next)})
			}
		}
	}

	// Inter-plane links to the next plane; plane p-1 to plane 0 only for
	// full-circle (delta) constellations.
	wrap := cfg.ArcDeg == 0 || cfg.ArcDeg >= 360
	if p > 1 {
		last := p - 1
		if !wrap {
			last = p - 2
		}
		for pl := 0; pl <= last; pl++ {
			nextPlane := (pl + 1) % p
			if p == 2 && nextPlane < pl {
				continue
			}
			for k := 0; k < s; k++ {
				links = append(links, ISL{A: flat(pl, k), B: flat(nextPlane, k)})
			}
		}
	}
	return links
}

// Feasible reports whether an ISL between two satellite positions is
// usable: the straight laser path must clear the atmosphere occlusion
// altitude (default geom.AtmosphereCutoffKm when cutoffKm is zero). It also
// returns the link's length, a.Distance(b) bit for bit, from the chord the
// line-of-sight test forms anyway.
func Feasible(a, b geom.Vec3, cutoffKm float64) (distanceKm float64, ok bool) {
	if cutoffKm == 0 {
		cutoffKm = geom.AtmosphereCutoffKm
	}
	return geom.LineOfSight(a, b, cutoffKm)
}

// Uplink is a candidate ground-to-satellite link.
type Uplink struct {
	// Sat is the flat index of the satellite within its shell.
	Sat int
	// DistanceKm is the slant range between station and satellite.
	DistanceKm float64
	// SinEl is the sine of the satellite's elevation above the station's
	// horizon, as the mask test computed it (see ElevationDeg).
	SinEl float64
}

// ElevationDeg returns the satellite's elevation above the station's
// horizon. The scan keeps only the sine, which decides the mask for
// nearly every candidate; the angle is taken here, for the few uplinks
// that are read as angles (/v1/gst serves one per shell).
func (u Uplink) ElevationDeg() float64 { return elevationDeg(u.SinEl) }

// compareUplinks orders uplinks by ascending slant range, breaking exact
// distance ties by satellite index. The tie-break makes the order a total
// one: any enumeration of the same visible set (brute-force scan or
// spatial index) sorts to the same sequence. Sorting with slices.SortFunc
// allocates nothing, where sort.Sort boxes the slice on every call.
func compareUplinks(a, b Uplink) int {
	if c := cmp.Compare(a.DistanceKm, b.DistanceKm); c != 0 {
		return c
	}
	return cmp.Compare(a.Sat, b.Sat)
}

// shortRun is the longest uplink run sortUplinks orders by insertion: on
// runs in random order, the insertion sort stops beating slices.SortFunc
// between 256 and 288 uplinks (2-vCPU guest, go1.24.0).
const shortRun = 256

// sortUplinks sorts ups into compareUplinks order. At a 25° mask a station
// sees at most a few dozen satellites of one shell (49 in the benchmark
// workloads), and on such runs an insertion sort with its comparison
// inlined takes a fifth to a half of the time of the generic sort calling
// compareUplinks. Runs longer than shortRun, from a shell higher or denser
// than any checked-in one (Gen2's shells at a 0.01° mask give at most 232),
// take slices.SortFunc, so a long run never costs the insertion sort's
// quadratic time. The order is total, so both give the same sequence. A
// slant range is never NaN (a NaN sine fails the mask), so < and == agree
// with cmp.Compare on it.
func sortUplinks(ups []Uplink) {
	if len(ups) > shortRun {
		slices.SortFunc(ups, compareUplinks)
		return
	}
	for i := 1; i < len(ups); i++ {
		x := ups[i]
		j := i
		for ; j > 0; j-- {
			y := &ups[j-1]
			if y.DistanceKm < x.DistanceKm || y.DistanceKm == x.DistanceKm && y.Sat < x.Sat {
				break
			}
			ups[j] = *y
		}
		ups[j] = x
	}
}

// maskMargin is how far from sin(mask) a candidate's sine of elevation
// must lie to be decided without asin. The decision it stands for,
// deg(asin(sinEl)) ≥ mask, can only be moved by the rounding of sin, asin
// and the degree conversion, a few ulps (≤ 1e-15 absolute, since asin's
// slope is at least 1); the margin is a million times that.
const maskMargin = 1e-9

// uplinkTest is one station's elevation-mask test, shared by
// VisibleSatsInto and VisIndex.VisibleInto so both decide every candidate
// the same way. The elevation is geocentric: the station's zenith is its
// radial direction, which is accurate to well under a degree for ground
// stations (the ellipsoidal deflection of the vertical is below 0.2°).
type uplinkTest struct {
	station, zenith geom.Vec3
	minElevDeg      float64
	// rejectBelow is the sine of elevation below which no candidate can
	// clear the mask, sin(mask) − maskMargin, and acceptFrom the one from
	// which every candidate clears it, sin(mask) + maskMargin. Only the
	// sines between them take asin. For a mask above 90°, NaN, or at or
	// below −90° — where the clamp maps a sine to exactly −90°, which the
	// mask accepts — they are −Inf and +Inf: every candidate takes asin.
	rejectBelow, acceptFrom float64
}

// newUplinkTest prepares the mask test of one station: its zenith and the
// sine thresholds are computed once per query, not once per candidate.
func newUplinkTest(station geom.Vec3, minElevDeg float64) uplinkTest {
	u := uplinkTest{station: station, zenith: station.Unit(), minElevDeg: minElevDeg,
		rejectBelow: math.Inf(-1), acceptFrom: math.Inf(1)}
	if minElevDeg > -90 && minElevDeg <= 90 {
		sinMask := math.Sin(geom.Rad(minElevDeg))
		u.rejectBelow, u.acceptFrom = sinMask-maskMargin, sinMask+maskMargin
	}
	return u
}

// elevationDeg converts a sine of elevation to degrees, clamping the
// rounding of a unit-vector dot product into asin's domain.
func elevationDeg(sinEl float64) float64 {
	if sinEl > 1 {
		sinEl = 1
	} else if sinEl < -1 {
		sinEl = -1
	}
	return geom.Deg(math.Asin(sinEl))
}

// accept decides a candidate by its sine of elevation. A sine below
// rejectBelow or from acceptFrom on is decided without asin; every other
// one by elevationDeg(sinEl) ≥ mask, the test itself, so the margin only
// skips work and never moves a decision.
func (u *uplinkTest) accept(sinEl float64) bool {
	if sinEl < u.rejectBelow {
		return false
	}
	if sinEl >= u.acceptFrom {
		return true
	}
	return elevationDeg(sinEl) >= u.minElevDeg
}

// appendIfVisible appends satellite i, at position s, to out when it
// clears the mask. The slant range is the norm Unit takes of the line of
// sight: s − station is the exact negation of station − s, so it is
// station.Distance(s) bit for bit.
func (u *uplinkTest) appendIfVisible(out []Uplink, i int, s geom.Vec3) []Uplink {
	los := s.Sub(u.station)
	dist := los.Norm()
	if dist != 0 {
		los = los.Scale(1 / dist)
	}
	sinEl := los.Dot(u.zenith)
	if !u.accept(sinEl) {
		return out
	}
	return append(out, Uplink{Sat: i, DistanceKm: dist, SinEl: sinEl})
}

// VisibleSatsInto returns all satellites at least minElevDeg above the
// station's horizon, sorted by ascending slant range (closest first). The
// station position must be in the same Earth-fixed frame as the satellite
// positions. The result is written into buf (truncated and grown as
// needed), so per-tick visibility scans can reuse one allocation per
// ground station and shell; it aliases buf's backing array when that had
// sufficient capacity.
func VisibleSatsInto(station geom.Vec3, sats []geom.Vec3, minElevDeg float64, buf []Uplink) []Uplink {
	out := buf[:0]
	test := newUplinkTest(station, minElevDeg)
	for i, s := range sats {
		out = test.appendIfVisible(out, i, s)
	}
	sortUplinks(out)
	return out
}

// LinkKind distinguishes the two physical link types of the constellation
// network.
type LinkKind int

const (
	// KindISL is an inter-satellite laser link.
	KindISL LinkKind = iota + 1
	// KindGSL is a ground-to-satellite radio link.
	KindGSL
)

// String implements fmt.Stringer.
func (k LinkKind) String() string {
	switch k {
	case KindISL:
		return "isl"
	case KindGSL:
		return "gsl"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Link is a realized network link in one topology snapshot.
type Link struct {
	Kind LinkKind
	// A and B are node indices in the constellation-wide numbering
	// (assigned by the constellation package).
	A, B int
	// LatencyS is the one-way propagation delay at c.
	LatencyS float64
}

// MaxISLLengthKm returns the maximum feasible ISL length between two
// satellites at the given altitude, i.e. the chord that grazes the
// atmosphere cutoff. Links in a +GRID plan are always much shorter, but
// the bound is useful for validation and tests.
func MaxISLLengthKm(altKm, cutoffKm float64) float64 {
	if cutoffKm == 0 {
		cutoffKm = geom.AtmosphereCutoffKm
	}
	r := geom.EarthRadiusKm + altKm
	rc := geom.EarthRadiusKm + cutoffKm
	if r <= rc {
		return 0
	}
	return 2 * math.Sqrt(r*r-rc*rc)
}
