// Package topo derives the network topology of a LEO constellation: the
// +GRID inter-satellite link plan, per-snapshot ISL feasibility based on
// line of sight, and ground-station uplink selection based on a minimum
// elevation above the horizon (§2.1 and §3.1 of the paper).
package topo

import (
	"fmt"
	"math"
	"sort"

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
// altitude (default geom.AtmosphereCutoffKm when cutoffKm is zero).
func Feasible(a, b geom.Vec3, cutoffKm float64) bool {
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
	// ElevationDeg is the satellite's elevation above the station's
	// horizon.
	ElevationDeg float64
}

// byDistance sorts uplinks by ascending slant range, breaking exact
// distance ties by satellite index. The named type avoids the per-call
// closure and interface allocations of sort.Slice in the hot visibility
// loop, and the tie-break makes the order a total one: any enumeration of
// the same visible set (brute-force scan or spatial index) sorts to the
// same sequence.
type byDistance []Uplink

func (u byDistance) Len() int      { return len(u) }
func (u byDistance) Swap(i, j int) { u[i], u[j] = u[j], u[i] }
func (u byDistance) Less(i, j int) bool {
	if u[i].DistanceKm != u[j].DistanceKm {
		return u[i].DistanceKm < u[j].DistanceKm
	}
	return u[i].Sat < u[j].Sat
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
	for i, s := range sats {
		el := geom.ElevationDeg(station, s)
		if el >= minElevDeg {
			out = append(out, Uplink{
				Sat:          i,
				DistanceKm:   station.Distance(s),
				ElevationDeg: el,
			})
		}
	}
	sort.Sort(byDistance(out))
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
	// DistanceKm is the straight-line link length.
	DistanceKm float64
	// LatencyS is the one-way propagation delay at c.
	LatencyS float64
	// BandwidthKbps is the configured link capacity.
	BandwidthKbps float64
}

// NewLink fills in the derived latency for a link of a given length.
func NewLink(kind LinkKind, a, b int, distanceKm, bandwidthKbps float64) Link {
	return Link{
		Kind:          kind,
		A:             a,
		B:             b,
		DistanceKm:    distanceKm,
		LatencyS:      geom.PropagationDelay(distanceKm),
		BandwidthKbps: bandwidthKbps,
	}
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
