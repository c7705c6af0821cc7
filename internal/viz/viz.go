// Package viz is Celestial's animation/visualization component: it renders
// constellation snapshots — satellites, inter-satellite links, ground
// stations and their uplinks, bounding boxes, and per-location latency
// values — as SVG maps in an equirectangular projection. The paper
// generates Fig. 1 (Starlink overview) with this component and uses
// map-style figures for the DART case study (Figs. 10 and 11); the paper
// argues such visualization helps developers new to satellite networks
// understand satellite mobility and its effects (§3.1).
package viz

import (
	"fmt"
	"math"
	"strings"

	"celestial/internal/bbox"
	"celestial/internal/geom"
)

// Map is an SVG scene in an equirectangular (plate carrée) projection:
// x spans longitudes [-180, 180], y spans latitudes [90, -90].
type Map struct {
	w, h     int
	elements []string
}

// NewMap creates an empty map canvas. Width and height default to 1024×512
// when non-positive.
func NewMap(w, h int) *Map {
	if w <= 0 {
		w = 1024
	}
	if h <= 0 {
		h = w / 2
	}
	return &Map{w: w, h: h}
}

// project converts a geodetic location to canvas coordinates.
func (m *Map) project(l geom.LatLon) (x, y float64) {
	lon := geom.NormalizeLonDeg(l.LonDeg)
	x = (lon + 180) / 360 * float64(m.w)
	y = (90 - l.LatDeg) / 180 * float64(m.h)
	return x, y
}

// add appends a raw SVG element.
func (m *Map) add(format string, args ...any) {
	m.elements = append(m.elements, fmt.Sprintf(format, args...))
}

// AddGraticule draws latitude/longitude grid lines every step degrees.
func (m *Map) AddGraticule(step float64) {
	if step <= 0 {
		step = 30
	}
	for lon := -180.0; lon <= 180; lon += step {
		x, _ := m.project(geom.LatLon{LonDeg: lon})
		m.add(`<line x1="%.1f" y1="0" x2="%.1f" y2="%d" stroke="#ddd" stroke-width="0.5"/>`, x, x, m.h)
	}
	for lat := -90.0; lat <= 90; lat += step {
		_, y := m.project(geom.LatLon{LatDeg: lat})
		m.add(`<line x1="0" y1="%.1f" x2="%d" y2="%.1f" stroke="#ddd" stroke-width="0.5"/>`, y, m.w, y)
	}
}

// AddSatellite draws a satellite dot.
func (m *Map) AddSatellite(l geom.LatLon, color string, radius float64) {
	x, y := m.project(l)
	m.add(`<circle cx="%.1f" cy="%.1f" r="%.1f" fill="%s"/>`, x, y, radius, color)
}

// AddGroundStation draws a ground-station marker with an optional label.
func (m *Map) AddGroundStation(l geom.LatLon, color, label string) {
	x, y := m.project(l)
	m.add(`<rect x="%.1f" y="%.1f" width="6" height="6" fill="%s"/>`, x-3, y-3, color)
	if label != "" {
		m.add(`<text x="%.1f" y="%.1f" font-size="10" fill="#333">%s</text>`, x+5, y+4, escape(label))
	}
}

// AddLink draws a link between two locations, splitting it at the
// antimeridian when the short way around crosses ±180°.
func (m *Map) AddLink(a, b geom.LatLon, color string, width float64) {
	lonA := geom.NormalizeLonDeg(a.LonDeg)
	lonB := geom.NormalizeLonDeg(b.LonDeg)
	if math.Abs(lonA-lonB) <= 180 {
		x1, y1 := m.project(a)
		x2, y2 := m.project(b)
		m.add(`<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="%.1f"/>`,
			x1, y1, x2, y2, color, width)
		return
	}
	// The short segment wraps: draw two pieces to the map edges with
	// the crossing latitude interpolated at ±180°.
	east, west := a, b
	if lonA < lonB {
		east, west = b, a
	}
	lonE := geom.NormalizeLonDeg(east.LonDeg) // near +180
	lonW := geom.NormalizeLonDeg(west.LonDeg) // near -180
	span := (180 - lonE) + (lonW + 180)
	var frac float64
	if span > 0 {
		frac = (180 - lonE) / span
	}
	crossLat := east.LatDeg + (west.LatDeg-east.LatDeg)*frac
	x1, y1 := m.project(east)
	xe, ye := m.project(geom.LatLon{LatDeg: crossLat, LonDeg: 180})
	m.add(`<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="%.1f"/>`,
		x1, y1, xe, ye, color, width)
	x2, y2 := m.project(west)
	xw, yw := m.project(geom.LatLon{LatDeg: crossLat, LonDeg: -180})
	m.add(`<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="%.1f"/>`,
		xw, yw, x2, y2, color, width)
}

// AddBox draws a bounding box outline, handling antimeridian wrap by
// drawing two rectangles.
func (m *Map) AddBox(b bbox.Box, color string) {
	draw := func(lonMin, lonMax float64) {
		x1, y1 := m.project(geom.LatLon{LatDeg: b.LatMaxDeg, LonDeg: lonMin})
		x2, y2 := m.project(geom.LatLon{LatDeg: b.LatMinDeg, LonDeg: lonMax})
		m.add(`<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="none" stroke="%s" stroke-width="1.5" stroke-dasharray="6 3"/>`,
			x1, y1, x2-x1, y2-y1, color)
	}
	if b.CrossesAntimeridian() {
		draw(b.LonMinDeg, 180)
		draw(-180, b.LonMaxDeg)
		return
	}
	draw(b.LonMinDeg, b.LonMaxDeg)
}

// AddValueDot draws a filled circle colored by a value on the blue-to-red
// latency colormap of Fig. 11, normalized over [min, max].
func (m *Map) AddValueDot(l geom.LatLon, value, min, max float64, radius float64) {
	m.AddSatellite(l, ValueColor(value, min, max), radius)
}

// SVG renders the accumulated scene.
func (m *Map) SVG() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`,
		m.w, m.h, m.w, m.h)
	sb.WriteString("\n")
	fmt.Fprintf(&sb, `<rect width="%d" height="%d" fill="white"/>`, m.w, m.h)
	sb.WriteString("\n")
	for _, e := range m.elements {
		sb.WriteString(e)
		sb.WriteString("\n")
	}
	sb.WriteString("</svg>\n")
	return sb.String()
}

// Elements returns how many drawing elements the scene holds.
func (m *Map) Elements() int { return len(m.elements) }

// ShellPalette is the color sequence for shells, following Fig. 1's legend
// (turquoise, orange, blue, pink, green).
var ShellPalette = []string{"#40e0d0", "#ff8c00", "#4169e1", "#ff69b4", "#2e8b57"}

// ShellColor returns the palette color of a shell index (cycling).
func ShellColor(shell int) string {
	if shell < 0 {
		shell = 0
	}
	return ShellPalette[shell%len(ShellPalette)]
}

// ValueColor maps a value in [min, max] onto a blue→red gradient; values
// outside the range are clamped.
func ValueColor(v, min, max float64) string {
	if max <= min {
		return "#808080"
	}
	t := (v - min) / (max - min)
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	r := int(255 * t)
	b := int(255 * (1 - t))
	return fmt.Sprintf("#%02x40%02x", r, b)
}

func escape(s string) string {
	s = strings.ReplaceAll(s, "&", "&amp;")
	s = strings.ReplaceAll(s, "<", "&lt;")
	s = strings.ReplaceAll(s, ">", "&gt;")
	return s
}
