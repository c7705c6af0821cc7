package viz

import (
	"strings"
	"testing"

	"celestial/internal/bbox"
	"celestial/internal/geom"
)

func TestMapDefaults(t *testing.T) {
	m := NewMap(0, 0)
	svg := m.SVG()
	if !strings.Contains(svg, `width="1024"`) || !strings.Contains(svg, `height="512"`) {
		t.Errorf("svg header = %q", svg[:100])
	}
	if !strings.HasPrefix(svg, "<svg ") || !strings.HasSuffix(strings.TrimSpace(svg), "</svg>") {
		t.Error("svg not well-formed")
	}
}

func TestProjection(t *testing.T) {
	m := NewMap(360, 180)
	x, y := m.project(geom.LatLon{LatDeg: 0, LonDeg: 0})
	if x != 180 || y != 90 {
		t.Errorf("origin = %v, %v", x, y)
	}
	// -180 normalizes to +180: both edges project to the same x.
	x, y = m.project(geom.LatLon{LatDeg: 90, LonDeg: -180})
	if x != 360 || y != 0 {
		t.Errorf("antimeridian = %v, %v", x, y)
	}
	x, y = m.project(geom.LatLon{LatDeg: -90, LonDeg: 180})
	if x != 360 || y != 180 {
		t.Errorf("bottom-right = %v, %v", x, y)
	}
	// Longitudes outside (-180, 180] are wrapped.
	x, _ = m.project(geom.LatLon{LonDeg: 190})
	if x != 10 {
		t.Errorf("wrapped x = %v", x)
	}
}

func TestElementsAccumulate(t *testing.T) {
	m := NewMap(100, 50)
	if m.Elements() != 0 {
		t.Fatal("fresh map not empty")
	}
	m.AddSatellite(geom.LatLon{}, "#fff", 2)
	m.AddGroundStation(geom.LatLon{LatDeg: 5}, "red", "accra")
	m.AddLink(geom.LatLon{}, geom.LatLon{LatDeg: 10, LonDeg: 10}, "blue", 1)
	if m.Elements() != 4 { // gst = marker + label
		t.Errorf("elements = %d", m.Elements())
	}
	svg := m.SVG()
	for _, want := range []string{"circle", "rect", "line", "accra"} {
		if !strings.Contains(svg, want) {
			t.Errorf("svg missing %q", want)
		}
	}
}

func TestLinkAntimeridianSplit(t *testing.T) {
	m := NewMap(360, 180)
	// Fiji to Hawaii crosses the date line: expect two line segments.
	m.AddLink(geom.LatLon{LatDeg: -17, LonDeg: 178}, geom.LatLon{LatDeg: 21, LonDeg: -157}, "red", 1)
	if m.Elements() != 2 {
		t.Errorf("elements = %d, want 2 segments", m.Elements())
	}
	// A short link stays one segment.
	m2 := NewMap(360, 180)
	m2.AddLink(geom.LatLon{LonDeg: 10}, geom.LatLon{LonDeg: 20}, "red", 1)
	if m2.Elements() != 1 {
		t.Errorf("short link elements = %d", m2.Elements())
	}
}

func TestAddBoxWrap(t *testing.T) {
	m := NewMap(360, 180)
	m.AddBox(bbox.Box{LatMinDeg: -40, LonMinDeg: 150, LatMaxDeg: 40, LonMaxDeg: -120}, "green")
	if m.Elements() != 2 {
		t.Errorf("wrapped box elements = %d, want 2", m.Elements())
	}
	m2 := NewMap(360, 180)
	m2.AddBox(bbox.Box{LatMinDeg: -5, LonMinDeg: -20, LatMaxDeg: 25, LonMaxDeg: 25}, "green")
	if m2.Elements() != 1 {
		t.Errorf("box elements = %d, want 1", m2.Elements())
	}
}

func TestGraticule(t *testing.T) {
	m := NewMap(360, 180)
	m.AddGraticule(90)
	// Longitudes -180,-90,0,90,180 (5) + latitudes -90,0,90... (3 at
	// step 90: -90, 0, 90).
	if m.Elements() != 5+3 {
		t.Errorf("graticule elements = %d", m.Elements())
	}
	m2 := NewMap(360, 180)
	m2.AddGraticule(-1) // defaults to 30
	if m2.Elements() == 0 {
		t.Error("default graticule empty")
	}
}

func TestShellColor(t *testing.T) {
	if ShellColor(0) != "#40e0d0" {
		t.Errorf("shell 0 = %s", ShellColor(0))
	}
	if ShellColor(5) != ShellColor(0) {
		t.Error("palette does not cycle")
	}
	if ShellColor(-1) != ShellColor(0) {
		t.Error("negative shell not clamped")
	}
}

func TestValueColor(t *testing.T) {
	if c := ValueColor(0, 0, 100); c != "#0040ff" {
		t.Errorf("min color = %s", c)
	}
	if c := ValueColor(100, 0, 100); c != "#ff4000" {
		t.Errorf("max color = %s", c)
	}
	// Clamped outside range.
	if ValueColor(-50, 0, 100) != ValueColor(0, 0, 100) {
		t.Error("below-min not clamped")
	}
	if ValueColor(500, 0, 100) != ValueColor(100, 0, 100) {
		t.Error("above-max not clamped")
	}
	// Degenerate range.
	if ValueColor(1, 5, 5) != "#808080" {
		t.Error("degenerate range not gray")
	}
}

func TestEscape(t *testing.T) {
	m := NewMap(100, 50)
	m.AddGroundStation(geom.LatLon{}, "#000", "<b>&x")
	svg := m.SVG()
	if strings.Contains(svg, "<b>") || !strings.Contains(svg, "&lt;b&gt;&amp;x") {
		t.Errorf("svg = %q", svg)
	}
}

func TestValueDot(t *testing.T) {
	m := NewMap(100, 50)
	m.AddValueDot(geom.LatLon{LatDeg: 10}, 50, 0, 100, 3)
	if m.Elements() != 1 {
		t.Error("value dot missing")
	}
}
