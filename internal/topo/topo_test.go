package topo

import (
	"math"
	"testing"

	"celestial/internal/geom"
	"celestial/internal/orbit"
)

func delta(planes, sats int) orbit.ShellConfig {
	return orbit.ShellConfig{
		Name: "delta", Planes: planes, SatsPerPlane: sats, AltitudeKm: 550,
		InclinationDeg: 53, ArcDeg: 360, Model: orbit.ModelKepler,
	}
}

func star(planes, sats int) orbit.ShellConfig {
	return orbit.ShellConfig{
		Name: "star", Planes: planes, SatsPerPlane: sats, AltitudeKm: 780,
		InclinationDeg: 90, ArcDeg: 180, Model: orbit.ModelKepler,
	}
}

// linkSet builds a lookup set with normalized order.
func linkSet(links []ISL) map[[2]int]bool {
	set := make(map[[2]int]bool, len(links))
	for _, l := range links {
		a, b := l.A, l.B
		if a > b {
			a, b = b, a
		}
		set[[2]int{a, b}] = true
	}
	return set
}

func TestGridLinksDeltaCount(t *testing.T) {
	// Full torus: 2 links per satellite pair direction = 2*P*S edges.
	cfg := delta(6, 8)
	links := GridLinks(cfg)
	if want := 2 * 6 * 8; len(links) != want {
		t.Fatalf("links = %d, want %d", len(links), want)
	}
	// No duplicates.
	if set := linkSet(links); len(set) != len(links) {
		t.Errorf("duplicate links: %d unique of %d", len(set), len(links))
	}
	// Every satellite has degree 4.
	deg := map[int]int{}
	for _, l := range links {
		deg[l.A]++
		deg[l.B]++
	}
	for i := 0; i < cfg.Size(); i++ {
		if deg[i] != 4 {
			t.Errorf("sat %d degree = %d, want 4", i, deg[i])
		}
	}
}

func TestGridLinksStarSeam(t *testing.T) {
	cfg := star(6, 11)
	links := GridLinks(cfg)
	// 6 planes * 11 intra + 5 plane-pairs * 11 inter = 66 + 55 = 121.
	if want := 6*11 + 5*11; len(links) != want {
		t.Fatalf("links = %d, want %d", len(links), want)
	}
	// No link between plane 0 (sats 0..10) and plane 5 (sats 55..65).
	for _, l := range links {
		pa, pb := l.A/11, l.B/11
		if (pa == 0 && pb == 5) || (pa == 5 && pb == 0) {
			t.Errorf("cross-seam link %v", l)
		}
	}
	// Satellites in middle planes have degree 4; seam planes have 3.
	deg := map[int]int{}
	for _, l := range links {
		deg[l.A]++
		deg[l.B]++
	}
	for i := 0; i < cfg.Size(); i++ {
		plane := i / 11
		want := 4
		if plane == 0 || plane == 5 {
			want = 3
		}
		if deg[i] != want {
			t.Errorf("sat %d (plane %d) degree = %d, want %d", i, plane, deg[i], want)
		}
	}
}

func TestGridLinksDegenerate(t *testing.T) {
	// Single plane: only the intra-plane ring.
	links := GridLinks(delta(1, 4))
	if len(links) != 4 {
		t.Errorf("single plane links = %d, want 4", len(links))
	}
	// Two satellites per plane: one intra-plane link each, no dupes.
	links = GridLinks(delta(1, 2))
	if len(links) != 1 {
		t.Errorf("two-sat plane links = %d, want 1", len(links))
	}
	// Two planes: inter-plane links not duplicated.
	links = GridLinks(delta(2, 3))
	set := linkSet(links)
	if len(set) != len(links) {
		t.Errorf("duplicates in 2-plane grid: %d unique of %d", len(set), len(links))
	}
	if want := 2*3 + 3; len(links) != want {
		t.Errorf("2-plane links = %d, want %d", len(links), want)
	}
	// Single satellite: no links at all.
	if links := GridLinks(delta(1, 1)); len(links) != 0 {
		t.Errorf("1x1 links = %v", links)
	}
}

func TestGridLinksAreShortRange(t *testing.T) {
	// All planned +GRID links must be physically feasible.
	cfg := delta(12, 12)
	shell, err := orbit.NewShell(cfg, geom.JulianDate(2022, 4, 14, 12, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	pos, err := shell.PositionsECEF(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	maxLen := MaxISLLengthKm(cfg.AltitudeKm, 0)
	for _, l := range GridLinks(cfg) {
		d := pos[l.A].Distance(pos[l.B])
		if d > maxLen {
			t.Errorf("link %v length %v exceeds max %v", l, d, maxLen)
		}
		if !Feasible(pos[l.A], pos[l.B], 0) {
			t.Errorf("link %v infeasible at distance %v", l, d)
		}
	}
}

func TestFeasible(t *testing.T) {
	r := geom.EarthRadiusKm
	a := geom.Vec3{X: r + 550}
	b := geom.Vec3{X: -(r + 550)}
	if Feasible(a, b, 0) {
		t.Error("antipodal link reported feasible")
	}
	c := geom.Vec3{X: r + 550, Y: 500}
	if !Feasible(a, c, 0) {
		t.Error("short link reported infeasible")
	}
}

func TestMaxISLLength(t *testing.T) {
	// At 550 km with an 80 km cutoff: 2*sqrt((6928.137)^2-(6458.137)^2) ≈ 5016 km.
	got := MaxISLLengthKm(550, 0)
	if math.Abs(got-5016) > 10 {
		t.Errorf("max ISL at 550 km = %v, want ≈5016", got)
	}
	if MaxISLLengthKm(50, 80) != 0 {
		t.Error("below-cutoff orbit should have zero ISL length")
	}
	// Higher orbits allow longer links.
	if MaxISLLengthKm(1325, 0) <= got {
		t.Error("max ISL did not grow with altitude")
	}
}

// VisibleSats is the brute-force visibility oracle the index tests compare
// against: a full scan into a fresh buffer.
func VisibleSats(station geom.Vec3, sats []geom.Vec3, minElevDeg float64) []Uplink {
	return VisibleSatsInto(station, sats, minElevDeg, nil)
}

func TestVisibleSats(t *testing.T) {
	station := geom.LatLon{LatDeg: 0, LonDeg: 0}.ECEF()
	sats := []geom.Vec3{
		geom.LatLon{LatDeg: 0, LonDeg: 0, AltKm: 550}.ECEF(),    // overhead
		geom.LatLon{LatDeg: 5, LonDeg: 5, AltKm: 550}.ECEF(),    // high elevation
		geom.LatLon{LatDeg: 0, LonDeg: 90, AltKm: 550}.ECEF(),   // below horizon
		geom.LatLon{LatDeg: -170, LonDeg: 0, AltKm: 550}.ECEF(), // other side
	}
	ups := VisibleSats(station, sats, 25)
	if len(ups) != 2 {
		t.Fatalf("visible = %d, want 2 (%v)", len(ups), ups)
	}
	// Sorted closest first: the overhead satellite.
	if ups[0].Sat != 0 {
		t.Errorf("closest = sat %d, want 0", ups[0].Sat)
	}
	if math.Abs(ups[0].DistanceKm-550) > 1 {
		t.Errorf("overhead distance = %v", ups[0].DistanceKm)
	}
	if math.Abs(ups[0].ElevationDeg-90) > 0.5 {
		t.Errorf("overhead elevation = %v", ups[0].ElevationDeg)
	}
}

func TestClosestSat(t *testing.T) {
	station := geom.LatLon{LatDeg: 10, LonDeg: 20}.ECEF()
	sats := []geom.Vec3{
		geom.LatLon{LatDeg: 11, LonDeg: 20, AltKm: 550}.ECEF(),
		geom.LatLon{LatDeg: 10, LonDeg: 21, AltKm: 1100}.ECEF(),
	}
	// The closest satellite heads the list, whatever its altitude.
	ups := VisibleSats(station, sats, 25)
	if len(ups) == 0 {
		t.Fatal("no satellite found")
	}
	if ups[0].Sat != 0 {
		t.Errorf("closest = %d, want 0", ups[0].Sat)
	}
	// Raising the bar above every elevation yields no uplink.
	if ups := VisibleSats(station, sats, 89.99); len(ups) != 0 {
		t.Errorf("found uplinks %v despite impossible elevation requirement", ups)
	}
	// Empty satellite list.
	if ups := VisibleSats(station, nil, 25); len(ups) != 0 {
		t.Errorf("found uplinks %v with no satellites", ups)
	}
}

func TestNewLink(t *testing.T) {
	l := NewLink(KindISL, 3, 7, 2997.92458)
	if l.LatencyS < 0.0099 || l.LatencyS > 0.0101 {
		t.Errorf("latency = %v, want ≈10 ms", l.LatencyS)
	}
	if l.Kind.String() != "isl" || KindGSL.String() != "gsl" {
		t.Error("kind strings wrong")
	}
	if LinkKind(0).String() != "kind(0)" {
		t.Error("unknown kind string wrong")
	}
}

func BenchmarkGridLinksStarlink1(b *testing.B) {
	cfg := orbit.StarlinkPhase1(orbit.ModelKepler)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GridLinks(cfg)
	}
}

func BenchmarkVisibleSats1584(b *testing.B) {
	cfg := orbit.StarlinkPhase1(orbit.ModelKepler)[0]
	shell, err := orbit.NewShell(cfg, geom.JulianDate(2022, 4, 14, 12, 0, 0))
	if err != nil {
		b.Fatal(err)
	}
	pos, err := shell.PositionsECEF(0, nil)
	if err != nil {
		b.Fatal(err)
	}
	station := geom.LatLon{LatDeg: 5.6, LonDeg: -0.2}.ECEF() // Accra
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		VisibleSats(station, pos, 25)
	}
}

func TestVisibleSatsIntoReusesBuffer(t *testing.T) {
	sh, err := orbit.NewShell(delta(24, 22), 2459580.5)
	if err != nil {
		t.Fatal(err)
	}
	pos, err := sh.PositionsECEF(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	station := geom.LatLon{LatDeg: 5.6, LonDeg: -0.19}.ECEF()
	want := VisibleSats(station, pos, 25)
	if len(want) == 0 {
		t.Fatal("no visible satellites in a 528-sat shell")
	}
	// A warm buffer (filled with garbage from another scan) must be
	// truncated and produce identical results without reallocating.
	buf := make([]Uplink, 3, len(want)+4)
	got := VisibleSatsInto(station, pos, 25, buf)
	if len(got) != len(want) {
		t.Fatalf("got %d uplinks, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("uplink %d: %+v vs %+v", i, got[i], want[i])
		}
	}
	if &got[0] != &buf[:1][0] {
		t.Error("buffer was reallocated despite sufficient capacity")
	}
}
