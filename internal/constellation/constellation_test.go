package constellation

import (
	"math"
	"testing"

	"celestial/internal/bbox"
	"celestial/internal/config"
	"celestial/internal/geom"
	"celestial/internal/netem"
	"celestial/internal/orbit"
	"celestial/internal/topo"
)

// testConfig builds a small delta constellation with three West-African
// ground stations and one southern data center, like Fig. 3 of the paper.
func testConfig(t testing.TB, model orbit.Model) *config.Config {
	t.Helper()
	cfg := &config.Config{
		Shells: []config.Shell{{
			ShellConfig: orbit.ShellConfig{
				Name: "shell", Planes: 24, SatsPerPlane: 22, AltitudeKm: 550,
				InclinationDeg: 53, ArcDeg: 360, PhasingFactor: 13, Model: model,
			},
		}},
		GroundStations: []config.GroundStation{
			{Name: "accra", Location: geom.LatLon{LatDeg: 5.6037, LonDeg: -0.1870}},
			{Name: "abuja", Location: geom.LatLon{LatDeg: 9.0765, LonDeg: 7.3986}},
			{Name: "yaounde", Location: geom.LatLon{LatDeg: 3.8480, LonDeg: 11.5021}},
			{Name: "johannesburg", Location: geom.LatLon{LatDeg: -26.2041, LonDeg: 28.0473}},
		},
	}
	cfg.Network.MinElevationDeg = 25
	if err := config.Finalize(cfg); err != nil {
		t.Fatal(err)
	}
	return cfg
}

func mustNew(t testing.TB, cfg *config.Config) *Constellation {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNodeNumbering(t *testing.T) {
	c := mustNew(t, testConfig(t, orbit.ModelKepler))
	if c.NodeCount() != 24*22+4 {
		t.Fatalf("node count = %d", c.NodeCount())
	}
	id, err := c.SatNode(0, 0)
	if err != nil || id != 0 {
		t.Errorf("SatNode(0,0) = %d, %v", id, err)
	}
	id, err = c.SatNode(0, 527)
	if err != nil || id != 527 {
		t.Errorf("SatNode(0,527) = %d, %v", id, err)
	}
	if _, err := c.SatNode(0, 528); err == nil {
		t.Error("accepted out-of-range satellite")
	}
	if _, err := c.SatNode(1, 0); err == nil {
		t.Error("accepted out-of-range shell")
	}
	gid, err := c.GSTNode(0)
	if err != nil || gid != 528 {
		t.Errorf("GSTNode(0) = %d, %v", gid, err)
	}
	byName, err := c.GSTNodeByName("johannesburg")
	if err != nil || byName != 531 {
		t.Errorf("GSTNodeByName = %d, %v", byName, err)
	}
	if _, err := c.GSTNodeByName("atlantis"); err == nil {
		t.Error("accepted unknown ground station")
	}
	for ref, want := range map[string]int{"johannesburg": 531, "527.0": 527, "0.0": 0} {
		if id, err := c.NodeByRef(ref); err != nil || id != want {
			t.Errorf("NodeByRef(%q) = %d, %v, want %d", ref, id, err, want)
		}
	}
	for _, ref := range []string{"atlantis", "528.0", "0.1", "3.0junk", "-1.0", "3.+0", "3.0.5", "007.0", ""} {
		if id, err := c.NodeByRef(ref); err == nil {
			t.Errorf("NodeByRef(%q) = %d, want an error", ref, id)
		}
	}
	node, err := c.Node(531)
	if err != nil || node.Kind != KindGroundStation || node.Name != "johannesburg" {
		t.Errorf("Node(531) = %+v, %v", node, err)
	}
	sat, err := c.Node(23)
	if err != nil || sat.Kind != KindSatellite || sat.Name != "23.0" {
		t.Errorf("Node(23) = %+v, %v", sat, err)
	}
	if _, err := c.Node(-1); err == nil {
		t.Error("accepted negative node")
	}
	if KindSatellite.String() != "sat" || KindGroundStation.String() != "gst" {
		t.Error("kind strings")
	}
}

func TestSnapshotBasics(t *testing.T) {
	c := mustNew(t, testConfig(t, orbit.ModelKepler))
	st, err := c.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Positions) != c.NodeCount() || len(st.Active) != c.NodeCount() {
		t.Fatal("snapshot sizes wrong")
	}
	// Whole-earth default bounding box: every node active.
	if st.ActiveCount() != c.NodeCount() {
		t.Errorf("active = %d, want %d", st.ActiveCount(), c.NodeCount())
	}
	// The +GRID over a torus has 2 links per satellite; plus uplinks.
	minISL := 2 * 24 * 22 * 9 / 10 // allow a few infeasible links
	if st.LinkCount() < minISL {
		t.Errorf("links = %d, want at least %d", st.LinkCount(), minISL)
	}
	// Satellite altitude is reflected in positions.
	alt := st.Positions[0].Norm() - geom.EarthRadiusKm
	if math.Abs(alt-550) > 5 {
		t.Errorf("sat altitude = %v", alt)
	}
}

func TestLatencySymmetryAndTriangle(t *testing.T) {
	c := mustNew(t, testConfig(t, orbit.ModelKepler))
	st, err := c.Snapshot(42)
	if err != nil {
		t.Fatal(err)
	}
	accra, _ := c.GSTNodeByName("accra")
	abuja, _ := c.GSTNodeByName("abuja")
	jbg, _ := c.GSTNodeByName("johannesburg")

	ab, err := st.Latency(accra, abuja)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := st.Latency(abuja, accra)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ab-ba) > 1e-12 {
		t.Errorf("latency asymmetric: %v vs %v", ab, ba)
	}
	aj, _ := st.Latency(accra, jbg)
	bj, _ := st.Latency(abuja, jbg)
	if aj > ab+bj+1e-12 {
		t.Errorf("triangle inequality violated: %v > %v + %v", aj, ab, bj)
	}
	// Accra-Abuja ground distance is ~900 km: one-way latency through
	// one or two satellite hops should be a handful of milliseconds.
	if ab < 0.003 || ab > 0.030 {
		t.Errorf("accra-abuja latency = %v s", ab)
	}
	rtt, err := st.RTT(accra, abuja)
	if err != nil || math.Abs(rtt-2*ab) > 1e-12 {
		t.Errorf("rtt = %v, want %v", rtt, 2*ab)
	}
}

func TestPathIsConnectedThroughLinks(t *testing.T) {
	c := mustNew(t, testConfig(t, orbit.ModelKepler))
	st, err := c.Snapshot(100)
	if err != nil {
		t.Fatal(err)
	}
	accra, _ := c.GSTNodeByName("accra")
	jbg, _ := c.GSTNodeByName("johannesburg")
	path, err := st.Path(accra, jbg)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) < 3 {
		t.Fatalf("path = %v, want at least gst-sat-...-gst", path)
	}
	if path[0] != accra || path[len(path)-1] != jbg {
		t.Errorf("path endpoints = %v", path)
	}
	// Every intermediate node is a satellite.
	for _, id := range path[1 : len(path)-1] {
		node, err := c.Node(id)
		if err != nil {
			t.Fatal(err)
		}
		if node.Kind != KindSatellite {
			t.Errorf("intermediate node %d is %v", id, node.Kind)
		}
	}
	// Path latency equals reported latency. Realized links carry
	// delays quantized to the netem emulation granularity, so the sum
	// compares per-segment quantized delays.
	lat, _ := st.Latency(accra, jbg)
	sum := 0.0
	for i := 0; i+1 < len(path); i++ {
		seg := st.Positions[path[i]].Distance(st.Positions[path[i+1]])
		sum += netem.QuantizeLatency(geom.PropagationDelay(seg))
	}
	if math.Abs(sum-lat) > 1e-9 {
		t.Errorf("path latency %v != reported %v", sum, lat)
	}
}

func TestUplinks(t *testing.T) {
	c := mustNew(t, testConfig(t, orbit.ModelKepler))
	st, err := c.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	ups, err := st.Uplinks(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) == 0 {
		t.Fatal("accra sees no satellites in a 528-sat shell")
	}
	for i := 1; i < len(ups); i++ {
		if ups[i].DistanceKm < ups[i-1].DistanceKm {
			t.Error("uplinks not sorted by distance")
		}
	}
	if _, err := st.Uplinks(9, 0); err == nil {
		t.Error("accepted bad gst index")
	}
	if _, err := st.Uplinks(0, 9); err == nil {
		t.Error("accepted bad shell index")
	}
}

func TestSnapshotDeterminism(t *testing.T) {
	c := mustNew(t, testConfig(t, orbit.ModelKepler))
	a, err := c.Snapshot(123)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Snapshot(123)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Positions {
		if a.Positions[i] != b.Positions[i] {
			t.Fatalf("position %d differs between identical snapshots", i)
		}
	}
	if a.LinkCount() != b.LinkCount() {
		t.Fatalf("link count differs: %d vs %d", a.LinkCount(), b.LinkCount())
	}
}

func TestTopologyChangesOverTime(t *testing.T) {
	c := mustNew(t, testConfig(t, orbit.ModelKepler))
	st0, err := c.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	st1, err := c.Snapshot(300)
	if err != nil {
		t.Fatal(err)
	}
	accra, _ := c.GSTNodeByName("accra")
	// Uplink candidates must change as satellites move (the ever-
	// changing topology of §1).
	u0, _ := st0.Uplinks(0, 0)
	u1, _ := st1.Uplinks(0, 0)
	if len(u0) > 0 && len(u1) > 0 && u0[0].Sat == u1[0].Sat &&
		math.Abs(u0[0].DistanceKm-u1[0].DistanceKm) < 1 {
		t.Error("closest uplink unchanged after 5 minutes")
	}
	// Latency to a fixed satellite changes.
	l0, _ := st0.Latency(accra, 0)
	l1, _ := st1.Latency(accra, 0)
	if math.Abs(l0-l1) < 1e-6 {
		t.Errorf("latency static over time: %v vs %v", l0, l1)
	}
}

func TestBoundingBoxSuspension(t *testing.T) {
	cfg := testConfig(t, orbit.ModelKepler)
	cfg.BoundingBox = bbox.Box{LatMinDeg: -5, LonMinDeg: -20, LatMaxDeg: 25, LonMaxDeg: 25}
	c := mustNew(t, cfg)
	st, err := c.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	active := st.ActiveCount()
	// The box is ~3% of Earth: far fewer active sats than total, but
	// ground stations (4) are always active.
	if active >= c.NodeCount()/2 {
		t.Errorf("active = %d of %d, want a small fraction", active, c.NodeCount())
	}
	if active < 4 {
		t.Errorf("active = %d, want at least the ground stations", active)
	}
	for gi := range cfg.GroundStations {
		id, _ := c.GSTNode(gi)
		if !st.Active[id] {
			t.Errorf("ground station %d suspended", gi)
		}
	}
	// Path calculation is not affected by the bounding box: nodes
	// outside remain reachable (§3.3).
	accra, _ := c.GSTNodeByName("accra")
	jbg, _ := c.GSTNodeByName("johannesburg")
	lat, err := st.Latency(accra, jbg)
	if err != nil || math.IsInf(lat, 1) {
		t.Errorf("path across suspended region failed: %v, %v", lat, err)
	}
}

func TestBestMeetingPoint(t *testing.T) {
	cfg := testConfig(t, orbit.ModelKepler)
	cfg.BoundingBox = bbox.Box{LatMinDeg: -10, LonMinDeg: -25, LatMaxDeg: 30, LonMaxDeg: 30}
	c := mustNew(t, cfg)
	st, err := c.Snapshot(60)
	if err != nil {
		t.Fatal(err)
	}
	accra, _ := c.GSTNodeByName("accra")
	abuja, _ := c.GSTNodeByName("abuja")
	yaounde, _ := c.GSTNodeByName("yaounde")
	clients := []int{accra, abuja, yaounde}

	sat, worst, err := st.BestMeetingPoint(clients)
	if err != nil {
		t.Fatal(err)
	}
	node, _ := c.Node(sat)
	if node.Kind != KindSatellite {
		t.Fatalf("meeting point is %v", node.Kind)
	}
	if !st.Active[sat] {
		t.Error("meeting point is suspended")
	}
	// The chosen satellite's worst latency is minimal: compare against
	// all other active satellites.
	for id, n := range c.Nodes() {
		if n.Kind != KindSatellite || !st.Active[id] {
			continue
		}
		w := 0.0
		for _, cl := range clients {
			d, err := st.Latency(cl, id)
			if err != nil {
				t.Fatal(err)
			}
			if d > w {
				w = d
			}
		}
		if w < worst-1e-12 {
			t.Fatalf("sat %d has worst latency %v < chosen %v", id, w, worst)
		}
	}
	// Clients in West Africa: worst one-way latency via one satellite
	// should be below ~15 ms (16 ms RTT / 2 plus slack).
	if worst > 0.020 {
		t.Errorf("meeting point worst latency = %v s", worst)
	}
	if _, _, err := st.BestMeetingPoint(nil); err == nil {
		t.Error("accepted empty client list")
	}
}

func TestIridiumConstellationSeamVisible(t *testing.T) {
	cfg := &config.Config{
		Shells: []config.Shell{{ShellConfig: orbit.Iridium(orbit.ModelKepler)}},
		GroundStations: []config.GroundStation{
			{Name: "hawaii", Location: geom.LatLon{LatDeg: 21.3, LonDeg: -157.8}},
		},
	}
	if err := config.Finalize(cfg); err != nil {
		t.Fatal(err)
	}
	c := mustNew(t, cfg)
	st, err := c.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	// No ISL between plane 0 (sats 0-10) and plane 5 (sats 55-65).
	for l := range st.Links() {
		if l.Kind != 1 { // KindISL
			continue
		}
		pa, pb := l.A/11, l.B/11
		if pa > pb {
			pa, pb = pb, pa
		}
		if pa == 0 && pb == 5 {
			t.Errorf("cross-seam ISL %d-%d", l.A, l.B)
		}
	}
}

func TestConcurrentLatencyQueries(t *testing.T) {
	c := mustNew(t, testConfig(t, orbit.ModelKepler))
	st, err := c.Snapshot(7)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(seed int) {
			for i := 0; i < 50; i++ {
				a := (seed*53 + i*17) % c.NodeCount()
				b := (seed*31 + i*41) % c.NodeCount()
				if _, err := st.Latency(a, b); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func BenchmarkSnapshotSmallShell(b *testing.B) {
	c := mustNew(b, testConfig(b, orbit.ModelKepler))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Snapshot(float64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotStarlinkShell1SGP4(b *testing.B) {
	cfg := &config.Config{
		Shells: []config.Shell{{ShellConfig: orbit.StarlinkPhase1(orbit.ModelSGP4)[0]}},
		GroundStations: []config.GroundStation{
			{Name: "accra", Location: geom.LatLon{LatDeg: 5.6037, LonDeg: -0.187}},
		},
	}
	if err := config.Finalize(cfg); err != nil {
		b.Fatal(err)
	}
	c := mustNew(b, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Snapshot(float64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestGSTConnectionTypeOne(t *testing.T) {
	all := testConfig(t, orbit.ModelKepler)
	one := testConfig(t, orbit.ModelKepler)
	for i := range one.Shells {
		one.Shells[i].Network.GSTConnectionType = "one"
	}
	stAll, err := mustNew(t, all).Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	stOne, err := mustNew(t, one).Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	countGSL := func(st *State) int {
		n := 0
		for l := range st.Links() {
			if l.Kind == topo.KindGSL {
				n++
			}
		}
		return n
	}
	nAll, nOne := countGSL(stAll), countGSL(stOne)
	// "one": exactly one GSL per ground station with coverage.
	if nOne > len(one.GroundStations) {
		t.Errorf("one-mode GSLs = %d for %d stations", nOne, len(one.GroundStations))
	}
	if nAll <= nOne {
		t.Errorf("all-mode GSLs = %d not greater than one-mode %d", nAll, nOne)
	}
	// Uplink *candidates* remain fully visible in both modes (the
	// tracking-service API is unaffected).
	uAll, _ := stAll.Uplinks(0, 0)
	uOne, _ := stOne.Uplinks(0, 0)
	if len(uAll) != len(uOne) {
		t.Errorf("uplink candidates differ: %d vs %d", len(uAll), len(uOne))
	}
}
