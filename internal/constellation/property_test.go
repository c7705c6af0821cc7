package constellation

import (
	"math"
	"testing"
	"testing/quick"

	"celestial/internal/bbox"
	"celestial/internal/geom"
	"celestial/internal/netem"
	"celestial/internal/orbit"
	"celestial/internal/topo"
)

// TestSnapshotInvariants checks structural invariants of State for random
// snapshot times: every realized ISL is feasible and within the physical
// maximum length, link latencies equal distance at the speed of light,
// bounding-box activity matches geometry, and GSL endpoints respect the
// minimum elevation.
func TestSnapshotInvariants(t *testing.T) {
	cfg := testConfig(t, orbit.ModelKepler)
	cfg.BoundingBox = bbox.Box{LatMinDeg: -30, LonMinDeg: -60, LatMaxDeg: 45, LonMaxDeg: 60}
	c := mustNew(t, cfg)
	maxISL := topo.MaxISLLengthKm(550, cfg.Shells[0].Network.AtmosphereCutoffKm)

	err := quick.Check(func(tRaw uint16) bool {
		ts := float64(tRaw % 7200) // up to two hours
		st, err := c.Snapshot(ts)
		if err != nil {
			t.Logf("snapshot(%v): %v", ts, err)
			return false
		}
		for _, l := range st.Links {
			d := st.Positions[l.A].Distance(st.Positions[l.B])
			if l.LatencyS != netem.QuantizeLatency(geom.PropagationDelay(d)) {
				t.Logf("t=%v: latency != quantized distance/c", ts)
				return false
			}
			switch l.Kind {
			case topo.KindISL:
				if d > maxISL {
					t.Logf("t=%v: ISL length %v exceeds max %v", ts, d, maxISL)
					return false
				}
				if !topo.Feasible(st.Positions[l.A], st.Positions[l.B], cfg.Shells[0].Network.AtmosphereCutoffKm) {
					t.Logf("t=%v: infeasible ISL realized", ts)
					return false
				}
			case topo.KindGSL:
				// One endpoint is a ground station, the satellite
				// must be above the minimum elevation.
				gst, sat := l.A, l.B
				if c.nodes[gst].Kind != KindGroundStation {
					gst, sat = sat, gst
				}
				el := geom.ElevationDeg(st.Positions[gst], st.Positions[sat])
				if el < cfg.Shells[0].Network.MinElevationDeg-1e-9 {
					t.Logf("t=%v: GSL below minimum elevation (%v)", ts, el)
					return false
				}
			}
		}
		// Bounding box activity matches geometry; ground stations are
		// always active.
		for id, node := range c.Nodes() {
			want := true
			if node.Kind == KindSatellite {
				want = cfg.BoundingBox.ContainsECEF(st.Positions[id])
			}
			if st.Active[id] != want {
				t.Logf("t=%v: node %d activity mismatch", ts, id)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Error(err)
	}
}

// TestLatencyMetricProperties checks that the latency function behaves as
// a metric over random node pairs: non-negative, symmetric, and satisfying
// the triangle inequality through a third node.
func TestLatencyMetricProperties(t *testing.T) {
	c := mustNew(t, testConfig(t, orbit.ModelKepler))
	st, err := c.Snapshot(300)
	if err != nil {
		t.Fatal(err)
	}
	n := c.NodeCount()
	err = quick.Check(func(aRaw, bRaw, cRaw uint16) bool {
		a, b, cc := int(aRaw)%n, int(bRaw)%n, int(cRaw)%n
		ab, err1 := st.Latency(a, b)
		ba, err2 := st.Latency(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		if a == b {
			return ab == 0
		}
		if ab < 0 || math.Abs(ab-ba) > 1e-12 {
			return false
		}
		// Triangle inequality (only meaningful when both leg paths
		// avoid ground-station transit constraints; route a->c->b is
		// a valid path only if c is a satellite).
		node, err := c.Node(cc)
		if err != nil {
			return false
		}
		if node.Kind != KindSatellite {
			return true
		}
		ac, err1 := st.Latency(a, cc)
		cb, err2 := st.Latency(cc, b)
		if err1 != nil || err2 != nil {
			return false
		}
		if math.IsInf(ac, 1) || math.IsInf(cb, 1) {
			return true
		}
		return ab <= ac+cb+1e-12
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

// TestPathsUseOnlyRealizedLinks verifies that every reconstructed path
// walks realized links of the snapshot.
func TestPathsUseOnlyRealizedLinks(t *testing.T) {
	c := mustNew(t, testConfig(t, orbit.ModelKepler))
	st, err := c.Snapshot(120)
	if err != nil {
		t.Fatal(err)
	}
	linkSet := map[[2]int]bool{}
	for _, l := range st.Links {
		a, b := l.A, l.B
		if a > b {
			a, b = b, a
		}
		linkSet[[2]int{a, b}] = true
	}
	n := c.NodeCount()
	err = quick.Check(func(aRaw, bRaw uint16) bool {
		a, b := int(aRaw)%n, int(bRaw)%n
		path, err := st.Path(a, b)
		if err != nil {
			return false
		}
		for i := 0; i+1 < len(path); i++ {
			x, y := path[i], path[i+1]
			if x > y {
				x, y = y, x
			}
			if !linkSet[[2]int{x, y}] {
				t.Logf("path %d->%d uses unrealized link (%d, %d)", a, b, x, y)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}
