package constellation

import (
	"fmt"
	"math"
	"testing"
	"time"

	"celestial/internal/config"
	"celestial/internal/geom"
	"celestial/internal/orbit"
)

// gen2TickAllocs bounds the allocations of one steady Gen2 tick at
// GOMAXPROCS 1: 10 % above the 972 the pipeline counted when the bound was
// set. A tick that allocates per satellite, per link or per station blows
// through it at once.
const gen2TickAllocs = 1069

// gen2Config is the full Starlink Gen2 constellation (29,988 satellites in
// nine shells) with 100 ground stations on a golden-angle spiral, the scale
// the visibility index, in-place CSR patching and the snapshot arenas exist
// for.
func gen2Config(t testing.TB) *config.Config {
	t.Helper()
	var shells []config.Shell
	for _, sc := range orbit.StarlinkGen2(orbit.ModelKepler) {
		shells = append(shells, config.Shell{ShellConfig: sc})
	}
	const n = 100
	gsts := make([]config.GroundStation, n)
	for i := range gsts {
		gsts[i] = config.GroundStation{
			Name: fmt.Sprintf("gst%03d", i),
			Location: geom.LatLon{
				LatDeg: geom.Deg(math.Asin(2*(float64(i)+0.5)/n - 1)),
				LonDeg: math.Mod(float64(i)*137.50776405, 360) - 180,
			},
		}
	}
	cfg := &config.Config{Shells: shells, GroundStations: gsts}
	cfg.Network.MinElevationDeg = 25
	if err := config.Finalize(cfg); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestGen2SteadyTick holds the steady coordinator tick at Gen2 scale — a
// pooled snapshot one second on, a shortest-path query on it and the
// recycle of the state before — to gen2TickAllocs allocations, and its
// mean wall time to the paper's §3.1 real-time bound of one update per
// second. The warm-up ticks are not counted.
func TestGen2SteadyTick(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 29,988-satellite constellation")
	}
	c := mustNew(t, gen2Config(t))
	tp := &tickingPool{pool: c.NewSnapshotPool()}
	gst := c.NodeCount() - 1
	next := 0.0
	tick := func() {
		st := tp.tick(t, next)
		next++
		if _, err := st.Latency(gst, 0); err != nil {
			t.Fatal(err)
		}
	}
	// The cold tick and one steady tick on each of the two buffers grow
	// the arenas to their working size.
	for i := 0; i < 3; i++ {
		tick()
	}
	const runs = 5
	start := time.Now()
	allocs := testing.AllocsPerRun(runs, tick)
	mean := time.Since(start) / (runs + 1)
	t.Logf("%v allocs and %v per steady tick", allocs, mean)
	if allocs > gen2TickAllocs {
		t.Errorf("a steady Gen2 tick allocates %v, bound %d", allocs, gen2TickAllocs)
	}
	if mean > time.Second {
		t.Errorf("a steady Gen2 tick takes %v, over the 1 s real-time bound", mean)
	}
	if !tp.prev.Diff().GraphPatched {
		t.Error("the last tick rebuilt its graph instead of patching it")
	}
}
