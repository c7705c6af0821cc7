package constellation

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"celestial/internal/config"
	"celestial/internal/geom"
	"celestial/internal/graph"
	"celestial/internal/netem"
	"celestial/internal/orbit"
	"celestial/internal/rng"
	"celestial/internal/topo"
)

// assemblyConfig has every case link assembly and the derived bandwidth
// lookup distinguish: a dense shell whose ISL and GSL capacities differ, and
// a sparse single-dish shell with capacities of its own whose neighbours are
// so far apart that its cross-plane ISLs dip below the atmosphere away from
// the poles.
func assemblyConfig(t testing.TB) *config.Config {
	t.Helper()
	cfg := &config.Config{
		Shells: []config.Shell{
			{
				ShellConfig: orbit.ShellConfig{
					Name: "dense", Planes: 24, SatsPerPlane: 22, AltitudeKm: 550,
					InclinationDeg: 53, ArcDeg: 360, PhasingFactor: 13, Model: orbit.ModelKepler,
				},
				Network: config.NetworkParams{BandwidthKbps: 8_000_000, GSTBandwidthKbps: 2_000_000},
			},
			{
				ShellConfig: orbit.ShellConfig{
					Name: "sparse", Planes: 6, SatsPerPlane: 14, AltitudeKm: 800,
					InclinationDeg: 80, ArcDeg: 360, PhasingFactor: 1, Model: orbit.ModelKepler,
				},
				Network: config.NetworkParams{
					BandwidthKbps: 1_000_000, GSTBandwidthKbps: 500_000, GSTConnectionType: "one",
				},
			},
		},
		GroundStations: []config.GroundStation{
			{Name: "accra", Location: geom.LatLon{LatDeg: 5.6037, LonDeg: -0.1870}},
			{Name: "berlin", Location: geom.LatLon{LatDeg: 52.5200, LonDeg: 13.4050}},
			{Name: "hawaii", Location: geom.LatLon{LatDeg: 21.3069, LonDeg: -157.8583}},
			{Name: "johannesburg", Location: geom.LatLon{LatDeg: -26.2041, LonDeg: 28.0473}},
			{Name: "svalbard", Location: geom.LatLon{LatDeg: 78.2232, LonDeg: 15.6267}},
		},
	}
	cfg.Network.MinElevationDeg = 25
	if err := config.Finalize(cfg); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestLinkAssemblyIndependentOfWorkers checks the parallel ISL and GSL
// assembly against the single-worker reference: the link fingerprint and
// the link view derived from it are identical for every worker count, on a
// cold visibility index (the first generation) and on one updated from the
// generation before (the second).
func TestLinkAssemblyIndependentOfWorkers(t *testing.T) {
	c := mustNew(t, assemblyConfig(t))
	ref, refVis := new(State), make([]topo.VisIndex, len(c.shells))
	for _, workers := range []int{1, 2, 3, 8} {
		st, vis := new(State), make([]topo.VisIndex, len(c.shells))
		for gen, offset := range []float64{40, 47.5} {
			if _, err := c.snapshotInto(ref, offset, 1, refVis); err != nil {
				t.Fatal(err)
			}
			if _, err := c.snapshotInto(st, offset, workers, vis); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(linkList(ref), linkList(st)) || ref.LinkCount() != st.LinkCount() {
				t.Fatalf("workers=%d gen %d: link views differ", workers, gen)
			}
			if !slices.Equal(ref.islQ, st.islQ) || !slices.Equal(ref.gslSat, st.gslSat) ||
				!slices.Equal(ref.gslQ, st.gslQ) || !slices.Equal(ref.gslOff, st.gslOff) {
				t.Fatalf("workers=%d gen %d: link fingerprints differ", workers, gen)
			}
		}
	}

	// The reference itself covers the cases: both shells have feasible
	// ISLs, the sparse one infeasible ones too, and a single-dish shell
	// realizes at most one uplink per station.
	feasible := func(q int32) bool { return q >= 0 }
	sparse := ref.islQ[len(c.edges[0]):]
	if !slices.ContainsFunc(sparse, feasible) || !slices.Contains(sparse, -1) ||
		!slices.ContainsFunc(ref.islQ[:len(c.edges[0])], feasible) {
		t.Fatal("config does not mix feasible and infeasible ISLs")
	}
	multi := false
	for gi := range c.gst {
		for si := range c.shells {
			n := int(ref.gslOff[gi*2+si+1] - ref.gslOff[gi*2+si])
			if si == 1 && n > 1 {
				t.Fatalf("single-dish shell realized %d uplinks for station %d", n, gi)
			}
			if si == 1 && len(ref.uplinks[gi][si]) > 1 {
				multi = true
			}
		}
	}
	if !multi {
		t.Fatal("no station sees more than one satellite of the single-dish shell")
	}
}

// quantizedLink builds a link whose latency is rounded to the netem delay
// quantum, and returns that quantum count with it: the link assembly that
// stored a link list per state, kept as the oracle of the link view.
func quantizedLink(kind topo.LinkKind, a, b int, distKm float64) (topo.Link, int32) {
	l := topo.Link{Kind: kind, A: a, B: b, LatencyS: geom.PropagationDelay(distKm)}
	q := netem.LatencyQuanta(l.LatencyS)
	l.LatencyS = float64(q) * netem.DelayQuantumSeconds
	return l, int32(q)
}

// assembledLinks is the oracle of State.Links: the list a sequential
// assembly builds from st's positions and uplinks — every feasible ISL in
// plan order, shell by shell, then each station's realized uplinks,
// stations ascending, shell by shell, closest first — with each link's
// delay quanta.
func assembledLinks(st *State) ([]topo.Link, []int32) {
	c := st.c
	var links []topo.Link
	var qs []int32
	add := func(l topo.Link, q int32) {
		links, qs = append(links, l), append(qs, q)
	}
	for si, edges := range c.edges {
		cutoff := c.cfg.Shells[si].Network.AtmosphereCutoffKm
		for _, e := range edges {
			if d, ok := topo.Feasible(st.Positions[e.a], st.Positions[e.b], cutoff); ok {
				add(quantizedLink(topo.KindISL, e.a, e.b, d))
			}
		}
	}
	gstBase := c.NodeCount() - len(c.gst)
	for gi := range c.gst {
		for si := range c.shells {
			for _, up := range st.realizedUplinks(gi, si) {
				add(quantizedLink(topo.KindGSL, gstBase+gi, c.base[si]+up.Sat, up.DistanceKm))
			}
		}
	}
	return links, qs
}

// randomAssemblyConfig draws one to three Kepler shells of random size,
// altitude, inclination, arc and phasing, each all-uplink or single-dish,
// and one to eight stations anywhere, behind a random elevation mask.
func randomAssemblyConfig(t *testing.T, r *rng.Stream) *config.Config {
	t.Helper()
	cfg := &config.Config{}
	for si := range 1 + r.Intn(3) {
		planes := 2 + r.Intn(14)
		sh := config.Shell{ShellConfig: orbit.ShellConfig{
			Name: fmt.Sprintf("s%d", si), Planes: planes, SatsPerPlane: 2 + r.Intn(20),
			AltitudeKm: 300 + 1500*r.Float64(), InclinationDeg: 180 * r.Float64(),
			ArcDeg: []float64{180, 360}[r.Intn(2)], PhasingFactor: r.Intn(planes), Model: orbit.ModelKepler,
		}}
		if r.Intn(2) == 0 {
			sh.Network.GSTConnectionType = "one"
		}
		cfg.Shells = append(cfg.Shells, sh)
	}
	for gi := range 1 + r.Intn(8) {
		cfg.GroundStations = append(cfg.GroundStations, config.GroundStation{
			Name:     fmt.Sprintf("g%d", gi),
			Location: geom.LatLon{LatDeg: 180*r.Float64() - 90, LonDeg: 360*r.Float64() - 180},
		})
	}
	cfg.Network.MinElevationDeg = 40 * r.Float64()
	if err := config.Finalize(cfg); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestLinkViewMatchesAssembly checks the link view against the link
// assembly it replaced (quantizedLink over the realized ISLs and uplinks):
// on random shells and stations at GOMAXPROCS 1, 2, 3 and 8, the cold tick,
// the steady ticks of a pool (a patched graph, a visibility index updated
// from the tick before) and unpooled Full snapshots yield the oracle's
// links, delay quanta and count, and their graphs hold exactly the
// oracle's edges.
func TestLinkViewMatchesAssembly(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	r := rng.New(56)
	steady := 0
	for round := range 8 {
		c := mustNew(t, randomAssemblyConfig(t, r))
		for _, workers := range []int{1, 2, 3, 8} {
			runtime.GOMAXPROCS(workers)
			tp := &tickingPool{pool: c.NewSnapshotPool()}
			offset := 600 * r.Float64()
			for tick := range 6 {
				offset += 0.5 + 20*r.Float64()
				pooled := tp.tick(t, offset)
				full, err := c.snapshotFresh(offset, workers)
				if err != nil {
					t.Fatal(err)
				}
				if pooled.Diff().Full != (tick == 0) || !full.Diff().Full {
					t.Fatalf("round %d workers=%d tick %d: Full diffs %v (pooled) and %v (unpooled)",
						round, workers, tick, pooled.Diff().Full, full.Diff().Full)
				}
				if pooled.Diff().GraphPatched {
					steady++
				}
				for _, st := range []*State{pooled, full} {
					checkLinkView(t, st, fmt.Sprintf("round %d workers=%d tick %d", round, workers, tick))
				}
			}
			tp.pool.Recycle(tp.prev)
		}
	}
	if steady == 0 {
		t.Fatal("no pooled tick patched its graph")
	}
}

// checkLinkView compares st's link view, count and graph with the oracle
// assembly of st's own positions and uplinks.
func checkLinkView(t *testing.T, st *State, where string) {
	t.Helper()
	links, qs := assembledLinks(st)
	i := 0
	for l, q := range st.Links() {
		if i >= len(links) || l != links[i] || q != qs[i] {
			t.Fatalf("%s: link %d is %+v (q %d), the oracle's %d links differ there", where, i, l, q, len(links))
		}
		i++
	}
	if i != len(links) || st.LinkCount() != len(links) {
		t.Fatalf("%s: %d links viewed, %d counted, the oracle assembles %d", where, i, st.LinkCount(), len(links))
	}
	want := make(map[graph.Edge]int)
	for _, l := range links {
		want[graph.Edge{To: min(l.A, l.B)<<20 | max(l.A, l.B), Weight: l.LatencyS}]++
	}
	var row []graph.Edge
	for v := range st.Positions {
		row = st.g.FrozenRow(v, row[:0])
		for _, e := range row {
			if v < e.To {
				want[graph.Edge{To: v<<20 | e.To, Weight: e.Weight}]--
			}
		}
	}
	for e, n := range want {
		if n != 0 {
			t.Fatalf("%s: graph holds link %d-%d (%v s) %d times less than the oracle",
				where, e.To>>20, e.To&(1<<20-1), e.Weight, n)
		}
	}
}

// TestLinkBandwidthDerivedFromConfig checks the bandwidth lookup that
// replaced the per-tick bandwidth map, on the sequential reference and on
// pooled states whose graph image was clone-and-patched across GSL
// handovers: every link answers with its shell's capacity from either end,
// and vanished, never-planned and out-of-range pairs answer ok=false.
func TestLinkBandwidthDerivedFromConfig(t *testing.T) {
	cfg := assemblyConfig(t)
	c := mustNew(t, cfg)
	tp := &tickingPool{pool: c.NewSnapshotPool()}
	n := c.NodeCount()
	gstBase := n - len(cfg.GroundStations)
	type pair struct{ a, b int }
	var prevLinks map[pair]bool
	patched, vanished := 0, 0
	for i := 0; i < 24; i++ {
		offset := 100 + 7.5*float64(i)
		st := tp.tick(t, offset)
		seq, err := c.SnapshotSequential(offset)
		if err != nil {
			t.Fatal(err)
		}
		// assertStatesIdentical runs assertLinkBandwidths on both states,
		// which checks every link's LinkBandwidth against the config.
		assertStatesIdentical(t, seq, st)
		links := make(map[pair]bool, st.LinkCount())
		for l := range st.Links() {
			links[pair{l.A, l.B}] = true
		}
		for p := range prevLinks {
			if links[p] {
				continue
			}
			vanished++
			for _, s := range []*State{seq, st} {
				if kbps, ok := s.LinkBandwidth(p.a, p.b); ok {
					t.Fatalf("tick %d: vanished link %v still answers %v kbps", i, p, kbps)
				}
			}
		}
		prevLinks = links
		if st.Diff().GraphPatched && st.Diff().PatchedEdges > 0 {
			patched++
		}
		for _, p := range []pair{
			{gstBase, gstBase + 1}, // two stations
			{0, 0},                 // a node and itself
			{0, c.base[1]},         // satellites of different shells
			{-1, 0}, {0, -1}, {n, 0}, {0, n}, {1 << 40, 3}, {3, 1<<32 + 4},
		} {
			for _, s := range []*State{seq, st} {
				if kbps, ok := s.LinkBandwidth(p.a, p.b); ok {
					t.Fatalf("tick %d: LinkBandwidth(%d, %d) = %v, true for a pair without a link",
						i, p.a, p.b, kbps)
				}
			}
		}
	}
	if patched < 20 {
		t.Fatalf("only %d of 24 ticks patched the graph image", patched)
	}
	if vanished == 0 {
		t.Fatal("no link vanished in 24 ticks: no handover exercised")
	}
}
