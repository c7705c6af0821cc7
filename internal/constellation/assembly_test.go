package constellation

import (
	"slices"
	"testing"

	"celestial/internal/config"
	"celestial/internal/geom"
	"celestial/internal/orbit"
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

// TestLinkAssemblyIndependentOfWorkers checks the slot-addressed parallel
// link assembly against the single-worker reference: the link list and the
// diff fingerprint are identical for every worker count, both when the link
// list outgrows its arena carve (a State's first generation always does:
// nothing is carved yet) and when it fits (the second).
func TestLinkAssemblyIndependentOfWorkers(t *testing.T) {
	c := mustNew(t, assemblyConfig(t))
	ref := new(State)
	for _, workers := range []int{1, 2, 3, 8} {
		st := new(State)
		for gen, offset := range []float64{40, 47.5} {
			if _, err := c.snapshotInto(ref, offset, 1); err != nil {
				t.Fatal(err)
			}
			if _, err := c.snapshotInto(st, offset, workers); err != nil {
				t.Fatal(err)
			}
			if overflow := len(st.Links) > st.linkCap+st.linkCap/16+64; overflow != (gen == 0) {
				t.Fatalf("workers=%d gen %d: arena overflow = %v", workers, gen, overflow)
			}
			if !slices.Equal(ref.Links, st.Links) {
				t.Fatalf("workers=%d gen %d: link lists differ", workers, gen)
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
	sparse := ref.feasible[len(c.edges[0]):]
	if !slices.Contains(sparse, true) || !slices.Contains(sparse, false) ||
		!slices.Contains(ref.feasible[:len(c.edges[0])], true) {
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
		links := make(map[pair]bool, len(st.Links))
		for _, l := range st.Links {
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
