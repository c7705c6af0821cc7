package constellation

import (
	"testing"

	"celestial/internal/orbit"
)

// TestPooledPatchPathMatchesRebuildPath is the tentpole differential of
// the incremental pipeline: a pool running the steady-state fast paths —
// clone-and-patch graph materialization and incremental visibility-index
// updates — produces, tick for tick, states identical to SnapshotSequential
// at the same offset, across structural ticks with handovers, ISL churn and
// delay changes. A fresh state is the full-rebuild reference: its cold
// index falls back to a full build and its graph is rebuilt from the link
// list.
func TestPooledPatchPathMatchesRebuildPath(t *testing.T) {
	c := mustNew(t, testConfig(t, orbit.ModelKepler))
	tp := &tickingPool{pool: c.NewSnapshotPool()}

	accra, _ := c.GSTNodeByName("accra")
	jbg, _ := c.GSTNodeByName("johannesburg")
	patchedTicks, patchedEdges := 0, 0
	for i := 0; i < 14; i++ {
		offset := 50 + float64(i)*7.5 // structural ticks: links churn
		fs := tp.tick(t, offset)
		rs, err := c.SnapshotSequential(offset)
		if err != nil {
			t.Fatal(err)
		}
		assertStatesIdentical(t, rs, fs)
		lf, err1 := fs.Latency(accra, jbg)
		lr, err2 := rs.Latency(accra, jbg)
		if err1 != nil || err2 != nil || lf != lr {
			t.Fatalf("tick %d: latency %v (%v) vs %v (%v)", i, lf, err1, lr, err2)
		}
		if fs.Diff().GraphPatched {
			patchedTicks++
			patchedEdges += fs.Diff().PatchedEdges
		}
		if rs.Diff().GraphPatched {
			t.Fatalf("tick %d: fresh snapshot reported a patched graph", i)
		}
		stats := fs.Diff().Stats()
		if stats.GraphPatched != fs.Diff().GraphPatched || stats.PatchedEdges != fs.Diff().PatchedEdges {
			t.Fatalf("tick %d: DiffStats drops patch counters: %+v", i, stats)
		}
	}
	if patchedTicks == 0 {
		t.Fatal("fast pool never took the clone-and-patch graph path")
	}
	if patchedEdges == 0 {
		t.Fatal("no edges were ever patched across structural ticks")
	}
}
