package constellation

import "testing"

// TestArenaRetentionBounded rewinds an arena through 1,000 generations
// whose carves creep upwards — one large carve, like a per-state list, and
// many small ones, like the uplink slices — and checks that it never
// retains more than twice the largest generation it carved: a chunk left
// behind at every new high-water mark would add them all up.
func TestArenaRetentionBounded(t *testing.T) {
	var a arena[int32]
	largest := 0
	for gen := range 1000 {
		a.rewind()
		carved := 0
		carve := func(n int) {
			if s := a.carve(0, n); cap(s) != n {
				t.Fatalf("generation %d: carve of %d has capacity %d", gen, n, cap(s))
			}
			carved += n
		}
		carve(4000 + 3*gen)
		for i := range 200 {
			carve(4 + (gen+i)%7 + gen/100)
		}
		largest = max(largest, carved)
		retained := 0
		for _, c := range a.chunks {
			retained += len(c)
		}
		if retained > 2*largest {
			t.Fatalf("generation %d: %d elements in %d chunks retained, largest generation carved %d",
				gen, retained, len(a.chunks), largest)
		}
	}
}
