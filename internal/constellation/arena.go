package constellation

// arena is a bump allocator for one element type: carve hands out slices
// from large retained chunks, and rewind recycles every chunk at once.
// Each State owns one arena per buffer type, rewound when the snapshot
// generation's buffers are recomputed — so the many small per-station,
// per-shell slices of a tick collapse into one long-lived chunk (no
// per-slice growth reallocations, no slice-header churn for the garbage
// collector to trace) and steady-state ticks carve from memory that
// already exists.
//
// A carved slice is valid until the next rewind and must not be carved
// into concurrently; the snapshot pipeline carves sequentially in reset,
// before the parallel phases run. Appending beyond a carved slice's
// capacity falls back to the heap via Go's append — safe, merely
// unamortized — and the next generation's carve adapts to the grown
// length.
type arena[T any] struct {
	chunks [][]T
	ci     int // chunk being carved from
	used   int // elements carved from chunks[ci]
	carved int // elements carved since the last rewind, capacities included
}

// arenaMinChunk is the minimum chunk length, in elements. Large enough
// that a typical tick's carves fit in one or two chunks; small enough that
// a tiny constellation does not pin megabytes.
const arenaMinChunk = 1024

// rewind invalidates every carved slice and makes the capacity available
// again. An arena whose generation spilled past its first chunk collapses
// to one chunk sized to that generation's carves, with a sixteenth more
// for growth, and leaves the others to the collector: what an arena keeps
// follows its last generation instead of adding up every high-water mark
// it ever reached.
func (a *arena[T]) rewind() {
	if len(a.chunks) > 1 {
		a.chunks = [][]T{make([]T, max(a.carved+a.carved/16, arenaMinChunk))}
	}
	a.ci, a.used, a.carved = 0, 0, 0
}

// carve returns a slice with the given length and capacity (capacity is
// raised to length if smaller) backed by arena memory. The contents are
// whatever the previous generation left there — callers that read before
// writing must clear it.
func (a *arena[T]) carve(length, capacity int) []T {
	capacity = max(capacity, length)
	for a.ci < len(a.chunks) {
		c := a.chunks[a.ci]
		if len(c)-a.used >= capacity {
			s := c[a.used : a.used+length : a.used+capacity]
			a.used += capacity
			a.carved += capacity
			return s
		}
		// Tail too small for this carve: leave it unused and move on (the
		// fragmentation is bounded by one carve per chunk).
		a.ci++
		a.used = 0
	}
	a.chunks = append(a.chunks, make([]T, max(capacity, arenaMinChunk)))
	return a.carve(length, capacity)
}
