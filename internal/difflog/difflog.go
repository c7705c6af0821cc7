// Package difflog is the one generation log behind every retained window
// of the coordinator's update stream: the fan-out tier's log, which keeps
// each generation's record beside its per-shard marks, the follower
// replicas' replay windows and the information service's serialized
// frames. Each of them keeps the most recent generations of one stream of
// consecutive generation numbers and answers a subscriber's cursor the
// same way; that answer — the cursor table on Since — and the bookkeeping
// behind it live here once.
//
// A Log is a plain data structure. It takes no lock of its own: the owner
// guards it with the lock that already guards the state the log belongs
// to, so adopting it adds no lock and changes no lock order.
package difflog

// Log retains the entries of the newest generations of a stream, at most
// Cap of them: the window (Head-Len, Head]. Generations are consecutive;
// an Append that does not continue the sequence, and every Reset, starts
// a new window, and entries from before it are never served again.
type Log[T any] struct {
	// slots is a ring indexed by generation modulo capacity. A slot
	// outside the window keeps its last value until Append hands it out
	// again (that is what lets entries reuse their backing arrays); Reset
	// zeroes them all.
	slots     []T
	head      uint64
	n         int
	evictions uint64
	wake      chan struct{}
}

// New returns an empty log at generation 0 that retains up to capacity
// entries (at least one).
func New[T any](capacity int) *Log[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Log[T]{slots: make([]T, capacity), wake: make(chan struct{})}
}

// Head is the newest generation: the last one appended, or the point of
// the last Reset. Len and Cap are the window's fill and bound, so the
// oldest generation still retained, Oldest = Head−Len+1, is Head+1 when
// nothing is retained and Oldest−1 is always the oldest cursor Since
// accepts. Evictions counts entries overwritten by an Append into a full
// window.
func (l *Log[T]) Head() uint64      { return l.head }
func (l *Log[T]) Len() int          { return l.n }
func (l *Log[T]) Cap() int          { return len(l.slots) }
func (l *Log[T]) Evictions() uint64 { return l.evictions }

// Wait returns a channel that the next Append or Reset closes (or, after
// AppendDeferred, its caller). A waiter takes the channel, checks Head
// again, then blocks: the owner mutates the log under its lock, so a
// mutation cannot fall between the two reads unseen. The channel also
// identifies the log's content — it is the same channel exactly as long as
// nothing was appended or reset.
func (l *Log[T]) Wait() <-chan struct{} { return l.wake }

// renew replaces the Wait channel and returns the one it supersedes, still
// open.
func (l *Log[T]) renew() chan struct{} {
	old := l.wake
	l.wake = make(chan struct{})
	return old
}

// Append makes gen the head and returns its slot, still holding whatever
// an evicted generation left there so the caller can refill it in place;
// the caller must fill it before it releases its lock. If gen is not
// Head+1 the window restarts at gen, as after Reset(gen-1): a subscriber
// then resyncs instead of replaying across a hole.
func (l *Log[T]) Append(gen uint64) *T {
	slot, woken := l.AppendDeferred(gen)
	close(woken)
	return slot
}

// AppendDeferred is Append for an owner that wakes the waiters itself: the
// Wait channel is replaced as Append replaces it, and the superseded one
// is returned open, for the caller to close exactly once — after it has
// released its lock and finished the rest of its work on the generation,
// so the waiters it wakes neither queue on that lock nor compete with
// that work.
func (l *Log[T]) AppendDeferred(gen uint64) (slot *T, woken chan struct{}) {
	if gen != l.head+1 {
		l.restart(gen - 1)
	}
	if l.n == len(l.slots) {
		l.evictions++
	} else {
		l.n++
	}
	l.head = gen
	return &l.slots[gen%uint64(len(l.slots))], l.renew()
}

// Reset empties the window and moves the head to a resync point: the
// owner's state was replaced wholesale at generation head (a snapshot, an
// upstream resync frame), so nothing retained describes how it got there.
// A subscriber at head continues from here; every other cursor, older or
// newer, is told to resync — including cursors that name a generation of
// the same number from before the Reset.
func (l *Log[T]) Reset(head uint64) {
	l.restart(head)
	close(l.renew())
}

func (l *Log[T]) restart(head uint64) {
	clear(l.slots)
	l.head, l.n = head, 0
}

// At returns the entry of one retained generation.
func (l *Log[T]) At(gen uint64) (*T, bool) {
	if gen > l.head || gen+uint64(l.n) <= l.head {
		return nil, false
	}
	return &l.slots[gen%uint64(len(l.slots))], true
}

// replays is the cursor table, shared by Since and Tail:
//
//	cursor > Head       a stale or corrupted cursor from the future: resync
//	cursor == Head      caught up: nothing to replay (also on an empty log)
//	cursor >= Oldest-1  inside the window: replay (cursor, Head]
//	cursor < Oldest-1   evicted, or from before a Reset: resync
func (l *Log[T]) replays(cursor uint64) bool {
	return cursor <= l.head && cursor+uint64(l.n) >= l.head
}

// after copies the entries of (cursor, Head], oldest first.
func (l *Log[T]) after(cursor uint64) []T {
	if cursor == l.head {
		return nil
	}
	out := make([]T, 0, l.head-cursor)
	for g := cursor + 1; g <= l.head; g++ {
		out = append(out, l.slots[g%uint64(len(l.slots))])
	}
	return out
}

// Since returns the entries a subscriber at cursor has not seen, oldest
// first. ok is false when the cursor cannot be replayed and the subscriber
// must resynchronize from full state. The entries are shallow copies: an
// owner whose slots are refilled in place deep-copies them before they
// leave its lock.
func (l *Log[T]) Since(cursor uint64) (entries []T, ok bool) {
	if !l.replays(cursor) {
		return nil, false
	}
	return l.after(cursor), true
}

// Tail is Since for a mirror of this log — a follower that keeps its own
// copy of the window and wants whatever it takes to make that copy
// current. A cursor this log cannot replay is moved to Oldest-1 instead
// of refused; from is the cursor the entries follow, and the mirror drops
// what it holds when from is not the cursor it asked with. A mirror
// trusts a cursor it read earlier, so the mirrored log must only append
// consecutive generations and never Reset: a restarted window could hold
// a generation number the mirror has seen with different content.
func (l *Log[T]) Tail(cursor uint64) (entries []T, from uint64) {
	if !l.replays(cursor) {
		cursor = l.head - uint64(l.n)
	}
	return l.after(cursor), cursor
}
