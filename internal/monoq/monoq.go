// Package monoq provides a monotone priority queue: a radix heap over
// uint64 keys for consumers that never push below the key they last popped.
// Both hot loops of the testbed are such consumers — Dijkstra and
// RepairSSSP in internal/graph (a relaxed distance is never below the
// settled one) and the event engine in internal/vnet (an event is never
// scheduled before now) — so neither pays a comparison heap's log-depth
// sift of unpredictable branches.
//
// Entries live in 64 buckets. Bucket 0 holds the entries whose key equals
// the last popped key; bucket i > 0 those whose key first differs from it,
// counting down from bit 62, at bit i-1. Keys only grow, so every entry of
// bucket i is larger than every entry of a lower bucket: the minimum sits in
// the lowest occupied bucket, which an occupancy bitmap finds with one
// trailing-zero count, and each bucket keeps its smallest key current, so
// Min is two loads. When bucket 0 runs dry, Pop makes the minimum of that
// lowest bucket the new last key and spreads the bucket's entries over the
// buckets below — each entry moves at most 63 times in its life, and in
// practice a handful.
//
// Entries with equal keys always share a bucket, buckets are FIFO lists,
// and spreading a bucket keeps its order: equal keys pop in the order they
// were pushed. For the event engine that is the whole (time, sequence)
// contract, with no sequence number stored.
package monoq

import (
	"fmt"
	"math"
	"math/bits"
)

// MaxKey is the largest key a Queue accepts. Bit 63 stays clear so that a
// key differs from the last popped one at bit 62 or below and 64 buckets —
// one machine word of occupancy bits — cover every case. Non-negative int64
// values and the IEEE 754 bits of non-negative floats, +Inf included, fit.
const MaxKey = 1<<63 - 1

// node is one queued entry. Buckets are intrusive singly linked lists over
// one shared node array, so the queue's footprint is its high-water mark of
// pending entries rather than 64 separately grown slices, and spreading a
// bucket relinks entries without copying them. Links are indices into that
// array. Index 0 means "none"; indices 1 to 64 are the buckets' list
// headers — a header's next is its bucket's first entry — so that appending
// to an empty bucket and to a non-empty one are the same two stores.
type node[V any] struct {
	key  uint64
	next int32
	val  V
}

const (
	buckets = 64
	none    = 0
	header  = 1 // index of bucket 0's list header
	noKey   = 1<<64 - 1
)

// Queue is a monotone min-queue of (key, value) entries. The zero value is
// an empty queue ready to use; a Queue is not safe for concurrent use.
type Queue[V any] struct {
	last uint64 // the last popped key; no later push may be below it
	occ  uint64 // bit b set: bucket b is non-empty
	n    int
	free int32 // head of the list of released nodes
	// tail is each bucket's last node (its header while empty) and min its
	// smallest key (noKey while empty), kept current on every append so
	// that neither Min nor Pop ever searches a bucket.
	tail  [buckets]int32
	min   [buckets]uint64
	nodes []node[V]
}

// Len returns the number of queued entries.
func (q *Queue[V]) Len() int { return q.n }

// Reset empties the queue, keeping its node array, and forgets the last
// popped key: the next push may carry any key again.
func (q *Queue[V]) Reset() {
	if len(q.nodes) == 0 {
		q.nodes = make([]node[V], header+buckets, 2*(header+buckets))
	}
	clear(q.nodes) // unlinks the headers and drops what the values reference
	q.nodes = q.nodes[:header+buckets]
	for b := range q.tail {
		q.drained(b)
	}
	q.last, q.n, q.free = 0, 0, none
}

// drained records that bucket b's list has just been emptied.
func (q *Queue[V]) drained(b int) {
	q.tail[b] = int32(header + b)
	q.min[b] = noKey
	q.occ &^= 1 << b
}

// Push queues v under key. The key must be at least the last popped key
// (any key after Reset or on a fresh queue) and at most MaxKey; anything
// else is a bug in the caller and panics.
func (q *Queue[V]) Push(key uint64, v V) {
	// key < last wraps the difference past bit 63, so one test covers both
	// a regression and an oversized key.
	if (key|(key-q.last))>>63 != 0 {
		panic(fmt.Sprintf("monoq: Push(%#x) below the last popped key %#x or above MaxKey", key, q.last))
	}
	i := q.free
	if i != none {
		q.free = q.nodes[i].next
	} else {
		if len(q.nodes) == 0 {
			q.Reset()
		}
		if len(q.nodes) == math.MaxInt32 {
			panic("monoq: more than 2^31 pending entries")
		}
		i = int32(len(q.nodes))
		q.nodes = append(q.nodes, node[V]{})
	}
	q.nodes[i] = node[V]{key: key, val: v}
	q.link(bits.Len64(key^q.last), i, key)
	q.n++
}

// link appends node i, which holds key and whose next link is clear, to
// bucket b.
func (q *Queue[V]) link(b int, i int32, key uint64) {
	b &= buckets - 1 // always true; spares the bounds checks
	q.nodes[q.tail[b]].next = i
	q.tail[b] = i
	q.occ |= 1 << b
	if key < q.min[b] {
		q.min[b] = key
	}
}

// Min returns the smallest queued key without removing it. It commits to
// nothing: a key between the last popped one and Min may still be pushed
// afterwards. Min panics on an empty queue.
func (q *Queue[V]) Min() uint64 {
	if q.n == 0 {
		panic("monoq: Min on an empty queue")
	}
	return q.min[bits.TrailingZeros64(q.occ)&(buckets-1)]
}

// Pop removes and returns the entry with the smallest key; among equal keys
// the one pushed first. It panics on an empty queue.
func (q *Queue[V]) Pop() (key uint64, v V) {
	if q.n == 0 {
		panic("monoq: Pop on an empty queue")
	}
	b := bits.TrailingZeros64(q.occ) & (buckets - 1)
	if b != 0 && q.nodes[q.nodes[header+b].next].next != none {
		q.spread(b)
		b = 0
	}
	// Bucket b's first entry is the minimum: b is 0, or the bucket holds
	// that one entry. Popping the latter where it is keeps every higher
	// bucket valid — the new last key agrees with the old one above bit
	// b-1, where those entries first differ from both.
	h := &q.nodes[header+b]
	i := h.next
	nd := &q.nodes[i]
	key, v = nd.key, nd.val
	q.last = key
	if h.next = nd.next; nd.next == none {
		q.drained(b)
	}
	var zero V
	nd.val = zero
	nd.next = q.free
	q.free = i
	q.n--
	return key, v
}

// spread makes the minimum of bucket b, the lowest occupied one, the last
// key and moves the bucket's entries, in order, to the buckets below it,
// those carrying the minimum to bucket 0.
func (q *Queue[V]) spread(b int) {
	min := q.min[b]
	q.last = min
	h := &q.nodes[header+b]
	i := h.next
	h.next = none
	q.drained(b)
	for i != none {
		nd := &q.nodes[i]
		next := nd.next
		nd.next = none
		q.link(bits.Len64(nd.key^min), i, nd.key)
		i = next
	}
}
