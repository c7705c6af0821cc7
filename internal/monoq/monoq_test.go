package monoq

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// refQueue is the reference model: entries in push order, the one to pop
// the first in a stable sort by key.
type refQueue struct {
	floor uint64 // the last popped key
	q     []refEntry
}

type refEntry struct {
	key uint64
	id  int32
}

func (r *refQueue) push(key uint64, id int32) { r.q = append(r.q, refEntry{key, id}) }

func (r *refQueue) sort() {
	sort.SliceStable(r.q, func(i, j int) bool { return r.q[i].key < r.q[j].key })
}

func (r *refQueue) min() uint64 {
	r.sort()
	return r.q[0].key
}

func (r *refQueue) pop() refEntry {
	r.sort()
	e := r.q[0]
	r.q = r.q[1:]
	r.floor = e.key
	return e
}

// queueDiff interprets prog on a Queue and on the reference model and
// reports the first divergence. An op is two bytes, (code, arg): push a key
// arg&15 steps of 2^(2·(code>>3)) above the last popped key — so a program
// mixes ties, near keys and keys that differ in their top bits, clamped to
// MaxKey — or pop, or look at the minimum, or (rarely) reset. Pushes land
// below a minimum Min has just reported whenever the program says so:
// looking must not commit the queue to anything.
func queueDiff(prog []byte) error {
	var q Queue[int32]
	var ref refQueue
	id := int32(0)
	for pc := 0; pc+1 < len(prog); pc += 2 {
		code, arg := prog[pc], prog[pc+1]
		switch op := code % 8; {
		case op < 4:
			step := uint64(arg&15) << (2 * (code >> 3))
			key := ref.floor + step
			if key > MaxKey || key < ref.floor {
				key = MaxKey
			}
			q.Push(key, id)
			ref.push(key, id)
			id++
		case op == 7 && arg%8 == 0:
			q.Reset()
			ref = refQueue{}
		case op == 6:
			if len(ref.q) == 0 {
				continue
			}
			if got, want := q.Min(), ref.min(); got != want {
				return fmt.Errorf("op %d: Min = %#x, reference %#x", pc/2, got, want)
			}
		default:
			if len(ref.q) == 0 {
				continue
			}
			want := ref.pop()
			if key, v := q.Pop(); key != want.key || v != want.id {
				return fmt.Errorf("op %d: Pop = (%#x, %d), reference (%#x, %d)", pc/2, key, v, want.key, want.id)
			}
		}
		if q.Len() != len(ref.q) {
			return fmt.Errorf("op %d: Len = %d, reference %d", pc/2, q.Len(), len(ref.q))
		}
	}
	for len(ref.q) > 0 {
		want := ref.pop()
		if key, v := q.Pop(); key != want.key || v != want.id {
			return fmt.Errorf("drain: Pop = (%#x, %d), reference (%#x, %d)", key, v, want.key, want.id)
		}
	}
	if q.Len() != 0 {
		return fmt.Errorf("drained queue has Len %d", q.Len())
	}
	return nil
}

// TestQueueOrderDifferential is the queue's contract: under any monotone
// program of Push, Pop, Min and Reset it pops what a stable sort by key
// would.
func TestQueueOrderDifferential(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		prog := make([]byte, 2*(1+rnd.Intn(600)))
		rnd.Read(prog)
		if err := queueDiff(prog); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func FuzzQueueOrder(f *testing.F) {
	f.Add([]byte{0, 3, 0, 3, 8, 1, 6, 0, 0, 0, 4, 0, 4, 0, 4, 0})
	f.Add([]byte{0xf8, 0xff, 0xf9, 1, 6, 0, 4, 0, 7, 0, 0, 5, 4, 0})
	rnd := rand.New(rand.NewSource(42))
	for i := 0; i < 4; i++ {
		prog := make([]byte, 64<<i)
		rnd.Read(prog)
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			prog = prog[:4096]
		}
		if err := queueDiff(prog); err != nil {
			t.Fatal(err)
		}
	})
}

// TestEqualKeysPopInPushOrder: FIFO among equal keys, also for keys that
// were pushed far apart in time and met in bucket 0 only after the entries
// between them were spread several times.
func TestEqualKeysPopInPushOrder(t *testing.T) {
	var q Queue[int32]
	keys := []uint64{900, 5, 900, 77, 5, 900, 1 << 40, 77, 5}
	for i, k := range keys {
		q.Push(k, int32(i))
	}
	if key, v := q.Pop(); key != 5 || v != 1 {
		t.Fatalf("first pop = (%d, %d)", key, v)
	}
	// Late arrivals join the back of their key's line.
	q.Push(900, 100)
	q.Push(5, 101)
	want := []refEntry{{5, 4}, {5, 8}, {5, 101}, {77, 3}, {77, 7}, {900, 0}, {900, 2}, {900, 5}, {900, 100}, {1 << 40, 6}}
	for _, w := range want {
		if key, v := q.Pop(); key != w.key || v != w.id {
			t.Fatalf("pop = (%d, %d), want (%d, %d)", key, v, w.key, w.id)
		}
	}
	if q.Len() != 0 {
		t.Errorf("Len = %d after the last pop", q.Len())
	}
}

// TestExtremeKeys: zero, MaxKey and the bit patterns of the floats graph
// keys the queue with — +0, the smallest subnormal, +Inf — order as
// integers, which for non-negative floats is their numeric order.
func TestExtremeKeys(t *testing.T) {
	floats := []float64{math.Inf(1), 0, math.SmallestNonzeroFloat64, 1.5, math.MaxFloat64, 1e-4}
	var q Queue[int32]
	for i, f := range floats {
		q.Push(math.Float64bits(f), int32(i))
	}
	q.Push(MaxKey, -1)
	q.Push(0, -2)
	sort.Float64s(floats)
	if key, v := q.Pop(); key != 0 || v != 1 {
		t.Fatalf("first pop = (%#x, %d), want the +0 float pushed first", key, v)
	}
	if key, v := q.Pop(); key != 0 || v != -2 {
		t.Fatalf("second pop = (%#x, %d), want the integer 0 pushed second", key, v)
	}
	for _, f := range floats[1:] {
		if key, _ := q.Pop(); math.Float64frombits(key) != f {
			t.Fatalf("pop = %v, want %v", math.Float64frombits(key), f)
		}
	}
	if key, v := q.Pop(); key != MaxKey || v != -1 {
		t.Fatalf("last pop = (%#x, %d), want MaxKey", key, v)
	}
	// With MaxKey popped, MaxKey is the only key left to push.
	q.Push(MaxKey, 7)
	if q.Min() != MaxKey {
		t.Errorf("Min = %#x", q.Min())
	}
}

// TestMinDoesNotCommit: after Min has reported the next key, anything from
// the last popped key up may still be pushed, and pops first.
func TestMinDoesNotCommit(t *testing.T) {
	var q Queue[int32]
	q.Push(10, 0)
	q.Pop()
	q.Push(1000, 1)
	q.Push(1010, 2)
	if q.Min() != 1000 {
		t.Fatalf("Min = %d", q.Min())
	}
	q.Push(10, 3)
	q.Push(500, 4)
	if q.Min() != 10 {
		t.Fatalf("Min = %d after a push at the last popped key", q.Min())
	}
	for _, want := range []int32{3, 4, 1, 2} {
		if _, v := q.Pop(); v != want {
			t.Fatalf("pop = %d, want %d", v, want)
		}
	}
}

// TestMisuse: a key below the last popped one or above MaxKey, and Pop or
// Min on an empty queue, are caller bugs and say so.
func TestMisuse(t *testing.T) {
	panics := func(name, want string, fn func()) {
		t.Helper()
		defer func() {
			t.Helper()
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
				t.Errorf("%s: panic %q, want one mentioning %q", name, msg, want)
			}
		}()
		fn()
	}
	var q Queue[int32]
	panics("Pop on empty", "empty", func() { q.Pop() })
	panics("Min on empty", "empty", func() { q.Min() })
	panics("bit 63", "MaxKey", func() { q.Push(1<<63, 0) })
	panics("negative float", "MaxKey", func() { q.Push(math.Float64bits(-1), 0) })
	q.Push(100, 0)
	q.Push(200, 1)
	q.Pop()
	panics("regression", "below the last popped key", func() { q.Push(99, 2) })
	if q.Len() != 1 {
		t.Errorf("refused pushes changed Len to %d", q.Len())
	}
	// Reset lifts the floor.
	q.Reset()
	q.Push(1, 3)
	if key, v := q.Pop(); key != 1 || v != 3 {
		t.Errorf("after Reset: pop = (%d, %d)", key, v)
	}
}

// TestSteadyStateAllocatesNothing: once the node array has grown to the
// high-water mark of pending entries, neither pushing, popping nor Reset
// allocates, and the array stops growing.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	var q Queue[int32]
	rnd := rand.New(rand.NewSource(3))
	round := func() {
		q.Reset()
		for i := 0; i < 200; i++ {
			q.Push(uint64(rnd.Intn(1<<20)), int32(i))
		}
		for q.Len() > 50 {
			key, v := q.Pop()
			if v%3 == 0 {
				q.Push(key+uint64(rnd.Intn(1<<12)), v+1)
			}
		}
	}
	round()
	grown := cap(q.nodes)
	if a := testing.AllocsPerRun(100, round); a != 0 {
		t.Errorf("a warm round allocates %v times", a)
	}
	if cap(q.nodes) != grown {
		t.Errorf("node array grew from %d to %d over identical rounds", grown, cap(q.nodes))
	}
}

// BenchmarkHold is the classic hold model of an event queue: a fixed
// population of pending entries, each pop followed by a push a random
// distance ahead.
func BenchmarkHold(b *testing.B) {
	var q Queue[int32]
	rnd := rand.New(rand.NewSource(1))
	const pending = 1000
	for i := 0; i < pending; i++ {
		q.Push(uint64(rnd.Int63n(1<<26)), int32(i))
	}
	ahead := make([]uint64, 1<<12)
	for i := range ahead {
		ahead[i] = uint64(rnd.Int63n(1 << 26))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key, v := q.Pop()
		q.Push(key+ahead[i&(len(ahead)-1)], v)
	}
}
