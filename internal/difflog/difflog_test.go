package difflog

import (
	"fmt"
	"reflect"
	"testing"

	"celestial/internal/rng"
)

// fill appends generations from..to, each entry holding its generation.
func fill(l *Log[uint64], from, to uint64) {
	for g := from; g <= to; g++ {
		*l.Append(g) = g
	}
}

// TestLogCursorTable pins the one cursor table every owner of a Log answers
// its subscribers with, on the log shapes the owners actually reach.
func TestLogCursorTable(t *testing.T) {
	type answer struct {
		cursor uint64
		ok     bool
		n      int
	}
	cases := []struct {
		name           string
		build          func() *Log[uint64]
		head, oldest   uint64
		length, evicts int
		answers        []answer
	}{
		{
			name:  "empty log",
			build: func() *Log[uint64] { return New[uint64](4) },
			head:  0, oldest: 1,
			answers: []answer{{0, true, 0}, {1, false, 0}, {99, false, 0}},
		},
		{
			name:  "partly filled",
			build: func() *Log[uint64] { l := New[uint64](4); fill(l, 1, 3); return l },
			head:  3, oldest: 1, length: 3,
			answers: []answer{
				{4, false, 0}, // future
				{3, true, 0},  // head
				{2, true, 1},  // head-1
				{1, true, 2},  // oldest
				{0, true, 3},  // oldest-1: the whole window
			},
		},
		{
			name:  "wrapped",
			build: func() *Log[uint64] { l := New[uint64](4); fill(l, 1, 10); return l },
			head:  10, oldest: 7, length: 4, evicts: 6,
			answers: []answer{
				{11, false, 0}, {10, true, 0}, {9, true, 1}, {7, true, 3},
				{6, true, 4},  // oldest-1
				{5, false, 0}, // evicted
				{0, false, 0},
			},
		},
		{
			name:  "capacity 1",
			build: func() *Log[uint64] { l := New[uint64](1); fill(l, 1, 3); return l },
			head:  3, oldest: 3, length: 1, evicts: 2,
			answers: []answer{{4, false, 0}, {3, true, 0}, {2, true, 1}, {1, false, 0}},
		},
		{
			name:  "capacity below one is one",
			build: func() *Log[uint64] { l := New[uint64](0); fill(l, 1, 2); return l },
			head:  2, oldest: 2, length: 1, evicts: 1,
			answers: []answer{{2, true, 0}, {1, true, 1}, {0, false, 0}},
		},
		{
			name: "after Reset",
			build: func() *Log[uint64] {
				l := New[uint64](4)
				fill(l, 1, 3)
				l.Reset(9)
				return l
			},
			head: 9, oldest: 10,
			answers: []answer{{10, false, 0}, {9, true, 0}, {8, false, 0}, {3, false, 0}, {0, false, 0}},
		},
		{
			name: "Reset to a lower generation, then appends",
			build: func() *Log[uint64] {
				l := New[uint64](4)
				fill(l, 1, 11)
				l.Reset(9)
				fill(l, 10, 11)
				return l
			},
			head: 11, oldest: 10, length: 2, evicts: 7,
			answers: []answer{{12, false, 0}, {11, true, 0}, {10, true, 1}, {9, true, 2}, {8, false, 0}},
		},
		{
			name: "after a non-successor Append",
			build: func() *Log[uint64] {
				l := New[uint64](4)
				fill(l, 1, 3)
				fill(l, 7, 8) // 4..6 never arrived: the window restarts at 7
				return l
			},
			head: 8, oldest: 7, length: 2,
			answers: []answer{{9, false, 0}, {8, true, 0}, {7, true, 1}, {6, true, 2}, {5, false, 0}, {3, false, 0}},
		},
		{
			name:  "first Append past generation 1",
			build: func() *Log[uint64] { l := New[uint64](4); fill(l, 5, 5); return l },
			head:  5, oldest: 5, length: 1,
			answers: []answer{{5, true, 0}, {4, true, 1}, {3, false, 0}, {0, false, 0}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := tc.build()
			oldest := l.Head() - uint64(l.Len()) + 1
			if l.Head() != tc.head || oldest != tc.oldest || l.Len() != tc.length || l.Evictions() != uint64(tc.evicts) {
				t.Fatalf("head/oldest/len/evictions = %d/%d/%d/%d, want %d/%d/%d/%d",
					l.Head(), oldest, l.Len(), l.Evictions(), tc.head, tc.oldest, tc.length, tc.evicts)
			}
			for _, a := range tc.answers {
				got, ok := l.Since(a.cursor)
				if ok != a.ok || len(got) != a.n {
					t.Errorf("Since(%d) = %v, %v; want %d entries, ok=%v", a.cursor, got, ok, a.n, a.ok)
					continue
				}
				for i, g := range got {
					if want := a.cursor + 1 + uint64(i); g != want {
						t.Errorf("Since(%d)[%d] = %d, want %d", a.cursor, i, g, want)
					}
				}
			}
			// At agrees with the window: exactly [oldest, head] resolves.
			for g := uint64(0); g <= tc.head+2; g++ {
				e, ok := l.At(g)
				if want := g >= tc.oldest && g <= tc.head; ok != want {
					t.Errorf("At(%d) ok = %v, want %v", g, ok, want)
				} else if ok && *e != g {
					t.Errorf("At(%d) = %d", g, *e)
				}
			}
		})
	}
}

// TestLogAppendReusesSlot pins what keeps the coordinator's retention
// allocation-free: the slot Append hands out still holds the evicted
// generation's value, backing arrays included.
func TestLogAppendReusesSlot(t *testing.T) {
	l := New[[]int](2)
	for g := uint64(1); g <= 2; g++ {
		s := l.Append(g)
		*s = append(*s, int(g), int(g))
	}
	evicted, _ := l.At(1)
	first := &(*evicted)[0]
	s := l.Append(3)
	if len(*s) != 2 || &(*s)[0] != first {
		t.Fatalf("slot for generation 3 = %v, want generation 1's backing array back", *s)
	}
	l.Reset(3)
	if s := l.Append(4); *s != nil {
		t.Errorf("slot after Reset = %v, want zeroed (Reset must drop what it retained)", *s)
	}
}

// TestLogTail pins the mirror read: entries after the cursor when the log
// can replay it, the whole window — and from says so — when it cannot.
func TestLogTail(t *testing.T) {
	l := New[uint64](4)
	fill(l, 1, 6) // window (2, 6]
	check := func(cursor uint64, wantFrom uint64, want []uint64) {
		t.Helper()
		got, from := l.Tail(cursor)
		if from != wantFrom || !reflect.DeepEqual(got, want) {
			t.Errorf("Tail(%d) = %v from %d, want %v from %d", cursor, got, from, want, wantFrom)
		}
	}
	check(6, 6, nil)
	check(4, 4, []uint64{5, 6})
	check(2, 2, []uint64{3, 4, 5, 6})
	check(1, 2, []uint64{3, 4, 5, 6}) // evicted: rebased
	check(9, 2, []uint64{3, 4, 5, 6}) // future: rebased
}

// model is the naive reference: every generation ever appended since the
// last restart, in a plain slice.
type model struct {
	cap     int
	base    uint64 // the restart point: entries[i] is generation base+1+i
	entries []uint64
	evicted uint64
}

func (m *model) head() uint64 { return m.base + uint64(len(m.entries)) }

func (m *model) window() []uint64 {
	if len(m.entries) > m.cap {
		return m.entries[len(m.entries)-m.cap:]
	}
	return m.entries
}

func (m *model) append(gen, val uint64) {
	if gen != m.head()+1 {
		m.reset(gen - 1)
	}
	m.entries = append(m.entries, val)
	if len(m.entries) > m.cap {
		m.evicted++
	}
}

func (m *model) reset(head uint64) { m.base, m.entries = head, nil }

func (m *model) since(cursor uint64) ([]uint64, bool) {
	w := m.window()
	oldest := m.head() - uint64(len(w)) + 1
	if cursor > m.head() || cursor+1 < oldest {
		return nil, false
	}
	return w[cursor+1-oldest:], true
}

// TestLogModel drives a Log and the naive model through the same seeded
// random Append/Reset/Since/At steps and demands they agree on the
// window, the eviction count and every answer — and that Wait's channel
// closes on exactly the steps that mutate the log (after AppendDeferred,
// once its caller closes it).
func TestLogModel(t *testing.T) {
	const steps = 20000
	for _, capacity := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("cap%d", capacity), func(t *testing.T) {
			rnd := rng.New(int64(capacity))
			l := New[uint64](capacity)
			m := &model{cap: capacity}
			for step := 0; step < steps; step++ {
				ch := l.Wait()
				mutated := false
				// pick draws a generation near the window, on either side.
				pick := func() uint64 {
					lo := uint64(0)
					if h := m.head(); h > uint64(capacity)+2 {
						lo = h - uint64(capacity) - 2
					}
					return lo + uint64(rnd.Intn(capacity+5))
				}
				switch op := rnd.Intn(100); {
				case op < 55: // the common case: the next generation
					gen, val := m.head()+1, rnd.Uint64()
					if op < 30 {
						*l.Append(gen) = val
					} else {
						// The owner's deferred wake: the channel Wait
						// handed out comes back still open, and closing
						// it is what wakes the waiters.
						slot, woken := l.AppendDeferred(gen)
						*slot = val
						select {
						case <-ch:
							t.Fatalf("step %d: AppendDeferred closed the Wait channel itself", step)
						default:
						}
						if (<-chan struct{})(woken) != ch {
							t.Fatalf("step %d: AppendDeferred returned a channel Wait never handed out", step)
						}
						close(woken)
					}
					m.append(gen, val)
					mutated = true
				case op < 60: // a generation that does not continue the log
					gen, val := pick()+1, rnd.Uint64()
					*l.Append(gen) = val
					m.append(gen, val)
					mutated = true
				case op < 65:
					head := pick()
					l.Reset(head)
					m.reset(head)
					mutated = true
				case op < 85:
					cursor := pick()
					got, ok := l.Since(cursor)
					want, wantOK := m.since(cursor)
					if ok != wantOK || len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
						t.Fatalf("step %d: Since(%d) = %v, %v; model %v, %v", step, cursor, got, ok, want, wantOK)
					}
				default:
					gen := pick()
					e, ok := l.At(gen)
					w := m.window()
					oldest := m.head() - uint64(len(w)) + 1
					wantOK := gen >= oldest && gen <= m.head()
					if ok != wantOK || (ok && *e != w[gen-oldest]) {
						t.Fatalf("step %d: At(%d) ok=%v, model ok=%v", step, gen, ok, wantOK)
					}
				}
				select {
				case <-ch:
					if !mutated {
						t.Fatalf("step %d: Wait channel closed by a read", step)
					}
				default:
					if mutated {
						t.Fatalf("step %d: Wait channel still open after a mutation", step)
					}
				}
				if mutated == (l.Wait() == ch) {
					t.Fatalf("step %d: Wait channel replaced = %v, mutated = %v", step, l.Wait() != ch, mutated)
				}
				w := m.window()
				if l.Head() != m.head() || l.Len() != len(w) || l.Cap() != capacity || l.Evictions() != m.evicted {
					t.Fatalf("step %d: head/len/evictions = %d/%d/%d, model %d/%d/%d", step,
						l.Head(), l.Len(), l.Evictions(), m.head(), len(w), m.evicted)
				}
			}
		})
	}
}
