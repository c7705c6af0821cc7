// Package vnet provides the virtual network substrate of the testbed: a
// deterministic discrete-event engine driving a virtual clock, the IP and
// DNS addressing scheme for emulated machines, and a message-passing
// network whose per-path delays and bandwidth follow the constellation
// topology.
//
// It replaces the host networking layer of the original Celestial (virtual
// network interfaces, tc qdiscs and the WireGuard host overlay) with an
// in-process equivalent: applications observe the same end-to-end latency,
// bandwidth and reachability effects, which is what the paper's evaluation
// measures.
package vnet

import (
	"fmt"
	"math"
	"time"

	"celestial/internal/clock"
)

// entry is one queued event as the heap orders it: the scheduled time as
// nanoseconds since the engine's start, the scheduling sequence number that
// breaks ties, and where the event's payload lives. Times compare as one
// integer rather than through time.Time's wall/monotonic decoding, and no
// entry is boxed: on a tick that carries traffic the queue is the hottest
// code in the process.
type entry struct {
	key      int64
	seq      uint64
	slot     int32
	delivery bool // slot indexes Sim.deliveries rather than Sim.calls
}

// before is the engine's determinism contract: events fire in (time, seq)
// order, so events at equal times fire in the order they were scheduled.
func (a entry) before(b entry) bool {
	return a.key < b.key || a.key == b.key && a.seq < b.seq
}

// eventQueue is a hand-rolled 4-ary min-heap of entries (container/heap
// would box every entry through interface{}, see graph.minHeap). Four
// children per node halve the depth a pop sifts through, and the siblings
// it compares are 96 contiguous bytes: about a fifth faster than a binary
// heap on batches of a thousand events, and no slower at 16k pending.
type eventQueue []entry

const arity = 4

func (q *eventQueue) push(e entry) {
	s := append(*q, e)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / arity
		if !e.before(s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = e
	*q = s
}

func (q *eventQueue) pop() entry {
	s := *q
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s = s[:n]
	*q = s
	i := 0
	for {
		first := arity*i + 1
		if first >= n {
			break
		}
		end := first + arity
		if end > n {
			end = n
		}
		min := first
		for c := first + 1; c < end; c++ {
			if s[c].before(s[min]) {
				min = c
			}
		}
		if !s[min].before(last) {
			break
		}
		s[i] = s[min]
		i = min
	}
	if n > 0 {
		s[i] = last
	}
	return top
}

// slab stores event payloads outside the heap, so sifting moves 24-byte
// entries only. Freed slots are zeroed — a fired event retains neither its
// closure nor a message payload — and reused most recently freed first.
type slab[T any] struct {
	slots []T
	free  []int32
}

func (s *slab[T]) put(v T) int32 {
	if n := len(s.free); n > 0 {
		i := s.free[n-1]
		s.free = s.free[:n-1]
		s.slots[i] = v
		return i
	}
	s.slots = append(s.slots, v)
	return int32(len(s.slots) - 1)
}

// take copies the payload out before releasing the slot, so the event may
// schedule further events (growing or reusing the slab) while it runs.
func (s *slab[T]) take(i int32) T {
	v := s.slots[i]
	var zero T
	s.slots[i] = zero
	s.free = append(s.free, i)
	return v
}

// call is the payload of a callback event. It keeps the time.Time the
// caller scheduled, so Now reports exactly that value, location included.
type call struct {
	at time.Time
	fn func()
}

// delivery is the payload of a message arrival (see Network.Send); it fires
// at msg.DeliveredAt.
type delivery struct {
	handler Handler
	net     *Network
	msg     Message
}

// Sim is a single-threaded discrete-event simulation engine. Events run in
// timestamp order (FIFO among equal timestamps), advancing a virtual clock.
// All scheduling and execution must happen from one goroutine; this is what
// makes experiment runs bit-for-bit reproducible.
type Sim struct {
	clk *clock.Virtual
	// base is the start time stripped of any monotonic reading, so that
	// keys are wall-clock offsets whichever readings a scheduled time has.
	base time.Time
	// now and nowKey mirror clk for the simulation goroutine, which reads
	// the time once or more per event and must not pay clk's lock for it.
	now    time.Time
	nowKey int64

	pq         eventQueue
	seq        uint64
	calls      slab[call]
	deliveries slab[delivery]
}

// NewSim creates an engine whose virtual clock starts at the given time.
func NewSim(start time.Time) *Sim {
	return &Sim{clk: clock.NewVirtual(start), base: start.Round(0), now: start}
}

// Clock exposes the engine's clock for components that only need to read
// time. Unlike Now it is safe to read from any goroutine.
func (s *Sim) Clock() clock.Clock { return s.clk }

// Now returns the current virtual time. Like every other method it must
// only be called from the simulation goroutine.
func (s *Sim) Now() time.Time { return s.now }

// key maps a time onto the queue's integer axis. Distinct instants get
// distinct keys: a time too far from the start for a Duration to hold the
// offset is an error rather than a saturated, mis-ordered key.
func (s *Sim) key(t time.Time) (int64, error) {
	d := t.Sub(s.base)
	if d == math.MaxInt64 || d == math.MinInt64 {
		return 0, fmt.Errorf("vnet: time %v is out of range of an engine started at %v", t, s.base)
	}
	return int64(d), nil
}

// futureKey is key for a time an event is to be scheduled at, which must
// not be in the past.
func (s *Sim) futureKey(t time.Time) (int64, error) {
	key, err := s.key(t)
	if err != nil {
		return 0, err
	}
	if key < s.nowKey {
		return 0, fmt.Errorf("vnet: cannot schedule event at %v before now %v", t, s.now)
	}
	return key, nil
}

// At schedules fn to run at an absolute virtual time, which must not be in
// the past.
func (s *Sim) At(t time.Time, fn func()) error {
	key, err := s.futureKey(t)
	if err != nil {
		return err
	}
	s.seq++
	s.pq.push(entry{key: key, seq: s.seq, slot: s.calls.put(call{at: t, fn: fn})})
	return nil
}

// deliver schedules a message arrival at d.msg.DeliveredAt. It takes one
// sequence number, exactly as At does.
func (s *Sim) deliver(d delivery) error {
	key, err := s.futureKey(d.msg.DeliveredAt)
	if err != nil {
		return err
	}
	s.seq++
	s.pq.push(entry{key: key, seq: s.seq, slot: s.deliveries.put(d), delivery: true})
	return nil
}

// After schedules fn to run d after the current virtual time.
func (s *Sim) After(d time.Duration, fn func()) error {
	if d < 0 {
		return fmt.Errorf("vnet: negative delay %v", d)
	}
	return s.At(s.now.Add(d), fn)
}

// Every schedules fn at t, t+interval, t+2*interval, ... for as long as fn
// returns true.
func (s *Sim) Every(start time.Time, interval time.Duration, fn func() bool) error {
	if interval <= 0 {
		return fmt.Errorf("vnet: interval must be positive, have %v", interval)
	}
	var tick func()
	at := start
	tick = func() {
		if !fn() {
			return
		}
		at = at.Add(interval)
		// Scheduling forward from a just-executed event cannot fail.
		if err := s.At(at, tick); err != nil {
			panic(fmt.Sprintf("vnet: rescheduling recurring event: %v", err))
		}
	}
	return s.At(start, tick)
}

// Pending returns the number of queued events.
func (s *Sim) Pending() int { return len(s.pq) }

// advance moves virtual time to t, whose key the caller has checked to be
// at or after now.
func (s *Sim) advance(t time.Time, key int64) {
	s.now, s.nowKey = t, key
	if err := s.clk.Set(t); err != nil {
		// Events are popped in time order from a queue that rejects past
		// timestamps, so the clock can never move backwards.
		panic(fmt.Sprintf("vnet: clock regression: %v", err))
	}
}

// Step executes the next event, advancing the clock to its timestamp. It
// returns false when no events remain.
func (s *Sim) Step() bool {
	if len(s.pq) == 0 {
		return false
	}
	e := s.pq.pop()
	if e.delivery {
		d := s.deliveries.take(e.slot)
		s.advance(d.msg.DeliveredAt, e.key)
		d.net.delivered++
		d.handler(d.msg)
	} else {
		c := s.calls.take(e.slot)
		s.advance(c.at, e.key)
		c.fn()
	}
	return true
}

// RunUntil executes all events with timestamps ≤ t, then advances the
// clock to exactly t.
func (s *Sim) RunUntil(t time.Time) error {
	key, err := s.key(t)
	if err != nil {
		return err
	}
	if key < s.nowKey {
		return fmt.Errorf("vnet: cannot run until %v, already at %v", t, s.now)
	}
	for len(s.pq) > 0 && s.pq[0].key <= key {
		s.Step()
	}
	s.advance(t, key)
	return nil
}

// Drain executes events until the queue is empty and returns how many ran.
// A limit guards against runaway recurring events; zero means no limit.
func (s *Sim) Drain(limit int) (int, error) {
	n := 0
	for s.Step() {
		n++
		if limit > 0 && n >= limit {
			if len(s.pq) > 0 {
				return n, fmt.Errorf("vnet: drain limit %d reached with %d events pending", limit, len(s.pq))
			}
		}
	}
	return n, nil
}
