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

	"celestial/internal/monoq"
)

// eventQueue orders pending events by their scheduled time, as nanoseconds
// since the engine's start, and holds for each the slot its payload lives
// in: a slot of Sim.calls as is, a slot of Sim.deliveries as its complement
// (negative). Times compare as one integer rather than through time.Time's
// wall/monotonic decoding, and no entry is boxed: on a tick that carries
// traffic the queue is the hottest code in the process.
//
// The engine never schedules before now, so the queue is the monotone
// radix queue graph's shortest-path runs use, not a comparison heap. Its
// FIFO order among equal keys is the engine's determinism contract —
// events fire in (time, scheduling order) — which is why an entry carries
// no sequence number.
type eventQueue = monoq.Queue[int32]

// slab stores event payloads outside the queue, whose entries stay 16
// bytes. Freed slots are zeroed — a fired event retains neither its
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
	// base is the start time stripped of any monotonic reading, so that
	// keys are wall-clock offsets whichever readings a scheduled time has.
	base time.Time
	// now is the virtual time and nowKey its key.
	now    time.Time
	nowKey int64

	pq         eventQueue
	calls      slab[call]
	deliveries slab[delivery]
}

// NewSim creates an engine whose virtual clock starts at the given time.
func NewSim(start time.Time) *Sim {
	return &Sim{base: start.Round(0), now: start}
}

// Now returns the current virtual time. Like every other method it must
// only be called from the simulation goroutine.
func (s *Sim) Now() time.Time { return s.now }

// key maps a time onto the queue's integer axis. Distinct instants get
// distinct keys: a time too far from the start for a Duration to hold the
// offset is an error rather than a saturated, mis-ordered key. Keys that
// reach the queue are at or after nowKey, so never negative.
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
	s.pq.Push(uint64(key), s.calls.put(call{at: t, fn: fn}))
	return nil
}

// deliver schedules a message arrival at d.msg.DeliveredAt. It takes its
// place in the scheduling order exactly as At does.
func (s *Sim) deliver(d delivery) error {
	key, err := s.futureKey(d.msg.DeliveredAt)
	if err != nil {
		return err
	}
	s.pq.Push(uint64(key), ^s.deliveries.put(d))
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

// advance moves virtual time to t, whose key the caller has checked to be
// at or after now.
func (s *Sim) advance(t time.Time, key int64) { s.now, s.nowKey = t, key }

// Step executes the next event, advancing the clock to its timestamp. It
// returns false when no events remain.
func (s *Sim) Step() bool {
	if s.pq.Len() == 0 {
		return false
	}
	key, slot := s.pq.Pop()
	if slot < 0 {
		d := s.deliveries.take(^slot)
		s.advance(d.msg.DeliveredAt, int64(key))
		d.net.delivered++
		d.handler(d.msg)
	} else {
		c := s.calls.take(slot)
		s.advance(c.at, int64(key))
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
	// Min only looks: were it to commit the queue to the next event's key,
	// an event scheduled after this call, between t and that key, would be
	// a push below the queue's floor.
	for s.pq.Len() > 0 && s.pq.Min() <= uint64(key) {
		s.Step()
	}
	s.advance(t, key)
	return nil
}
