package vnet

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"celestial/internal/netem"
)

// engine is what an order program drives: the real Sim with a Network on
// top, or the reference model below.
type engine interface {
	Now() time.Time
	At(time.Time, func()) error
	After(time.Duration, func()) error
	Every(time.Time, time.Duration, func() bool) error
	// send transmits message id; the onDeliver callback runs on arrival.
	send(from, to, id int) error
	onDeliver(func(id int))
	Step() bool
}

// progNodes is the node count of the order programs' network; a pair's
// one-way delay is one or two quanta, so arrivals tie with callbacks.
const progNodes = 3

func progDelay(from, to int) time.Duration {
	return time.Duration(1+(from+to)%2) * netem.DelayQuantum
}

// realEngine is the engine under test.
type realEngine struct {
	*Sim
	net     *Network
	deliver func(id int)
}

func newRealEngine(start time.Time) *realEngine {
	lat := map[int]map[int]float64{}
	for a := 0; a < progNodes; a++ {
		lat[a] = map[int]float64{}
		for b := 0; b < progNodes; b++ {
			if a != b {
				lat[a][b] = progDelay(a, b).Seconds()
			}
		}
	}
	sim := NewSim(start)
	e := &realEngine{Sim: sim, net: NewNetwork(sim, StaticTopology{Latency: lat}, 1)}
	for a := 0; a < progNodes; a++ {
		e.net.Handle(a, func(m Message) { e.deliver(m.Payload.(int)) })
	}
	return e
}

func (e *realEngine) send(from, to, id int) error { return e.net.Send(from, to, 0, id) }
func (e *realEngine) onDeliver(f func(id int))    { e.deliver = f }

// refEngine is the reference model of the engine's contract: every
// successfully scheduled event takes the next sequence number, and the
// event to fire is the first in a stable sort by (time, sequence).
type refEngine struct {
	now     time.Time
	seq     uint64
	q       []refEvent
	deliver func(id int)
}

type refEvent struct {
	at  time.Time
	seq uint64
	fn  func()
}

func (r *refEngine) Now() time.Time           { return r.now }
func (r *refEngine) onDeliver(f func(id int)) { r.deliver = f }

func (r *refEngine) At(t time.Time, fn func()) error {
	if t.Before(r.now) {
		return errors.New("past")
	}
	r.seq++
	r.q = append(r.q, refEvent{t, r.seq, fn})
	return nil
}

func (r *refEngine) After(d time.Duration, fn func()) error {
	if d < 0 {
		return errors.New("negative")
	}
	return r.At(r.now.Add(d), fn)
}

func (r *refEngine) Every(start time.Time, interval time.Duration, fn func() bool) error {
	if interval <= 0 {
		return errors.New("interval")
	}
	at := start
	var tick func()
	tick = func() {
		if fn() {
			at = at.Add(interval)
			_ = r.At(at, tick) // forward from a running event
		}
	}
	return r.At(start, tick)
}

func (r *refEngine) send(from, to, id int) error {
	if from == to {
		return errors.New("self")
	}
	return r.At(r.now.Add(progDelay(from, to)), func() { r.deliver(id) })
}

func (r *refEngine) Step() bool {
	if len(r.q) == 0 {
		return false
	}
	sort.SliceStable(r.q, func(i, j int) bool {
		a, b := r.q[i], r.q[j]
		return a.at.Before(b.at) || a.at.Equal(b.at) && a.seq < b.seq
	})
	e := r.q[0]
	r.q = r.q[1:]
	r.now = e.at
	e.fn()
	return true
}

// runProgram interprets prog on e and returns the firing log. An op is two
// bytes, (code, arg): schedule a callback with At or After 0–3 quanta ahead,
// start an Every, send a message, or try to schedule in the past. A fired
// callback or delivery logs itself and runs the next arg>>6 ops itself, at
// its own Now(). The top level runs a quarter of the ops, drains the
// engine, and repeats until the program is used up.
func runProgram(e engine, prog []byte) []string {
	var log []string
	start := e.Now()
	pc, nextID := 0, 0
	var runOps func(n int)
	fired := func(kind string, id, nested int) {
		log = append(log, fmt.Sprintf("%s %d @%d", kind, id, e.Now().Sub(start)))
		runOps(nested)
	}
	nestedOf := map[int]int{}
	e.onDeliver(func(id int) { fired("deliver", id, nestedOf[id]) })
	note := func(id int, err error) {
		if err != nil {
			log = append(log, fmt.Sprintf("error %d", id))
		}
	}
	runOps = func(n int) {
		for ; n > 0 && pc+1 < len(prog); n-- {
			code, arg := prog[pc], int(prog[pc+1])
			pc += 2
			id := nextID
			nextID++
			ahead := time.Duration(arg%4) * netem.DelayQuantum
			nested := arg >> 6
			switch code % 5 {
			case 0:
				note(id, e.At(e.Now().Add(ahead), func() { fired("at", id, nested) }))
			case 1:
				note(id, e.After(ahead, func() { fired("after", id, nested) }))
			case 2:
				left := 1 + arg>>4%4
				interval := time.Duration(1+arg>>2%3) * netem.DelayQuantum
				note(id, e.Every(e.Now().Add(ahead), interval, func() bool {
					fired("every", id, 0)
					left--
					return left > 0
				}))
			case 3:
				nestedOf[id] = nested
				note(id, e.send(arg%progNodes, arg>>2%progNodes, id))
			case 4:
				note(id, e.At(e.Now().Add(-ahead-1), func() { fired("past", id, 0) }))
			}
		}
	}
	for pc+1 < len(prog) {
		runOps(1 + len(prog)/8)
		for e.Step() {
		}
	}
	return log
}

// orderDiff runs prog on the real engine and on the reference model and
// reports the first place their firing logs differ.
func orderDiff(prog []byte) error {
	re := newRealEngine(simStart)
	got := runProgram(re, prog)
	want := runProgram(&refEngine{now: simStart}, prog)
	for i := 0; i < len(got) || i < len(want); i++ {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			return fmt.Errorf("firing %d of %d/%d differs: sim %q, reference %q",
				i, len(got), len(want), logLine(got, i), logLine(want, i))
		}
	}
	if re.pq.Len() != 0 {
		return fmt.Errorf("%d events pending after the program", re.pq.Len())
	}
	return nil
}

func logLine(log []string, i int) string {
	if i < len(log) {
		return log[i]
	}
	return "<end>"
}

// TestSimOrderDifferential is the determinism contract: whatever mix of
// At, After, Every and Send a program issues — from the top level or from
// inside events, with most timestamps tied — the engine fires in the
// reference model's (time, sequence) order.
func TestSimOrderDifferential(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		prog := make([]byte, 2*(1+rnd.Intn(400)))
		rnd.Read(prog)
		if err := orderDiff(prog); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func FuzzSimOrder(f *testing.F) {
	f.Add([]byte{0, 0, 3, 1, 0, 1, 3, 0x46, 2, 0xff, 4, 0, 1, 0x80})
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
		if err := orderDiff(prog); err != nil {
			t.Fatal(err)
		}
	})
}

// TestHandlerSendsDuringDelivery grows the delivery slab while Step is in
// the middle of one: the handler of the first message sends a thousand
// more. Each must arrive once, in send order, with its own payload.
func TestHandlerSendsDuringDelivery(t *testing.T) {
	sim := NewSim(simStart)
	net := NewNetwork(sim, twoNodeTopo(0.010, 0), 1)
	const burst = 1000
	var got []int
	net.Handle(0, func(m Message) { got = append(got, m.Payload.(int)) })
	net.Handle(1, func(m Message) {
		if m.Payload.(int) != -1 {
			t.Errorf("trigger payload = %v", m.Payload)
		}
		for i := 0; i < burst; i++ {
			if err := net.Send(1, 0, 10, i); err != nil {
				t.Fatal(err)
			}
		}
	})
	if err := net.Send(0, 1, 10, -1); err != nil {
		t.Fatal(err)
	}
	if n := drain(sim); n != burst+1 {
		t.Fatalf("drained %d events, want %d", n, burst+1)
	}
	if len(got) != burst {
		t.Fatalf("delivered %d of %d", len(got), burst)
	}
	for i, id := range got {
		if id != i {
			t.Fatalf("delivery %d carries payload %d", i, id)
		}
	}
	if d, _ := net.Stats(); d != burst+1 {
		t.Errorf("delivered counter = %d", d)
	}
}

// slabReleased reports whether every slot of a slab is zero and on the free
// list exactly once.
func slabReleased[T any](s *slab[T]) error {
	if len(s.free) != len(s.slots) {
		return fmt.Errorf("%d of %d slots free", len(s.free), len(s.slots))
	}
	seen := map[int32]bool{}
	for _, i := range s.free {
		if seen[i] {
			return fmt.Errorf("slot %d is on the free list twice", i)
		}
		seen[i] = true
	}
	for i := range s.slots {
		if !reflect.ValueOf(s.slots[i]).IsZero() {
			return fmt.Errorf("slot %d still holds %+v", i, s.slots[i])
		}
	}
	return nil
}

// drain executes events until the queue is empty and returns how many ran.
func drain(s *Sim) int {
	n := 0
	for s.Step() {
		n++
	}
	return n
}

// TestDrainReleasesEverySlot: a fired event keeps neither its closure nor
// its message payload alive.
func TestDrainReleasesEverySlot(t *testing.T) {
	sim := NewSim(simStart)
	net := NewNetwork(sim, twoNodeTopo(0.010, 0), 1)
	net.Handle(1, func(Message) {})
	for i := 0; i < 100; i++ {
		if err := sim.After(time.Duration(i%7)*time.Millisecond, func() {}); err != nil {
			t.Fatal(err)
		}
		if err := net.Send(0, 1, 10, make([]byte, 16)); err != nil {
			t.Fatal(err)
		}
	}
	if len(sim.calls.slots) == 0 || len(sim.deliveries.slots) == 0 {
		t.Fatal("nothing was scheduled through the slabs")
	}
	drain(sim)
	if sim.pq.Len() != 0 {
		t.Errorf("pending = %d", sim.pq.Len())
	}
	if err := slabReleased(&sim.calls); err != nil {
		t.Errorf("calls: %v", err)
	}
	if err := slabReleased(&sim.deliveries); err != nil {
		t.Errorf("deliveries: %v", err)
	}
}

// TestSteadyStateAllocatesNothing: once the queue and slabs have grown, an
// event costs no allocation, neither does a batch of a thousand events
// spread over a thousand nanoseconds and stepped empty, and neither does a
// message with a nil payload.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	sim := NewSim(simStart)
	fired := 0
	fn := func() { fired++ }
	event := func() {
		if err := sim.At(sim.Now().Add(time.Microsecond), fn); err != nil {
			t.Fatal(err)
		}
		sim.Step()
	}
	event()
	if a := testing.AllocsPerRun(1000, event); a != 0 {
		t.Errorf("At+Step allocates %v per event", a)
	}

	const batchSize = 1000
	batch := func() {
		for j := 1; j <= batchSize; j++ {
			if err := sim.At(sim.Now().Add(time.Duration(j)), fn); err != nil {
				t.Fatal(err)
			}
		}
		for sim.Step() {
		}
	}
	batch()
	if a := testing.AllocsPerRun(100, batch); a != 0 {
		t.Errorf("a batch of %d events allocates %v", batchSize, a)
	}
	if want := 1002 + 102*batchSize; fired != want {
		t.Errorf("fired %d events, want %d", fired, want)
	}

	net := NewNetwork(sim, twoNodeTopo(0.010, 0), 1)
	got := 0
	net.Handle(1, func(Message) { got++ })
	message := func() {
		if err := net.Send(0, 1, 256, nil); err != nil {
			t.Fatal(err)
		}
		sim.Step()
	}
	message()
	if a := testing.AllocsPerRun(1000, message); a != 0 {
		t.Errorf("Send+Step allocates %v per message", a)
	}
	if got != 1002 {
		t.Errorf("delivered %d messages", got)
	}
}

// TestSendTagDeliversTheTag: a tag arrives unchanged beside a nil payload, a
// Send's message carries tag 0, and a tagged message allocates nothing
// whatever the tag's value — boxing a word of that size into an any would.
func TestSendTagDeliversTheTag(t *testing.T) {
	sim := NewSim(simStart)
	net := NewNetwork(sim, twoNodeTopo(0.010, 0), 1)
	var last Message
	net.Handle(1, func(m Message) { last = m })
	tag := uint64(1<<63 | 0xdead_beef)
	message := func() {
		if err := net.SendTag(0, 1, 256, tag); err != nil {
			t.Fatal(err)
		}
		sim.Step()
	}
	message()
	if last.Tag != tag || last.Payload != nil || last.From != 0 || last.To != 1 || last.SizeBytes != 256 {
		t.Fatalf("tagged message arrived as %+v", last)
	}
	if a := testing.AllocsPerRun(1000, func() { tag++; message() }); a != 0 {
		t.Errorf("SendTag+Step allocates %v per message", a)
	}
	if last.Tag != tag {
		t.Errorf("last tag %#x, want %#x", last.Tag, tag)
	}
	if err := net.Send(0, 1, 256, "payload"); err != nil {
		t.Fatal(err)
	}
	sim.Step()
	if last.Tag != 0 || last.Payload != "payload" {
		t.Errorf("Send's message arrived as %+v", last)
	}
}

// TestTimeOutOfKeyRange: the queue orders events by their offset from the
// start; a time whose offset a Duration cannot hold is refused, not
// clamped onto the same key as every other such time.
func TestTimeOutOfKeyRange(t *testing.T) {
	sim := NewSim(simStart)
	far := simStart.AddDate(400, 0, 0)
	if err := sim.At(far, func() {}); err == nil {
		t.Error("At accepted a time 400 years after the start")
	}
	if err := sim.RunUntil(far); err == nil {
		t.Error("RunUntil accepted a time 400 years after the start")
	}
	if err := sim.At(simStart.AddDate(-400, 0, 0), func() {}); err == nil {
		t.Error("At accepted a time 400 years before the start")
	}
	if sim.pq.Len() != 0 || !sim.Now().Equal(simStart) {
		t.Errorf("refused times left pending=%d now=%v", sim.pq.Len(), sim.Now())
	}
	// Well inside the range, two centuries out still orders correctly.
	var order []int
	for i, years := range []int{200, 100} {
		i := i
		if err := sim.At(simStart.AddDate(years, 0, 0), func() { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	drain(sim)
	if !reflect.DeepEqual(order, []int{1, 0}) {
		t.Errorf("order = %v", order)
	}
}

// TestNowIsTheScheduledValue: Now reports the very time.Time an event was
// scheduled with, or RunUntil was called with — same instant, same location.
func TestNowIsTheScheduledValue(t *testing.T) {
	sim := NewSim(simStart)
	zone := time.FixedZone("east", 3*3600)
	at := simStart.Add(time.Second).In(zone)
	var seen time.Time
	if err := sim.At(at, func() { seen = sim.Now() }); err != nil {
		t.Fatal(err)
	}
	until := simStart.Add(2 * time.Second).In(zone)
	if err := sim.RunUntil(until); err != nil {
		t.Fatal(err)
	}
	if seen != at {
		t.Errorf("Now inside the event = %v, scheduled %v", seen, at)
	}
	if sim.Now() != until {
		t.Errorf("Now after RunUntil = %v, want %v", sim.Now(), until)
	}
}

// TestNilHandlerUnregisters: a nil handler used to be stored, found by
// Send, and called one propagation delay later.
func TestNilHandlerUnregisters(t *testing.T) {
	sim := NewSim(simStart)
	net := NewNetwork(sim, twoNodeTopo(0.010, 0), 1)
	net.Handle(1, nil)
	if err := net.Send(0, 1, 10, nil); !errors.Is(err, ErrNoHandler) {
		t.Fatalf("send to a nil handler: %v, want ErrNoHandler", err)
	}
	// Unregistering after traffic has flowed is seen by the cached pair; a
	// message already in flight still reaches the handler it was sent to.
	got := 0
	net.Handle(1, func(Message) { got++ })
	if err := net.Send(0, 1, 10, nil); err != nil {
		t.Fatal(err)
	}
	net.Handle(1, nil)
	if err := net.Send(0, 1, 10, nil); !errors.Is(err, ErrNoHandler) {
		t.Fatalf("send after unregistering: %v, want ErrNoHandler", err)
	}
	drain(sim)
	if got != 1 || sim.pq.Len() != 0 {
		t.Errorf("delivered %d, pending %d", got, sim.pq.Len())
	}
}

// TestAnyIntIsANodeID: node state is keyed by the ID, not sized by it.
func TestAnyIntIsANodeID(t *testing.T) {
	const big = int(^uint(0) >> 1) // max int
	for _, pair := range [][2]int{{-7, big}, {big, -7}, {-1, -2}, {big, big - 1}} {
		a, b := pair[0], pair[1]
		sim := NewSim(simStart)
		net := NewNetwork(sim, StaticTopology{
			Latency: map[int]map[int]float64{a: {b: 0.010}, b: {a: 0.010}},
		}, 1)
		if err := net.Send(a, b, 10, nil); !errors.Is(err, ErrNoHandler) {
			t.Errorf("%d -> %d before Handle: %v, want ErrNoHandler", a, b, err)
		}
		var got []Message
		net.Handle(b, func(m Message) { got = append(got, m) })
		if err := net.Send(a, b, 10, nil); err != nil {
			t.Fatalf("%d -> %d: %v", a, b, err)
		}
		drain(sim)
		if len(got) != 1 || got[0].From != a || got[0].To != b {
			t.Errorf("%d -> %d delivered %+v", a, b, got)
		}
		if len(net.nodes) != 2 {
			t.Errorf("%d -> %d: %d node entries", a, b, len(net.nodes))
		}
		visited := 0
		net.InvalidatePairsIf(func(from, to int) bool {
			visited++
			return from == a && to == b
		})
		if visited != 1 {
			t.Errorf("InvalidatePairsIf visited %d pairs, want 1", visited)
		}
	}
}
