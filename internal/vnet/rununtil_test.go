package vnet

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"celestial/internal/netem"
)

// untilEngine adds the driver the scenario runner uses — RunUntil, once a
// tick — to what an order program drives.
type untilEngine interface {
	engine
	RunUntil(time.Time) error
}

// RunUntil on the reference model: fire, in stable (time, sequence) order,
// every event due at or before t, then stand at t.
func (r *refEngine) RunUntil(t time.Time) error {
	if t.Before(r.now) {
		return errors.New("past")
	}
	for {
		due := false
		for _, e := range r.q {
			due = due || !e.at.After(t)
		}
		if !due {
			break
		}
		r.Step()
	}
	r.now = t
	return nil
}

// runUntilProgram interprets prog on e and returns the firing log. Unlike
// runProgram, whose top level only ever drains the engine, this one moves
// time the way a tick loop does: RunUntil to instants on and around a
// half-quantum grid — before the earliest pending event, between two, onto
// one — and then schedules from the instant it stopped at, which is
// earlier than everything still pending. Callbacks, arrivals and deadlines
// share the grid, so most timestamps tie. An op is two bytes, (code, arg);
// a fired event runs the next arg>>6 scheduling ops itself.
func runUntilProgram(e untilEngine, prog []byte) []string {
	var log []string
	start := e.Now()
	pc, nextID := 0, 0
	note := func(what string, id int, err error) {
		if err != nil {
			log = append(log, fmt.Sprintf("%s %d refused", what, id))
		}
	}
	// offset reads a grid point 0–3.5 quanta ahead, a nanosecond early,
	// on time or a nanosecond late.
	offset := func(arg int) time.Duration {
		return time.Duration(arg%8)*(netem.DelayQuantum/2) + time.Duration(arg>>3%3-1)
	}
	var schedule func(n int)
	fired := func(kind string, id, nested int) {
		log = append(log, fmt.Sprintf("%s %d @%d", kind, id, e.Now().Sub(start)))
		schedule(nested)
	}
	nestedOf := map[int]int{}
	e.onDeliver(func(id int) { fired("deliver", id, nestedOf[id]) })
	op := func(code, arg int) {
		id := nextID
		nextID++
		nested := arg >> 6
		switch code {
		case 0:
			note("at", id, e.At(e.Now().Add(offset(arg)), func() { fired("at", id, nested) }))
		case 1:
			note("after", id, e.After(offset(arg), func() { fired("after", id, nested) }))
		case 2:
			nestedOf[id] = nested
			note("send", id, e.send(arg%progNodes, arg>>2%progNodes, id))
		case 3, 4:
			note("until", id, e.RunUntil(e.Now().Add(offset(arg))))
			log = append(log, fmt.Sprintf("stopped @%d", e.Now().Sub(start)))
		case 5:
			for n := arg % 4; n > 0 && e.Step(); n-- {
			}
		}
	}
	schedule = func(n int) {
		for ; n > 0 && pc+1 < len(prog); n-- {
			code, arg := int(prog[pc]), int(prog[pc+1])
			pc += 2
			op(code%3, arg)
		}
	}
	for pc+1 < len(prog) {
		code, arg := int(prog[pc]), int(prog[pc+1])
		pc += 2
		op(code%6, arg)
	}
	for e.Step() {
	}
	return log
}

// runUntilDiff runs prog on the real engine and on the reference model and
// reports the first place their logs differ. A panic of the real engine —
// how a queue pushed below its floor shows — is a difference too.
func runUntilDiff(prog []byte) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine panicked: %v", r)
		}
	}()
	re := newRealEngine(simStart)
	got := runUntilProgram(re, prog)
	want := runUntilProgram(&refEngine{now: simStart}, prog)
	for i := 0; i < len(got) || i < len(want); i++ {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			return fmt.Errorf("line %d of %d/%d differs: sim %q, reference %q",
				i, len(got), len(want), logLine(got, i), logLine(want, i))
		}
	}
	if re.pq.Len() != 0 {
		return fmt.Errorf("%d events pending after the program", re.pq.Len())
	}
	return nil
}

// TestSimRunUntilDifferential is TestSimOrderDifferential for the way the
// engine is really driven. Looking ahead for the next due event must not
// commit the queue to it: RunUntil stops short of a pending event time and
// again, and whatever is then scheduled from there — earlier than anything
// pending — fires first, in the reference model's order.
func TestSimRunUntilDifferential(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		prog := make([]byte, 2*(1+rnd.Intn(400)))
		rnd.Read(prog)
		if err := runUntilDiff(prog); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func FuzzSimRunUntil(f *testing.F) {
	// An event two quanta out, a deadline one quantum out, then an event
	// scheduled from the deadline: the smallest program a committing
	// look-ahead fails.
	f.Add([]byte{0, 12, 3, 10, 0, 9, 3, 15})
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
		if err := runUntilDiff(prog); err != nil {
			t.Fatal(err)
		}
	})
}
