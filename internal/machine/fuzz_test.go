package machine

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// TestRandomOperationSequences drives machines through random operation
// sequences and verifies the lifecycle invariants hold at every step:
// the state is always one of the defined states, Running implies Active,
// memory is held exactly in Booting/Active/Suspended, the boot count
// matches successful Start calls, and the transition log is consistent
// (every transition's From equals the previous To).
func TestRandomOperationSequences(t *testing.T) {
	ops := []func(*Machine, time.Time) error{
		func(m *Machine, at time.Time) error { return m.Start(at) },
		func(m *Machine, at time.Time) error { return m.CompleteBoot(at) },
		func(m *Machine, at time.Time) error { return m.Suspend(at) },
		func(m *Machine, at time.Time) error { return m.Resume(at) },
		func(m *Machine, at time.Time) error { return m.Crash(at, "fuzz") },
		func(m *Machine, at time.Time) error { return m.SetThrottle(0.5) },
	}
	err := quick.Check(func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m, err := New(1, "fuzz", Resources{VCPUs: 1, MemMiB: 64}, time.Second)
		if err != nil {
			return false
		}
		at := now
		starts := 0
		for i := 0; i < int(steps); i++ {
			op := rng.Intn(len(ops))
			before := m.State()
			err := ops[op](m, at)
			after := m.State()
			at = at.Add(time.Second)

			if err != nil && before != after {
				t.Logf("failed op %d changed state %v -> %v", op, before, after)
				return false
			}
			if err == nil && op == 0 {
				starts++
			}
			switch after {
			case Created, Booting, Active, Suspended, Failed:
			default:
				t.Logf("invalid state %v", after)
				return false
			}
			if m.Running() != (after == Active) {
				return false
			}
			wantMem := after == Booting || after == Active || after == Suspended
			if m.HoldsMemory() != wantMem {
				return false
			}
			if m.BootCount() != starts {
				t.Logf("boot count %d != successful starts %d", m.BootCount(), starts)
				return false
			}
		}
		// Transition log is a consistent chain from Created.
		prev := Created
		for _, tr := range m.Transitions() {
			if tr.From != prev {
				t.Logf("transition chain broken: %v -> %v after %v", tr.From, tr.To, prev)
				return false
			}
			prev = tr.To
		}
		return prev == m.State()
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}
