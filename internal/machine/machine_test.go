package machine

import (
	"strings"
	"sync"
	"testing"
	"time"
)

var now = time.Date(2022, 4, 14, 12, 0, 0, 0, time.UTC)

func newMachine(t *testing.T) *Machine {
	t.Helper()
	m, err := New(1, "0.0", Resources{VCPUs: 2, MemMiB: 512}, 800*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, "m", Resources{VCPUs: 0, MemMiB: 512}, 0); err == nil {
		t.Error("accepted zero vcpus")
	}
	if _, err := New(0, "m", Resources{VCPUs: 1, MemMiB: 0}, 0); err == nil {
		t.Error("accepted zero memory")
	}
	if _, err := New(0, "m", Resources{VCPUs: 1, MemMiB: 1}, -time.Second); err == nil {
		t.Error("accepted negative boot delay")
	}
}

func TestLifecycleHappyPath(t *testing.T) {
	m := newMachine(t)
	if m.State() != Created {
		t.Fatalf("initial state = %v", m.State())
	}
	if err := m.Start(now); err != nil {
		t.Fatal(err)
	}
	if m.State() != Booting {
		t.Fatalf("state = %v", m.State())
	}
	if m.Running() {
		t.Error("booting machine reported running")
	}
	if err := m.CompleteBoot(now.Add(m.BootDelay())); err != nil {
		t.Fatal(err)
	}
	if !m.Running() {
		t.Error("active machine not running")
	}
	if err := m.Suspend(now.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if m.State() != Suspended || m.Running() {
		t.Errorf("state = %v", m.State())
	}
	if !m.HoldsMemory() {
		t.Error("suspended machine released memory")
	}
	if err := m.Resume(now.Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if m.State() != Active {
		t.Errorf("state = %v", m.State())
	}
	if err := m.Crash(now.Add(3*time.Second), "seu"); err != nil {
		t.Fatal(err)
	}
	if m.State() != Failed || m.HoldsMemory() {
		t.Errorf("state = %v", m.State())
	}
	if m.BootCount() != 1 {
		t.Errorf("boot count = %d", m.BootCount())
	}
}

func TestIllegalTransitions(t *testing.T) {
	m := newMachine(t)
	if err := m.CompleteBoot(now); err == nil {
		t.Error("completed boot from Created")
	}
	if err := m.Suspend(now); err == nil {
		t.Error("suspended from Created")
	}
	if err := m.Resume(now); err == nil {
		t.Error("resumed from Created")
	}
	if err := m.Crash(now, "x"); err == nil {
		t.Error("crashed from Created")
	}
	if err := m.Start(now); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(now); err == nil {
		t.Error("double start")
	}
	if err := m.CompleteBoot(now); err != nil {
		t.Fatal(err)
	}
	if err := m.Resume(now); err == nil {
		t.Error("resumed active machine")
	}
	if err := m.Crash(now, "x"); err != nil {
		t.Fatal(err)
	}
	if err := m.Crash(now, "x"); err == nil {
		t.Error("double crash")
	}
	if err := m.Suspend(now); err == nil {
		t.Error("suspended failed machine")
	}
	// Error text names the machine and state.
	err := m.Suspend(now)
	if err == nil || !strings.Contains(err.Error(), "0.0") || !strings.Contains(err.Error(), "failed") {
		t.Errorf("error = %v", err)
	}
}

func TestCrashAndRecover(t *testing.T) {
	m := newMachine(t)
	if err := m.Start(now); err != nil {
		t.Fatal(err)
	}
	if err := m.CompleteBoot(now); err != nil {
		t.Fatal(err)
	}
	if err := m.Crash(now.Add(time.Minute), "radiation SEU"); err != nil {
		t.Fatal(err)
	}
	if m.State() != Failed || m.HoldsMemory() {
		t.Errorf("state = %v", m.State())
	}
	// Failed machines can be restarted (reboot after SEU).
	if err := m.Start(now.Add(2 * time.Minute)); err != nil {
		t.Fatal(err)
	}
	if m.State() != Booting {
		t.Errorf("state = %v", m.State())
	}
	if m.BootCount() != 2 {
		t.Errorf("boot count = %d", m.BootCount())
	}
	// The transition log records the crash reason.
	var found bool
	for _, tr := range m.Transitions() {
		if tr.To == Failed && tr.Reason == "radiation SEU" {
			found = true
		}
	}
	if !found {
		t.Error("crash reason not recorded")
	}
}

func TestCrashWhileSuspended(t *testing.T) {
	m := newMachine(t)
	if err := m.Start(now); err != nil {
		t.Fatal(err)
	}
	if err := m.CompleteBoot(now); err != nil {
		t.Fatal(err)
	}
	if err := m.Suspend(now); err != nil {
		t.Fatal(err)
	}
	if err := m.Crash(now, "cosmic ray"); err != nil {
		t.Errorf("crash while suspended: %v", err)
	}
}

func TestThrottle(t *testing.T) {
	m := newMachine(t)
	if m.Throttle() != 1 {
		t.Errorf("initial throttle = %v", m.Throttle())
	}
	if err := m.SetThrottle(0.25); err != nil {
		t.Fatal(err)
	}
	if m.Throttle() != 0.25 {
		t.Errorf("throttle = %v", m.Throttle())
	}
	for _, bad := range []float64{0, -1, 1.5} {
		if err := m.SetThrottle(bad); err == nil {
			t.Errorf("accepted throttle %v", bad)
		}
	}
}

func TestStateString(t *testing.T) {
	wants := map[State]string{
		Created: "created", Booting: "booting", Active: "active",
		Suspended: "suspended", Failed: "failed",
		State(99): "state(99)",
	}
	for s, w := range wants {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), w)
		}
	}
}

func TestTransitionsCopied(t *testing.T) {
	m := newMachine(t)
	if err := m.Start(now); err != nil {
		t.Fatal(err)
	}
	tr := m.Transitions()
	if len(tr) != 1 || tr[0].From != Created || tr[0].To != Booting {
		t.Fatalf("transitions = %+v", tr)
	}
	tr[0].Reason = "mutated"
	if m.Transitions()[0].Reason == "mutated" {
		t.Error("Transitions exposed internal slice")
	}
}

func TestConcurrentAccess(t *testing.T) {
	m := newMachine(t)
	if err := m.Start(now); err != nil {
		t.Fatal(err)
	}
	if err := m.CompleteBoot(now); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				_ = m.State()
				_ = m.Running()
				_ = m.Suspend(now)
				_ = m.Resume(now)
			}
		}()
	}
	wg.Wait()
	// After an even number of suspend/resume pairs in each goroutine,
	// the machine must be in a consistent state.
	if s := m.State(); s != Active && s != Suspended {
		t.Errorf("final state = %v", s)
	}
}
