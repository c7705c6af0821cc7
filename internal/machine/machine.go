// Package machine is the testbed's stand-in for Firecracker microVMs: each
// satellite server and ground station is one Machine with a resource
// allocation (vCPUs, memory, disk), a boot phase, suspend/resume driven by
// the bounding box, and fault injection ("users can change machine
// parameters at runtime and even terminate and reboot machines to model
// faults, e.g., caused by radiation", §3.1 of the paper).
//
// The lifecycle mirrors Firecracker's observable behavior:
//
//	Created ─Start→ Booting ─CompleteBoot→ Active ⇄ Suspended
//	   (any running state) ─Crash→ Failed ─Start→ Booting
//
// Like Firecracker microVMs, a suspended machine keeps its memory
// reservation on the host: "each keeps a virtio memory device that blocks
// a fixed portion of the host's memory for the VM" (§4.2); hosts account
// for this in their memory usage traces.
package machine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// State is the lifecycle state of a machine.
type State int

const (
	// Created: defined, never started.
	Created State = iota
	// Booting: started, kernel not yet up.
	Booting
	// Active: serving.
	Active
	// Suspended: paused by the bounding box; memory stays reserved.
	Suspended
	// Failed: crashed (e.g. radiation-induced); restartable.
	Failed
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Created:
		return "created"
	case Booting:
		return "booting"
	case Active:
		return "active"
	case Suspended:
		return "suspended"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Resources is a machine's allocation.
type Resources struct {
	VCPUs   int
	MemMiB  int
	DiskMiB int
}

// Transition records one lifecycle change for inspection and debugging.
type Transition struct {
	At       time.Time
	From, To State
	Reason   string
}

// Machine is one emulated microVM. All methods are safe for concurrent
// use.
type Machine struct {
	id   int
	name string
	res  Resources
	// bootDelay is how long Booting lasts; the host schedules
	// CompleteBoot accordingly.
	bootDelay time.Duration

	mu          sync.Mutex
	state       State
	throttle    float64 // fraction of allocated CPU available, (0, 1]
	transitions []Transition
	bootCount   int

	// running mirrors state == Active. It is written under mu, with state,
	// and read without it: the virtual network asks twice per message.
	running atomic.Bool

	// onFail, when set, hears of every transition into Failed (see
	// NotifyFailed).
	onFail func(id int)
}

// New creates a machine in the Created state.
func New(id int, name string, res Resources, bootDelay time.Duration) (*Machine, error) {
	if res.VCPUs <= 0 {
		return nil, fmt.Errorf("machine %q: vcpus must be positive, have %d", name, res.VCPUs)
	}
	if res.MemMiB <= 0 {
		return nil, fmt.Errorf("machine %q: memory must be positive, have %d MiB", name, res.MemMiB)
	}
	if bootDelay < 0 {
		return nil, fmt.Errorf("machine %q: negative boot delay %v", name, bootDelay)
	}
	return &Machine{
		id: id, name: name, res: res, bootDelay: bootDelay,
		state: Created, throttle: 1,
	}, nil
}

// ID returns the machine's node ID.
func (m *Machine) ID() int { return m.id }

// Resources returns the machine's allocation.
func (m *Machine) Resources() Resources { return m.res }

// BootDelay returns how long the machine takes to boot.
func (m *Machine) BootDelay() time.Duration { return m.bootDelay }

// State returns the current lifecycle state.
func (m *Machine) State() State {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state
}

// BootCount returns how many times the machine has entered Booting.
func (m *Machine) BootCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bootCount
}

// Transitions returns a copy of the transition log.
func (m *Machine) Transitions() []Transition {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Transition, len(m.transitions))
	copy(out, m.transitions)
	return out
}

// transitionError describes an illegal lifecycle transition.
func transitionError(m *Machine, op string) error {
	return fmt.Errorf("machine %q: cannot %s from state %v", m.name, op, m.state)
}

func (m *Machine) record(at time.Time, to State, reason string) {
	m.transitions = append(m.transitions, Transition{At: at, From: m.state, To: to, Reason: reason})
	m.state = to
	m.running.Store(to == Active)
}

// Start begins booting a Created or Failed machine.
func (m *Machine) Start(now time.Time) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch m.state {
	case Created, Failed:
		m.record(now, Booting, "start")
		m.bootCount++
		return nil
	default:
		return transitionError(m, "start")
	}
}

// CompleteBoot moves a Booting machine to Active. The host calls this
// bootDelay after Start.
func (m *Machine) CompleteBoot(now time.Time) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.state != Booting {
		return transitionError(m, "complete boot")
	}
	m.record(now, Active, "boot complete")
	return nil
}

// Suspend pauses an Active machine (bounding-box exit). Its memory stays
// reserved on the host.
func (m *Machine) Suspend(now time.Time) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.state != Active {
		return transitionError(m, "suspend")
	}
	m.record(now, Suspended, "bounding box exit")
	return nil
}

// Resume reactivates a Suspended machine (bounding-box entry). Resuming is
// fast — no boot phase — matching Firecracker's suspend/resume support.
func (m *Machine) Resume(now time.Time) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.state != Suspended {
		return transitionError(m, "resume")
	}
	m.record(now, Active, "bounding box entry")
	return nil
}

// Crash fails a running (Booting, Active or Suspended) machine, e.g. for a
// radiation-induced single event upset.
func (m *Machine) Crash(now time.Time, reason string) error {
	m.mu.Lock()
	switch m.state {
	case Booting, Active, Suspended:
		m.record(now, Failed, reason)
		notify := m.onFail
		m.mu.Unlock()
		if notify != nil {
			notify(m.id)
		}
		return nil
	default:
		err := transitionError(m, "crash")
		m.mu.Unlock()
		return err
	}
}

// NotifyFailed has fn called with the machine's ID after every transition
// into Failed, once the machine's lock is released (fn may read the
// machine). Crash is the only way into that state, so a set fed by fn
// misses no crash, whoever caused it.
func (m *Machine) NotifyFailed(fn func(id int)) {
	m.mu.Lock()
	m.onFail = fn
	m.mu.Unlock()
}

// Throttle returns the fraction of the allocated CPU currently available.
func (m *Machine) Throttle() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.throttle
}

// SetThrottle changes the CPU fraction available to the machine, modeling
// the cgroup cpu controls Celestial uses "to gain more finely grained
// control over the CPU cycles a server process is allowed to use" (§3.1),
// including temporary performance degradation after radiation events.
func (m *Machine) SetThrottle(f float64) error {
	if f <= 0 || f > 1 {
		return fmt.Errorf("machine %q: throttle %v outside (0, 1]", m.name, f)
	}
	m.mu.Lock()
	m.throttle = f
	m.mu.Unlock()
	return nil
}

// Running reports whether the machine can currently serve requests, that
// is whether it is Active, without taking the machine's lock.
func (m *Machine) Running() bool { return m.running.Load() }

// HoldsMemory reports whether the machine's memory is reserved on its
// host. Booted machines keep their reservation through suspension; only
// never-booted and failed machines release it.
func (m *Machine) HoldsMemory() bool {
	switch m.State() {
	case Booting, Active, Suspended:
		return true
	default:
		return false
	}
}
