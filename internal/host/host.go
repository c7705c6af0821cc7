// Package host implements Celestial's Machine Manager: the per-host agent
// that runs one microVM per assigned satellite server or ground station,
// applies the coordinator's topology updates (suspending and resuming
// machines as they cross the bounding box), and tracks host CPU and memory
// usage the way Figs. 7 and 8 of the paper report them.
//
// The resource usage model reproduces the phenomenology the paper
// describes for a Celestial host: a manager CPU spike while the host and
// network environment are set up, a larger spike while Firecracker
// microVMs boot, a small recurring manager cost at every constellation
// update (≈0.2 % average), workload CPU proportional to the active
// machines' demands, manager memory of a few percent, and microVM memory
// that grows linearly with the number of booted machines and is not
// released on suspension.
package host

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"celestial/internal/machine"
	"celestial/internal/retry"
)

// Scheduler schedules callbacks at absolute times (satisfied by vnet.Sim).
type Scheduler interface {
	At(t time.Time, fn func()) error
	Now() time.Time
}

// Capacity is the host hardware, e.g. a GCP N2-highcpu-32 instance
// (32 cores, 32 GB) as used in §4.1.
type Capacity struct {
	Cores  int
	MemMiB int
}

// Model parameters for the usage traces. The defaults are calibrated
// against Figs. 7 and 8.
const (
	// setupDuration is how long the manager's initial host/network
	// setup takes.
	setupDuration = 5 * time.Second
	// setupCPUFraction is the manager CPU during setup (fraction of
	// total host CPU).
	setupCPUFraction = 0.25
	// managerIdleCPUFraction is the steady manager CPU (§4.2: "an
	// average of 0.2%").
	managerIdleCPUFraction = 0.002
	// updateSpikeCPUFraction is the extra manager CPU right after a
	// constellation update ("a slightly higher load every two seconds
	// as the constellation is updated").
	updateSpikeCPUFraction = 0.02
	// updateSpikeWindow is how long the update spike lasts.
	updateSpikeWindow = 300 * time.Millisecond
	// bootCPUCores is the CPU cost of one booting microVM in cores.
	bootCPUCores = 0.5
	// managerMemFractionSetup is the manager's memory during startup
	// (§4.2: "up to 4.5% of the host's available memory ... that
	// number decreases after the demanding initial setup").
	managerMemFractionSetup  = 0.045
	managerMemFractionSteady = 0.03
	// idleMachineLoad is the CPU demand of an idle booted machine as a
	// fraction of its allocation.
	idleMachineLoad = 0.01
	// machineMemUsage is the resident fraction of a microVM's memory
	// allocation. Fig. 8 plots measured host memory, which stays far
	// below the sum of allocations because guests only touch part of
	// their virtio memory device.
	machineMemUsage = 0.15
)

// UsagePoint is one sample of the host resource trace.
type UsagePoint struct {
	// T is the sample time.
	T time.Time
	// ManagerCPU and MachineCPU are fractions of total host CPU
	// [0, 1] attributable to the machine manager and to microVMs.
	ManagerCPU float64
	MachineCPU float64
	// ManagerMem and MachineMem are fractions of total host memory.
	ManagerMem float64
	MachineMem float64
	// Machines is the number of existing microVM processes (booted
	// and not stopped — suspended microVMs keep their process, §4.2).
	Machines int
}

// TotalCPU returns the combined CPU fraction.
func (u UsagePoint) TotalCPU() float64 { return u.ManagerCPU + u.MachineCPU }

// TotalMem returns the combined memory fraction.
func (u UsagePoint) TotalMem() float64 { return u.ManagerMem + u.MachineMem }

// Host is one emulated Celestial host.
type Host struct {
	id    int
	cap   Capacity
	sched Scheduler

	mu       sync.Mutex
	started  time.Time
	machines map[int]*machine.Machine
	// byID is machines sorted by node ID, built on demand and dropped by
	// AddMachine. It is never modified in place, so a sweep may keep
	// iterating one it obtained under mu after releasing the lock.
	byID       []*machine.Machine
	loads      map[int]float64 // workload CPU demand, fraction of allocation
	lastUpdate time.Time
	trace      []UsagePoint

	// ops is the retry middleware around machine lifecycle operations,
	// with its fault injection; Do and the setters are only used from the
	// apply path (the simulation goroutine).
	ops *retry.Guard
}

// New creates a host. The current scheduler time marks the start of the
// manager's setup phase.
func New(id int, cap Capacity, sched Scheduler) (*Host, error) {
	if cap.Cores <= 0 || cap.MemMiB <= 0 {
		return nil, fmt.Errorf("host %d: capacity must be positive, have %+v", id, cap)
	}
	return &Host{
		id: id, cap: cap, sched: sched,
		started:  sched.Now(),
		machines: map[int]*machine.Machine{},
		loads:    map[int]float64{},
		ops:      retry.NewGuard("injected apply fault"),
	}, nil
}

// ID returns the host's index.
func (h *Host) ID() int { return h.id }

// AddMachine assigns a machine to this host. Over-provisioning is allowed
// — collocating more allocated vCPUs than physical cores is exactly the
// cost-efficiency mechanism of §3.3 — so no capacity check is made.
func (h *Host) AddMachine(m *machine.Machine) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.machines[m.ID()]; ok {
		return fmt.Errorf("host %d: machine %d already assigned", h.id, m.ID())
	}
	h.machines[m.ID()] = m
	h.byID = nil
	h.loads[m.ID()] = idleMachineLoad
	return nil
}

// Machines returns the assigned machines sorted by node ID, in a slice the
// caller may keep and modify.
func (h *Host) Machines() []*machine.Machine {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]*machine.Machine(nil), h.sortedLocked()...)
}

// sortedLocked returns the shared ID-sorted machine list, which callers
// must not modify. h.mu must be held.
func (h *Host) sortedLocked() []*machine.Machine {
	if h.byID == nil && len(h.machines) > 0 {
		h.byID = make([]*machine.Machine, 0, len(h.machines))
		for _, m := range h.machines {
			h.byID = append(h.byID, m)
		}
		sort.Slice(h.byID, func(i, j int) bool { return h.byID[i].ID() < h.byID[j].ID() })
	}
	return h.byID
}

// LifecycleOps returns the retry middleware every machine lifecycle
// operation (start, suspend, resume) runs through — where a caller sets the
// retry policy, injects seeded transient faults and reads the retry
// counters. Its setters must not be called concurrently with ApplyActivity
// or StartMachine.
func (h *Host) LifecycleOps() *retry.Guard { return h.ops }

// StartMachine boots one machine, scheduling its boot completion after the
// machine's boot delay. The start transition runs through the retry
// middleware (see LifecycleOps).
func (h *Host) StartMachine(id int) error {
	h.mu.Lock()
	m, ok := h.machines[id]
	h.mu.Unlock()
	if !ok {
		return fmt.Errorf("host %d: no machine %d", h.id, id)
	}
	now := h.sched.Now()
	if err := h.ops.Do(func() error { return m.Start(now) }); err != nil {
		return err
	}
	return h.sched.At(now.Add(m.BootDelay()), func() {
		// The machine may have crashed or been stopped mid-boot.
		_ = m.CompleteBoot(h.sched.Now())
	})
}

// SetLoad sets the workload CPU demand of a machine as a fraction of its
// allocation in [0, 1]. Applications use this to model their compute
// demand (e.g. the §4 clients run "a demanding workload").
func (h *Host) SetLoad(id int, fraction float64) error {
	if fraction < 0 || fraction > 1 {
		return fmt.Errorf("host %d: load %v outside [0, 1]", h.id, fraction)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.machines[id]; !ok {
		return fmt.Errorf("host %d: no machine %d", h.id, id)
	}
	h.loads[id] = fraction
	return nil
}

// ApplyActivity applies a constellation update: machines whose node is
// inactive (outside the bounding box) are suspended, active ones resumed,
// and machines that have never run are booted the first time their node
// becomes active — like Celestial, which only creates Firecracker
// processes for satellites inside the bounding box (their memory is then
// kept even when they later move out, §4.2). It also records the update
// time for the manager CPU trace.
//
// The sweep visits machines in node-ID order and does not stop at the
// first failure: one stuck machine must not leave the rest of the host's
// fleet on a stale activity state. Each transition runs through the retry
// middleware (see LifecycleOps); errors that survive it are aggregated
// with errors.Join, each naming its machine.
func (h *Host) ApplyActivity(active func(id int) bool) error {
	now := h.sched.Now()
	h.mu.Lock()
	h.lastUpdate = now
	machines := h.sortedLocked()
	h.mu.Unlock()

	var errs []error
	for _, m := range machines {
		want := active(m.ID())
		var err error
		switch m.State() {
		case machine.Created:
			if want {
				err = h.StartMachine(m.ID())
			}
		case machine.Active:
			if !want {
				err = h.ops.Do(func() error { return m.Suspend(now) })
			}
		case machine.Suspended:
			if want {
				err = h.ops.Do(func() error { return m.Resume(now) })
			}
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("host %d: machine %d: %w", h.id, m.ID(), err))
		}
	}
	return errors.Join(errs...)
}

// NoteUpdate records that a constellation update reprogrammed this host's
// network links without changing any machine's activity, so the manager
// CPU trace still shows the per-update spike. The coordinator calls it on
// delta-only ticks, where the O(machines) activity sweep of ApplyActivity
// is skipped; a tick whose diff is entirely empty distributes nothing and
// causes no spike.
func (h *Host) NoteUpdate() {
	now := h.sched.Now()
	h.mu.Lock()
	h.lastUpdate = now
	h.mu.Unlock()
}

// Sample measures the host's resource usage now and appends it to the
// trace.
func (h *Host) Sample() UsagePoint {
	now := h.sched.Now()
	h.mu.Lock()
	defer h.mu.Unlock()

	p := UsagePoint{T: now}

	// Manager CPU: setup phase, then idle + update spikes.
	if now.Sub(h.started) < setupDuration {
		p.ManagerCPU = setupCPUFraction
	} else {
		p.ManagerCPU = managerIdleCPUFraction
		if !h.lastUpdate.IsZero() && now.Sub(h.lastUpdate) < updateSpikeWindow {
			p.ManagerCPU += updateSpikeCPUFraction
		}
	}

	// Manager memory: higher during setup.
	if now.Sub(h.started) < setupDuration {
		p.ManagerMem = managerMemFractionSetup
	} else {
		p.ManagerMem = managerMemFractionSteady
	}

	// Machine CPU and memory, summed in node-ID order: float addition is
	// not associative, and the map's order changes from run to run.
	totalCores := float64(h.cap.Cores)
	totalMem := float64(h.cap.MemMiB)
	for _, m := range h.sortedLocked() {
		switch m.State() {
		case machine.Booting:
			p.MachineCPU += bootCPUCores / totalCores
			p.Machines++
		case machine.Active:
			demand := h.loads[m.ID()] * float64(m.Resources().VCPUs) * m.Throttle()
			p.MachineCPU += demand / totalCores
			p.Machines++
		case machine.Suspended:
			// Suspended machines use no CPU but keep their
			// process and memory.
			p.Machines++
		}
		if m.HoldsMemory() {
			p.MachineMem += machineMemUsage * float64(m.Resources().MemMiB) / totalMem
		}
	}
	// Physical saturation: a host cannot exceed its cores.
	if p.MachineCPU+p.ManagerCPU > 1 {
		p.MachineCPU = 1 - p.ManagerCPU
	}
	h.trace = append(h.trace, p)
	return p
}

// Trace returns a copy of the usage samples collected so far.
func (h *Host) Trace() []UsagePoint {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]UsagePoint, len(h.trace))
	copy(out, h.trace)
	return out
}
