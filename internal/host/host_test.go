package host

import (
	"slices"
	"strings"
	"testing"
	"time"

	"celestial/internal/machine"
	"celestial/internal/retry"
	"celestial/internal/vnet"
)

var hostStart = time.Date(2022, 4, 14, 12, 0, 0, 0, time.UTC)

func newHost(t *testing.T, sim *vnet.Sim) *Host {
	t.Helper()
	h, err := New(0, Capacity{Cores: 32, MemMiB: 32 * 1024}, sim)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func addMachine(t *testing.T, h *Host, id int, vcpus, mem int, boot time.Duration) *machine.Machine {
	t.Helper()
	m, err := machine.New(id, "m", machine.Resources{VCPUs: vcpus, MemMiB: mem}, boot)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.AddMachine(m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	sim := vnet.NewSim(hostStart)
	if _, err := New(0, Capacity{}, sim); err == nil {
		t.Error("accepted zero capacity")
	}
}

func TestAddAndStartMachines(t *testing.T) {
	sim := vnet.NewSim(hostStart)
	h := newHost(t, sim)
	m := addMachine(t, h, 7, 2, 512, 800*time.Millisecond)
	if err := h.AddMachine(m); err == nil {
		t.Error("accepted duplicate machine")
	}
	if err := h.StartMachine(7); err != nil {
		t.Fatal(err)
	}
	if m.State() != machine.Booting {
		t.Fatalf("state = %v", m.State())
	}
	// Boot completes after the boot delay via the scheduler.
	if err := sim.RunUntil(hostStart.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if m.State() != machine.Active {
		t.Fatalf("state after boot = %v", m.State())
	}
	if err := h.StartMachine(99); err == nil {
		t.Error("started unknown machine")
	}
}

// startAll boots every assigned machine in ID order.
func startAll(t *testing.T, h *Host) {
	t.Helper()
	for _, m := range h.Machines() {
		if err := h.StartMachine(m.ID()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStartAllAndOrdering(t *testing.T) {
	sim := vnet.NewSim(hostStart)
	h := newHost(t, sim)
	for _, id := range []int{5, 1, 3} {
		addMachine(t, h, id, 1, 128, 0)
	}
	startAll(t, h)
	ms := h.Machines()
	if len(ms) != 3 || ms[0].ID() != 1 || ms[1].ID() != 3 || ms[2].ID() != 5 {
		t.Errorf("machines = %v", ms)
	}
	if err := sim.RunUntil(hostStart.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	for _, m := range h.Machines() {
		if m.State() != machine.Active {
			t.Errorf("machine %d state = %v", m.ID(), m.State())
		}
	}
}

// TestMachineOrderSurvivesLateAddsAndCallerEdits covers the cached ID
// order the sweep iterates: a machine assigned after a sweep is visited, in
// order, by the next one, and a caller reordering the slice Machines
// returned changes neither later results nor the sweep order.
func TestMachineOrderSurvivesLateAddsAndCallerEdits(t *testing.T) {
	sim := vnet.NewSim(hostStart)
	h := newHost(t, sim)
	for _, id := range []int{9, 2} {
		addMachine(t, h, id, 1, 128, 0)
	}
	sweep := func() []int {
		var visited []int
		if err := h.ApplyActivity(func(id int) bool { visited = append(visited, id); return false }); err != nil {
			t.Fatal(err)
		}
		return visited
	}
	if got := sweep(); !slices.Equal(got, []int{2, 9}) {
		t.Fatalf("sweep order = %v", got)
	}
	ms := h.Machines()
	ms[0], ms[1] = ms[1], ms[0]
	addMachine(t, h, 4, 1, 128, 0)
	if got := sweep(); !slices.Equal(got, []int{2, 4, 9}) {
		t.Fatalf("sweep order after a late add = %v", got)
	}
	ms = h.Machines()
	if len(ms) != 3 || ms[0].ID() != 2 || ms[1].ID() != 4 || ms[2].ID() != 9 {
		t.Fatalf("machines = %v", ms)
	}
}

func TestApplyActivitySuspendsAndResumes(t *testing.T) {
	sim := vnet.NewSim(hostStart)
	h := newHost(t, sim)
	m1 := addMachine(t, h, 1, 1, 128, 0)
	m2 := addMachine(t, h, 2, 1, 128, 0)
	startAll(t, h)
	if err := sim.RunUntil(hostStart.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	// Node 2 leaves the bounding box.
	if err := h.ApplyActivity(func(id int) bool { return id != 2 }); err != nil {
		t.Fatal(err)
	}
	if m1.State() != machine.Active || m2.State() != machine.Suspended {
		t.Errorf("states = %v, %v", m1.State(), m2.State())
	}
	// Node 2 re-enters.
	if err := h.ApplyActivity(func(id int) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if m2.State() != machine.Active {
		t.Errorf("state = %v", m2.State())
	}
}

func TestApplyActivitySkipsNonRunnable(t *testing.T) {
	sim := vnet.NewSim(hostStart)
	h := newHost(t, sim)
	m := addMachine(t, h, 1, 1, 128, 0)
	// Machine never started: activity application must not touch it.
	if err := h.ApplyActivity(func(int) bool { return false }); err != nil {
		t.Fatal(err)
	}
	if m.State() != machine.Created {
		t.Errorf("state = %v", m.State())
	}
}

func TestUsageTraceShape(t *testing.T) {
	sim := vnet.NewSim(hostStart)
	h := newHost(t, sim)
	// A host like the paper's busiest: clients plus satellite servers.
	for i := 0; i < 4; i++ {
		addMachine(t, h, i, 4, 4096, 800*time.Millisecond)
	}
	for i := 4; i < 30; i++ {
		addMachine(t, h, i, 2, 512, 800*time.Millisecond)
	}

	// Sample during setup: manager CPU spike.
	setup := h.Sample()
	if setup.ManagerCPU != setupCPUFraction {
		t.Errorf("setup manager cpu = %v", setup.ManagerCPU)
	}
	if setup.ManagerMem != managerMemFractionSetup {
		t.Errorf("setup manager mem = %v", setup.ManagerMem)
	}
	if setup.Machines != 0 || setup.MachineMem != 0 {
		t.Errorf("setup machines = %+v", setup)
	}

	// Boot all machines at +6s (after setup) and sample mid-boot: boot
	// spike, every machine holds memory.
	if err := sim.RunUntil(hostStart.Add(6 * time.Second)); err != nil {
		t.Fatal(err)
	}
	startAll(t, h)
	boot := h.Sample()
	if boot.Machines != 30 {
		t.Errorf("booting machines = %d", boot.Machines)
	}
	wantBootCPU := 30 * bootCPUCores / 32
	if boot.MachineCPU < wantBootCPU*0.99 || boot.MachineCPU > wantBootCPU*1.01 {
		t.Errorf("boot cpu = %v, want ≈%v", boot.MachineCPU, wantBootCPU)
	}
	wantMem := machineMemUsage * float64(4*4096+26*512) / float64(32*1024)
	if boot.MachineMem < wantMem*0.99 || boot.MachineMem > wantMem*1.01 {
		t.Errorf("boot mem = %v, want %v", boot.MachineMem, wantMem)
	}

	// After boot, idle: low steady CPU (paper: ~10% with demanding
	// clients; idle machines far below).
	if err := sim.RunUntil(hostStart.Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	idle := h.Sample()
	if idle.MachineCPU > 0.05 {
		t.Errorf("idle machine cpu = %v", idle.MachineCPU)
	}
	if idle.ManagerCPU != managerIdleCPUFraction {
		t.Errorf("idle manager cpu = %v", idle.ManagerCPU)
	}
	// Memory unchanged after boot (suspension does not release it).
	// Map iteration order varies the float summation order, so compare
	// with an epsilon.
	if diff := idle.MachineMem - boot.MachineMem; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("idle mem = %v, want %v", idle.MachineMem, boot.MachineMem)
	}

	// Demanding clients raise CPU.
	for i := 0; i < 4; i++ {
		if err := h.SetLoad(i, 0.8); err != nil {
			t.Fatal(err)
		}
	}
	busy := h.Sample()
	if busy.MachineCPU <= idle.MachineCPU {
		t.Error("load increase not reflected")
	}
	// 4 clients * 0.8 * 4 cores = 12.8 cores of 32 = 40% plus idle sats.
	if busy.MachineCPU < 0.38 || busy.MachineCPU > 0.45 {
		t.Errorf("busy cpu = %v", busy.MachineCPU)
	}

	// Update spike visible right after an update.
	if err := h.ApplyActivity(func(int) bool { return true }); err != nil {
		t.Fatal(err)
	}
	spike := h.Sample()
	if spike.ManagerCPU != managerIdleCPUFraction+updateSpikeCPUFraction {
		t.Errorf("update spike cpu = %v", spike.ManagerCPU)
	}
	// Spike decays after the window.
	if err := sim.RunUntil(sim.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	after := h.Sample()
	if after.ManagerCPU != managerIdleCPUFraction {
		t.Errorf("post-spike cpu = %v", after.ManagerCPU)
	}
	if len(h.Trace()) != 6 {
		t.Errorf("trace samples = %d", len(h.Trace()))
	}
}

func TestSuspendedMachinesKeepMemoryNotCPU(t *testing.T) {
	sim := vnet.NewSim(hostStart)
	h := newHost(t, sim)
	addMachine(t, h, 1, 2, 1024, 0)
	startAll(t, h)
	if err := sim.RunUntil(hostStart.Add(6 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := h.SetLoad(1, 1); err != nil {
		t.Fatal(err)
	}
	active := h.Sample()
	if err := h.ApplyActivity(func(int) bool { return false }); err != nil {
		t.Fatal(err)
	}
	suspended := h.Sample()
	if suspended.MachineCPU >= active.MachineCPU {
		t.Error("suspension did not reduce CPU")
	}
	if suspended.MachineCPU != 0 {
		t.Errorf("suspended cpu = %v", suspended.MachineCPU)
	}
	if diff := suspended.MachineMem - active.MachineMem; diff > 1e-12 || diff < -1e-12 {
		t.Error("suspension released memory")
	}
	if suspended.Machines != 1 {
		t.Errorf("suspended process count = %d", suspended.Machines)
	}
}

func TestCPUSaturation(t *testing.T) {
	sim := vnet.NewSim(hostStart)
	h, err := New(0, Capacity{Cores: 2, MemMiB: 1024}, sim)
	if err != nil {
		t.Fatal(err)
	}
	// 8 machines × 2 vCPUs at full load on a 2-core host.
	for i := 0; i < 8; i++ {
		addMachine(t, h, i, 2, 64, 0)
	}
	startAll(t, h)
	if err := sim.RunUntil(hostStart.Add(6 * time.Second)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := h.SetLoad(i, 1); err != nil {
			t.Fatal(err)
		}
	}
	p := h.Sample()
	if p.TotalCPU() > 1.0000001 {
		t.Errorf("total cpu = %v exceeds physical capacity", p.TotalCPU())
	}
}

// TestSampleSumsInIDOrder pins the Fig. 7/8 trace to one summation
// order: float addition is not associative, so summing machines in map
// order changed the last printed digit of machine CPU between runs.
func TestSampleSumsInIDOrder(t *testing.T) {
	sim := vnet.NewSim(hostStart)
	h := newHost(t, sim)
	const n = 96
	for i := 0; i < n; i++ {
		addMachine(t, h, 1000-7*i, 1+i%5, 128+96*(i%7), 0)
	}
	startAll(t, h)
	if err := sim.RunUntil(hostStart.Add(6 * time.Second)); err != nil {
		t.Fatal(err)
	}
	for i, m := range h.Machines() {
		if err := h.SetLoad(m.ID(), float64(1+i%11)/53); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.ApplyActivity(func(id int) bool { return id%3 != 0 }); err != nil {
		t.Fatal(err)
	}

	var cpu, mem float64
	for _, m := range h.Machines() {
		if m.State() == machine.Active {
			cpu += h.loads[m.ID()] * float64(m.Resources().VCPUs) * m.Throttle() / float64(h.cap.Cores)
		}
		if m.HoldsMemory() {
			mem += machineMemUsage * float64(m.Resources().MemMiB) / float64(h.cap.MemMiB)
		}
	}
	for i := 0; i < 50; i++ {
		p := h.Sample()
		if p.MachineCPU != cpu || p.MachineMem != mem {
			t.Fatalf("sample %d: cpu %v mem %v, want the ID-order sums %v and %v",
				i, p.MachineCPU, p.MachineMem, cpu, mem)
		}
	}
}

func TestSetLoadValidation(t *testing.T) {
	sim := vnet.NewSim(hostStart)
	h := newHost(t, sim)
	addMachine(t, h, 1, 1, 128, 0)
	if err := h.SetLoad(1, 1.5); err == nil {
		t.Error("accepted load > 1")
	}
	if err := h.SetLoad(1, -0.1); err == nil {
		t.Error("accepted negative load")
	}
	if err := h.SetLoad(9, 0.5); err == nil {
		t.Error("accepted unknown machine")
	}
}

func TestApplyActivityAggregatesErrors(t *testing.T) {
	sim := vnet.NewSim(hostStart)
	h := newHost(t, sim)
	m1 := addMachine(t, h, 1, 1, 128, 0)
	m2 := addMachine(t, h, 2, 1, 128, 0)
	startAll(t, h)
	if err := sim.RunUntil(hostStart.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	m3 := addMachine(t, h, 3, 1, 128, 0) // never started, must stay untouched
	// Every lifecycle attempt fails: both suspends must still be tried and
	// both failures reported, naming their machines.
	h.LifecycleOps().SetFaults(1.0, 7)
	h.LifecycleOps().SetPolicy(retry.Policy{MaxAttempts: 2}, 7)
	err := h.ApplyActivity(func(id int) bool { return false })
	if err == nil {
		t.Fatal("sweep with universal faults returned nil")
	}
	for _, want := range []string{"machine 1", "machine 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	if strings.Contains(err.Error(), "machine 3") {
		t.Errorf("error %q names untouched machine 3", err)
	}
	if !retry.IsTransient(err) {
		t.Error("aggregated error lost the transient classification")
	}
	// Both suspends were blocked, but the error naming machine 2 proves
	// the sweep did not stop at machine 1's failure.
	if m1.State() != machine.Active || m2.State() != machine.Active || m3.State() != machine.Created {
		t.Errorf("states = %v, %v, %v", m1.State(), m2.State(), m3.State())
	}
	// 2 clean starts from startAll, then 2 given-up suspends of 2 attempts.
	st := h.LifecycleOps().Stats()
	if st.Ops != 4 || st.GaveUp != 2 || st.Attempts != 6 {
		t.Errorf("retry stats = %+v", st)
	}
}

func TestApplyActivityRetriesTransientFaults(t *testing.T) {
	sim := vnet.NewSim(hostStart)
	h := newHost(t, sim)
	ms := []*machine.Machine{}
	for id := 1; id <= 6; id++ {
		ms = append(ms, addMachine(t, h, id, 1, 128, 0))
	}
	startAll(t, h)
	if err := sim.RunUntil(hostStart.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	// Each attempt fails with p=0.4; 8 attempts make give-up vanishingly
	// rare, and the seeded stream makes the outcome reproducible.
	h.LifecycleOps().SetFaults(0.4, 11)
	h.LifecycleOps().SetPolicy(retry.Policy{MaxAttempts: 8}, 11)
	if err := h.ApplyActivity(func(id int) bool { return false }); err != nil {
		t.Fatalf("sweep with retried faults failed: %v", err)
	}
	for _, m := range ms {
		if m.State() != machine.Suspended {
			t.Errorf("machine %d state = %v", m.ID(), m.State())
		}
	}
	// 6 clean starts from startAll plus 6 suspends under injected faults.
	st := h.LifecycleOps().Stats()
	if st.Ops != 12 || st.Retried == 0 || st.Recovered != st.Retried || st.GaveUp != 0 {
		t.Errorf("retry stats = %+v", st)
	}
	if st.Attempts <= st.Ops {
		t.Errorf("attempts %d not above ops %d despite faults", st.Attempts, st.Ops)
	}
}

func TestStartMachineRetriesInjectedFaults(t *testing.T) {
	sim := vnet.NewSim(hostStart)
	h := newHost(t, sim)
	m := addMachine(t, h, 1, 1, 128, 100*time.Millisecond)
	h.LifecycleOps().SetFaults(0.5, 3)
	h.LifecycleOps().SetPolicy(retry.Policy{MaxAttempts: 10}, 3)
	if err := h.StartMachine(1); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunUntil(hostStart.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if m.State() != machine.Active {
		t.Fatalf("state = %v", m.State())
	}
}

func TestApplyActivityFatalErrorsNotRetried(t *testing.T) {
	sim := vnet.NewSim(hostStart)
	h := newHost(t, sim)
	m := addMachine(t, h, 1, 1, 128, 0)
	startAll(t, h)
	if err := sim.RunUntil(hostStart.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	// Crash the machine out from under the sweep: Resume from Crashed is an
	// illegal transition, a fatal error the middleware must not retry.
	if err := m.Crash(sim.Now(), "seu"); err != nil {
		t.Fatal(err)
	}
	h.LifecycleOps().SetPolicy(retry.Policy{MaxAttempts: 5}, 1)
	if err := h.ApplyActivity(func(id int) bool { return true }); err != nil {
		t.Fatalf("crashed machine is not runnable, sweep must skip it: %v", err)
	}
}
