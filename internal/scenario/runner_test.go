package scenario

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"celestial/internal/orbit"
	"celestial/internal/sgp4"
)

// run parses and executes a scenario document, returning the report.
func run(t *testing.T, doc string) *Report {
	t.Helper()
	sc, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(sc)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.RunWith(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestRunDeterminism is the repeatability gate: two independent runs of
// the full test scenario — CBR and Poisson flows, impairments, a fault
// burst, a bandwidth cap and node churn — produce byte-identical JSON
// reports. This is the property the CI scenario-smoke job enforces for
// every checked-in example scenario.
func TestRunDeterminism(t *testing.T) {
	a, err := run(t, workloadTOML+testbedTOML).JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(t, workloadTOML+testbedTOML).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("reports differ between identical runs:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
	if len(a) == 0 || a[len(a)-1] != '\n' {
		t.Error("report is not newline-terminated")
	}
}

// TestRunDeterminismAcrossGOMAXPROCS: the report is a function of the
// scenario, not of how many workers the parallel stages of a tick —
// snapshot assembly, the visibility index, shortest-path repair, the
// fan-out — split their work over. Every other byte-identity gate runs both
// of its sides at the same parallelism. Eight stations in a ring of rpc
// flows keep eight shortest-path trees cached, which eight workers repair
// side by side, each on its own workspace, and one worker in a row on one.
func TestRunDeterminismAcrossGOMAXPROCS(t *testing.T) {
	// accra and johannesburg are testbedTOML's own stations.
	extra := []struct {
		name      string
		lat, long float64
	}{
		{"nairobi", -1.29, 36.82}, {"lagos", 6.52, 3.38}, {"cairo", 30.04, 31.24},
		{"dakar", 14.72, -17.47}, {"luanda", -8.84, 13.23}, {"addis", 9.03, 38.74},
	}
	names := []string{"accra", "johannesburg"}
	var doc strings.Builder
	doc.WriteString("name = \"procs\"\nseed = 11\nhorizon = 12.0\n")
	doc.WriteString(testbedTOML)
	for _, s := range extra {
		names = append(names, s.name)
		fmt.Fprintf(&doc, "\n[[testbed.ground_station]]\nname = %q\nlat = %v\nlong = %v\n", s.name, s.lat, s.long)
	}
	for i, from := range names {
		fmt.Fprintf(&doc, "\n[[flow]]\nname = %q\ntype = \"rpc\"\nsource = %q\ntarget = %q\narrival = \"poisson\"\nrate = 40.0\nrequest_bytes = 200\nresponse_bytes = 400\ntimeout = 1.0\n",
			"f"+from, from, names[(i+3)%len(names)])
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	reports := map[int][]byte{}
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		rep := run(t, doc.String())
		if rep.Ticks.RepairedPaths < len(names) {
			t.Fatalf("GOMAXPROCS %d: %d paths repaired over the run, too few to gate the repair stage: %+v",
				procs, rep.Ticks.RepairedPaths, rep.Ticks)
		}
		var err error
		if reports[procs], err = rep.JSON(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(reports[1], reports[8]) {
		t.Fatalf("reports differ between GOMAXPROCS 1 and 8:\n--- 1\n%s\n--- 8\n%s", reports[1], reports[8])
	}
}

// TestRunDeterminismWithMidIntervalInputs: generation k+1 is computed while
// generation k is in effect, so everything that changes during an interval
// has to reach it anyway. Machine health does (a fault burst, a node-down /
// node-up pair); so do shortest-path sources — three of the four flows
// start mid-run, late in an interval, and plant their endpoints' trees on
// the published state long after the next state's computation has looked
// at its path cache. The report is byte-identical at GOMAXPROCS 1, 2 and 8
// over twenty runs, every late tree is carried at the first boundary after
// it was planted, and no prepare outlives a run that reaches its horizon.
func TestRunDeterminismWithMidIntervalInputs(t *testing.T) {
	const horizonS, resolutionS = 16, 2 // testbedTOML's resolution
	stations := []struct {
		name      string
		lat, long float64
	}{
		{"nairobi", -1.29, 36.82}, {"lagos", 6.52, 3.38}, {"cairo", 30.04, 31.24},
		{"dakar", 14.72, -17.47}, {"luanda", -8.84, 13.23}, {"addis", 9.03, 38.74},
		{"spare", 12.0, 20.0},
	}
	// cbr at 20/s: a flow's first arrival comes 50 ms after its start, and
	// an rpc's response leaves the target some tens of ms later — both well
	// inside the interval the start falls in.
	flows := []struct {
		kind, from, to string
		startS         float64
	}{
		{"rpc", "accra", "johannesburg", 0},
		{"rpc", "nairobi", "lagos", 3.6},
		{"stream", "cairo", "dakar", 7.7},
		{"rpc", "luanda", "addis", 11.6},
	}
	var doc strings.Builder
	fmt.Fprintf(&doc, "name = \"mid-interval\"\nseed = 5\nhorizon = %d.0\n", horizonS)
	doc.WriteString(testbedTOML)
	for _, s := range stations {
		fmt.Fprintf(&doc, "\n[[testbed.ground_station]]\nname = %q\nlat = %v\nlong = %v\n", s.name, s.lat, s.long)
	}
	// Each source is carried at every tick after the interval it was
	// planted in (ticks run 0..horizon/resolution, the first is Full).
	wantCarried := 0
	for _, f := range flows {
		fmt.Fprintf(&doc, "\n[[flow]]\nname = %q\ntype = %q\nsource = %q\ntarget = %q\narrival = \"cbr\"\nrate = 20.0\nstart = %v\nrequest_bytes = 200\nresponse_bytes = 400\ntimeout = 1.0\n",
			f.from+"-"+f.to, f.kind, f.from, f.to, f.startS)
		sources := 1 // a stream plants its source, an rpc its target as well
		if f.kind == "rpc" {
			sources = 2
		}
		wantCarried += sources * (horizonS/resolutionS - int(f.startS)/resolutionS)
	}
	doc.WriteString(`
[[event]]
at = 4.5
action = "fault-burst"
window = 8.0
rate_per_hour = 360.0
shutdown_prob = 1.0
reboot_after = 2.0

[[event]]
at = 5.5
action = "node-down"
node = "spare"

[[event]]
at = 10.5
action = "node-up"
node = "spare"
`)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first []byte
	for i, procs := range [20]int{1, 2, 8, 1, 2, 8, 1, 2, 8, 1, 2, 8, 1, 2, 8, 1, 2, 8, 1, 2} {
		runtime.GOMAXPROCS(procs)
		rep := run(t, doc.String())
		// No prepare outlives the run: none is launched for a tick past the
		// horizon. (At GOMAXPROCS 1 such a goroutine would not even have
		// started yet. Its stack names its creator either way, which a bare
		// runtime.NumGoroutine cannot: that also counts a parallel-stage
		// worker that has signalled its WaitGroup and not yet exited.)
		stacks := make([]byte, 1<<20)
		if stacks = stacks[:runtime.Stack(stacks, true)]; bytes.Contains(stacks, []byte("SnapshotPool).Prefetch")) {
			t.Fatalf("run %d (GOMAXPROCS %d): a prefetch goroutine is alive after RunWith returned:\n%s", i, procs, stacks)
		}
		if got := rep.Ticks.CarriedPaths + rep.Ticks.RepairedPaths + rep.Ticks.RepairFallbacks; got != wantCarried {
			t.Fatalf("run %d (GOMAXPROCS %d): %d path trees carried over the run, want %d — one planted mid-interval missed its first boundary: %+v",
				i, procs, got, wantCarried, rep.Ticks)
		}
		if rep.Ticks.Deactivated == 0 || rep.Ticks.Activated == 0 {
			t.Fatalf("run %d: no activity flips, the overlay is not exercised: %+v", i, rep.Ticks)
		}
		out, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = out
		} else if !bytes.Equal(first, out) {
			t.Fatalf("run %d (GOMAXPROCS %d) differs from run 0 (GOMAXPROCS 1):\n--- 0\n%s\n--- %d\n%s", i, procs, first, i, out)
		}
	}
}

// decayTOML is a validated testbed that cannot last: four SGP4 satellites
// at the lowest altitude the config accepts, on an orbit eccentric enough
// for the perigee to graze the surface.
const decayTOML = `
name = "decay"
seed = 1
horizon = 60.0

[testbed]
name = "decay"
resolution = 1.0
hosts = 1

[[testbed.shell]]
planes = 1
sats = 4
altitude_km = 200
inclination = 53.0
eccentricity = %.7f
model = "sgp4"
`

// TestRunSurfacesPropagationError: an update that fails mid-run — here a
// real sgp4.ErrDecayed, met by the snapshot computed ahead on the pool's
// goroutine — stops the update loop, and the run reports it instead of
// assembling a report from the last good tick. The eccentricity is searched
// for, not written down: the smallest one (in the 1e-7 steps a TLE holds)
// whose first satellite dips below the surface within the horizon does so
// some twenty seconds after the epoch, where the orbit's radius is least,
// and is sound at the epoch itself.
func TestRunSurfacesPropagationError(t *testing.T) {
	parse := func(e7 int) *Scenario {
		sc, err := Parse(strings.NewReader(fmt.Sprintf(decayTOML, float64(e7)*1e-7)))
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	// firstFailure returns the first whole second at which the shell cannot
	// be propagated, or -1 when it lasts the horizon.
	firstFailure := func(sc *Scenario) int {
		sh, err := orbit.NewShell(sc.Config.Shells[0].ShellConfig, sc.Config.EpochJulian())
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s <= int(sc.Horizon.Seconds()); s++ {
			if _, err := sh.PositionsECEF(float64(s), nil); err != nil {
				return s
			}
		}
		return -1
	}
	// config.Validate accepts eccentricities in [0, 0.05).
	e7 := sort.Search(499999, func(e7 int) bool { return firstFailure(parse(e7)) >= 0 })
	sc := parse(e7)
	failAt := firstFailure(sc)
	if failAt < 2 {
		t.Fatalf("eccentricity %d e-7: first failure at %d s, want one a few ticks into the run", e7, failAt)
	}

	r, err := NewRunner(sc)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.RunWith(RunOptions{})
	if rep != nil || !errors.Is(err, sgp4.ErrDecayed) {
		t.Fatalf("Run = %v, %v; want no report and sgp4.ErrDecayed", rep, err)
	}
	// Ticks 0..failAt-1 succeeded; the failing one was never published.
	if got := int(r.Coordinator().Generation()); got != failAt {
		t.Errorf("%d updates completed, want %d", got, failAt)
	}
	// The loop has stopped for good, and the coordinator keeps saying why.
	if err := r.Coordinator().Run(5 * time.Second); !errors.Is(err, sgp4.ErrDecayed) {
		t.Errorf("Coordinator.Run after the failure = %v, want the same error", err)
	}
	if got := int(r.Coordinator().Generation()); got != failAt {
		t.Errorf("update loop ran on after its error: %d updates, want %d", got, failAt)
	}
}

// TestSeedChangesRun guards against the opposite failure: the seed must
// actually steer the random processes, otherwise determinism is vacuous.
func TestSeedChangesRun(t *testing.T) {
	base := run(t, workloadTOML+testbedTOML)
	other := run(t, strings.Replace(workloadTOML, "seed = 7", "seed = 8", 1)+testbedTOML)
	if base.Seed == other.Seed {
		t.Fatal("seed replacement failed")
	}
	// The Poisson stream flow draws its arrivals from the seed: the
	// sample counts cannot all coincide.
	if base.Flows[1].Sent == other.Flows[1].Sent &&
		base.Flows[1].Latency.Mean == other.Flows[1].Latency.Mean {
		t.Errorf("different seeds produced identical poisson flows: %+v vs %+v",
			base.Flows[1], other.Flows[1])
	}
}

func TestRunReportContents(t *testing.T) {
	rep := run(t, workloadTOML+testbedTOML)
	if rep.Scenario != "unit-run" || rep.Satellites != 24*22 || rep.GroundStations != 2 {
		t.Errorf("header = %+v", rep)
	}
	if rep.HorizonS != 12 || rep.ResolutionS != 2 {
		t.Errorf("clock = %v/%v", rep.HorizonS, rep.ResolutionS)
	}
	// 12 s at 2 s resolution: initial tick plus 6 periodic ones.
	if rep.Ticks.Ticks != 7 {
		t.Errorf("ticks = %d, want 7", rep.Ticks.Ticks)
	}
	if rep.Ticks.FullDiffs != 1 {
		t.Errorf("full diffs = %d, want 1 (the initial snapshot)", rep.Ticks.FullDiffs)
	}
	// The fault burst (1 SEU per 10 machine-seconds over 4 s across 528
	// sats) and the scripted churn guarantee activity flips.
	if rep.Ticks.Deactivated == 0 || rep.Ticks.Activated == 0 {
		t.Errorf("no activity flips recorded: %+v", rep.Ticks)
	}

	ping := rep.Flows[0]
	// CBR at 5/s over 12 s fires 60 times: the first arrival comes one
	// gap in, the last lands exactly on the window edge.
	if ping.Sent != 60 {
		t.Errorf("ping sent = %d, want 60", ping.Sent)
	}
	if ping.Delivered == 0 || ping.Latency.Count != int(ping.Delivered) {
		t.Errorf("ping deliveries inconsistent: %+v", ping)
	}
	if ping.Latency.Min <= 0 || ping.Latency.P95 < ping.Latency.P50 {
		t.Errorf("implausible rpc latency stats: %+v", ping.Latency)
	}
	// The node-down window (9 s → 10 s, target recovered thereafter)
	// must surface as failed sends or timeouts.
	if ping.SendErrors+ping.Timeouts == 0 {
		t.Errorf("churn produced no rpc failures: %+v", ping)
	}
	if ping.Sent != ping.Delivered+ping.SendErrors+ping.Timeouts+ping.InFlight {
		t.Errorf("rpc accounting does not add up: %+v", ping)
	}

	video := rep.Flows[1]
	if video.Sent == 0 || video.Delivered == 0 {
		t.Errorf("stream flow idle: %+v", video)
	}
	// 5% loss from t=4 on some ~160 stream sends makes drops all but
	// certain; the network-wide counter includes them.
	if rep.Network.Dropped == 0 {
		t.Errorf("no drops despite 5%% loss impairment: %+v", rep.Network)
	}
	if rep.Network.Delivered == 0 {
		t.Errorf("network counters empty: %+v", rep.Network)
	}

	if len(rep.Events) != 5 {
		t.Fatalf("events executed = %d, want 5", len(rep.Events))
	}
	for _, ev := range rep.Events {
		if ev.Error != "" {
			t.Errorf("event %s at %vs failed: %s", ev.Action, ev.AtS, ev.Error)
		}
	}
}

// TestNodeResolution guards the node-reference grammar: ground-station
// names and exact "SAT.SHELL" pairs resolve, anything else — including a
// pair with trailing junk, which Sscanf-style parsing would silently
// truncate to the wrong satellite — is rejected at NewRunner time.
func TestNodeResolution(t *testing.T) {
	flow := func(target string) string {
		return "seed = 1\nhorizon = 4.0\n[[flow]]\nsource = \"accra\"\ntarget = \"" + target + "\"\nrate = 1.0\n"
	}
	for _, good := range []string{"johannesburg", "0.0", "21.0"} {
		sc, err := Parse(strings.NewReader(flow(good) + testbedTOML))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewRunner(sc); err != nil {
			t.Errorf("%q rejected: %v", good, err)
		}
	}
	for _, bad := range []string{"atlantis", "0.0.5", "0.0x", "x.0", "9999.0", "0.7"} {
		sc, err := Parse(strings.NewReader(flow(bad) + testbedTOML))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewRunner(sc); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestTicksPreservePaths checks the report exposes the diff/repair
// pipeline: across a steady run the path cache must be carried or
// repaired, never silently dropped.
func TestTicksPreservePaths(t *testing.T) {
	doc := `
seed = 1
horizon = 20.0

[[flow]]
source = "accra"
target = "johannesburg"
rate = 2.0
` + testbedTOML
	rep := run(t, doc)
	if rep.Ticks.CarriedPaths+rep.Ticks.RepairedPaths+rep.Ticks.RepairFallbacks == 0 {
		t.Errorf("no path cache preservation over %d ticks: %+v", rep.Ticks.Ticks, rep.Ticks)
	}
	if rep.Flows[0].Delivered == 0 {
		t.Errorf("rpc flow idle: %+v", rep.Flows[0])
	}
}

// TestFlowArrivalAllocatesNoClosure: a flow re-arms its one arrival
// callback, its messages carry their flow, kind and rpc id in an unboxed
// tag, and an rpc's timeout is a deadline in the flow's ring of pending
// requests rather than a scheduled closure — so in steady state neither a
// CBR stream's packet nor an rpc's whole round trip (arrival, request,
// response) costs an allocation. Each measured run steps the engine until
// one more message is delivered to the flow, so a boxed payload or a
// timeout closure back on the path is at least one allocation per run. (The
// latency sample slice and the ring grow by doubling, which rounds to zero
// per run.)
func TestFlowArrivalAllocatesNoClosure(t *testing.T) {
	for _, tc := range []struct{ name, flow string }{
		{"stream", `type = "stream"`},
		{"rpc", "type = \"rpc\"\nresponse_bytes = 400\ntimeout = 1.0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := Parse(strings.NewReader(`
name = "cbr-allocs"
seed = 1
horizon = 2.0

[[flow]]
name = "ticker"
source = "accra"
target = "johannesburg"
arrival = "cbr"
rate = 2000.0
request_bytes = 100
` + tc.flow + "\n" + testbedTOML))
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewRunner(sc)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.coord.Start(); err != nil {
				t.Fatal(err)
			}
			f := r.flows[0]
			if err := f.schedule(); err != nil {
				t.Fatal(err)
			}
			deliver := func() {
				for n := f.delivered; f.delivered == n; {
					r.sim.Step()
				}
			}
			// Warm up past the first deliveries: path cached, shaper built,
			// queue, slabs and ring at their steady size.
			for i := 0; i < 200; i++ {
				deliver()
			}
			if f.sendErrors != 0 || f.timeouts != 0 {
				t.Fatalf("warm-up: sent %d delivered %d errors %d timeouts %d",
					f.sent, f.delivered, f.sendErrors, f.timeouts)
			}
			sent := f.sent
			// 600 deliveries at 2,000 arrivals a second stay well inside the
			// first virtual second: no update tick (2 s resolution) falls
			// inside the measurement.
			if a := testing.AllocsPerRun(600, deliver); a != 0 {
				t.Errorf("%v allocations per delivered message", a)
			}
			if f.sent-sent < 500 {
				t.Errorf("only %d arrivals among the measured events", f.sent-sent)
			}
			if end := r.sim.Now().Sub(r.epoch); end >= sc.Config.Resolution {
				t.Errorf("measurement ran to %v, past the first update tick", end)
			}
		})
	}
}
