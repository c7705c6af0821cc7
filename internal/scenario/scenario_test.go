package scenario

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"celestial/internal/config"
	"celestial/internal/coordinator"
	"celestial/internal/hostlink"
)

// testbedTOML is a small but fully connected testbed: the 24×22 shell
// reaches both stations at 25° minimum elevation throughout the run.
const testbedTOML = `
[testbed]
name = "unit-testbed"
resolution = 2.0
hosts = 2

[testbed.network_params]
min_elevation = 25.0

[[testbed.shell]]
planes = 24
sats = 22
altitude_km = 550
inclination = 53.0
arc_of_ascending_nodes = 360.0
phasing_factor = 13
model = "kepler"

[[testbed.ground_station]]
name = "accra"
lat = 5.6037
long = -0.187

[[testbed.ground_station]]
name = "johannesburg"
lat = -26.2041
long = 28.0473
`

const workloadTOML = `
name = "unit-run"
seed = 7
horizon = 12.0

[[flow]]
name = "ping"
type = "rpc"
source = "accra"
target = "johannesburg"
arrival = "cbr"
rate = 5.0
request_bytes = 128
response_bytes = 512
timeout = 1.0

[[flow]]
name = "video"
type = "stream"
source = "accra"
target = "johannesburg"
arrival = "poisson"
rate = 20.0
request_bytes = 1200

[[event]]
at = 4.0
action = "impair"
loss = 0.05
jitter_ms = 0.3

[[event]]
at = 6.0
action = "fault-burst"
window = 4.0
rate_per_hour = 360.0
shutdown_prob = 1.0
reboot_after = 2.0

[[event]]
at = 8.0
action = "bandwidth-cap"
bandwidth_kbits = 10000.0

[[event]]
at = 9.0
action = "node-down"
node = "johannesburg"

[[event]]
at = 10.0
action = "node-up"
node = "johannesburg"
`

func parseTestScenario(t *testing.T) *Scenario {
	t.Helper()
	sc, err := Parse(strings.NewReader(workloadTOML + testbedTOML))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestParseScenario(t *testing.T) {
	sc := parseTestScenario(t)
	if sc.Name != "unit-run" || sc.Seed != 7 || sc.Horizon != 12*time.Second {
		t.Errorf("header = %q seed %d horizon %v", sc.Name, sc.Seed, sc.Horizon)
	}
	if sc.Config == nil || sc.Config.TotalSatellites() != 24*22 || len(sc.Config.GroundStations) != 2 {
		t.Fatalf("testbed not decoded: %+v", sc.Config)
	}
	if sc.Config.Duration != sc.Horizon {
		t.Errorf("config duration %v, want horizon %v", sc.Config.Duration, sc.Horizon)
	}
	if len(sc.Flows) != 2 || len(sc.Events) != 5 {
		t.Fatalf("flows = %d events = %d", len(sc.Flows), len(sc.Events))
	}
	ping := sc.Flows[0]
	if ping.Type != FlowRPC || ping.Arrival != ArrivalCBR || ping.Rate != 5 ||
		ping.RequestBytes != 128 || ping.ResponseBytes != 512 || ping.Timeout != time.Second {
		t.Errorf("ping = %+v", ping)
	}
	if ping.Stop != sc.Horizon {
		t.Errorf("default stop = %v, want horizon", ping.Stop)
	}
	video := sc.Flows[1]
	if video.Type != FlowStream || video.Arrival != ArrivalPoisson || video.ResponseBytes != 1200 {
		t.Errorf("video = %+v", video)
	}
	burst := sc.Events[1]
	if burst.Action != ActionFaultBurst || burst.At != 6*time.Second ||
		burst.Window != 4*time.Second || burst.Faults.ShutdownProb != 1 ||
		burst.Faults.RebootAfter != 2*time.Second {
		t.Errorf("burst = %+v", burst)
	}
	if sc.Events[0].Impair.LossProb != 0.05 || sc.Events[0].Impair.Jitter != 300*time.Microsecond {
		t.Errorf("impair = %+v", sc.Events[0].Impair)
	}
	if sc.Events[2].BandwidthKbps != 10000 {
		t.Errorf("cap = %+v", sc.Events[2])
	}
}

func TestParseSupervision(t *testing.T) {
	doc := `
seed = 1
horizon = 4.0

[supervision]
watchdog = true
apply_fault_rate = 0.1
shaper_fault_rate = 0.05
retry_max_attempts = 6
retry_initial_ms = 2.0
retry_max_ms = 50.0
retry_multiplier = 3.0
retry_jitter = 0.25
retry_budget_ms = 200.0
` + testbedTOML
	sc, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	s := sc.Supervision
	if !s.Enabled() {
		t.Fatal("supervision not enabled")
	}
	if !s.Watchdog {
		t.Error("watchdog not enabled")
	}
	if s.ApplyFaultRate != 0.1 || s.ShaperFaultRate != 0.05 {
		t.Errorf("fault rates = %v / %v", s.ApplyFaultRate, s.ShaperFaultRate)
	}
	if s.Retry.MaxAttempts != 6 || s.Retry.Initial != 2*time.Millisecond ||
		s.Retry.Max != 50*time.Millisecond || s.Retry.Multiplier != 3 ||
		s.Retry.Jitter != 0.25 || s.Retry.Budget != 200*time.Millisecond {
		t.Errorf("retry policy = %+v", s.Retry)
	}

	plain := parseTestScenario(t)
	if plain.Supervision.Enabled() {
		t.Errorf("supervision enabled without [supervision] table: %+v", plain.Supervision)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"no testbed":        `name = "x"`,
		"both testbeds":     `config = "a.toml"` + testbedTOML,
		"ref without file":  `config = "a.toml"`,
		"bad flow type":     "[[flow]]\ntype = \"carrier-pigeon\"\nsource = \"accra\"\ntarget = \"johannesburg\"\nrate = 1.0\n" + testbedTOML,
		"bad arrival":       "[[flow]]\nsource = \"accra\"\ntarget = \"johannesburg\"\nrate = 1.0\narrival = \"bursty\"\n" + testbedTOML,
		"zero rate":         "[[flow]]\nsource = \"accra\"\ntarget = \"johannesburg\"\n" + testbedTOML,
		"window past end":   "horizon = 5.0\n[[flow]]\nsource = \"accra\"\ntarget = \"johannesburg\"\nrate = 1.0\nstop = 9.0\n" + testbedTOML,
		"bad action":        "[[event]]\nat = 1.0\naction = \"melt\"\n" + testbedTOML,
		"late event":        "horizon = 5.0\n[[event]]\nat = 9.0\naction = \"impair\"\n" + testbedTOML,
		"bad fault model":   "[[event]]\nat = 1.0\naction = \"fault-burst\"\nrate_per_hour = -1.0\n" + testbedTOML,
		"empty fault burst": "[[event]]\nat = 1.0\naction = \"fault-burst\"\n" + testbedTOML,
		"churn needs node":  "[[event]]\nat = 1.0\naction = \"node-down\"\n" + testbedTOML,
		"bad impair":        "[[event]]\nat = 1.0\naction = \"impair\"\nloss = 1.5\n" + testbedTOML,
		"bad fault rate":    "[supervision]\napply_fault_rate = 1.5\n" + testbedTOML,
		"bad retry jitter":  "[supervision]\nretry_jitter = 2.0\n" + testbedTOML,
	}
	for name, doc := range cases {
		if _, err := Parse(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestParseFileConfigRef(t *testing.T) {
	dir := t.TempDir()
	// Extract the inline testbed into a standalone config file by
	// stripping the [testbed] prefix from every header.
	cfgText := strings.NewReplacer("[testbed.", "[", "[[testbed.", "[[", "[testbed]", "").Replace(testbedTOML)
	if err := os.WriteFile(filepath.Join(dir, "testbed.toml"), []byte(cfgText), 0o644); err != nil {
		t.Fatal(err)
	}
	scText := `
name = "ref-run"
seed = 3
horizon = 8.0
config = "testbed.toml"

[[flow]]
source = "accra"
target = "johannesburg"
rate = 2.0
`
	path := filepath.Join(dir, "run.toml")
	if err := os.WriteFile(path, []byte(scText), 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err := ParseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Config.TotalSatellites() != 24*22 {
		t.Errorf("referenced testbed not loaded: %d sats", sc.Config.TotalSatellites())
	}
	if sc.Flows[0].Type != FlowRPC || sc.Flows[0].Arrival != ArrivalCBR {
		t.Errorf("defaults not applied: %+v", sc.Flows[0])
	}
}

func TestTruncate(t *testing.T) {
	sc := parseTestScenario(t)
	if err := sc.Truncate(8 * time.Second); err != nil {
		t.Fatal(err)
	}
	if sc.Horizon != 8*time.Second || sc.Config.Duration != 8*time.Second {
		t.Errorf("horizon = %v duration = %v", sc.Horizon, sc.Config.Duration)
	}
	for _, f := range sc.Flows {
		if f.Stop > sc.Horizon {
			t.Errorf("flow %q stop %v past horizon", f.Name, f.Stop)
		}
	}
	for _, ev := range sc.Events {
		if ev.At > sc.Horizon {
			t.Errorf("event %s at %v past horizon", ev.Action, ev.At)
		}
	}
	if err := sc.Truncate(time.Millisecond); err == nil {
		t.Error("accepted horizon below resolution")
	}
}

// TestStrictTables: every table kind of a scenario file rejects a key it
// does not know and a value of the wrong type, naming the key's dotted path
// from the document root — a misspelt setting is an error, never a silently
// different run.
func TestStrictTables(t *testing.T) {
	// Each case injects one line under a header of the base document.
	base := strings.Join([]string{
		"#root", "[supervision]", "[hosts]", "[[flow]]", `source = "accra"`, `target = "johannesburg"`, "rate = 1.0",
		"[[event]]", "at = 1.0", `action = "impair"`,
		"[testbed]", "#testbed", "[testbed.network_params]", "[testbed.compute_params]",
		"[[testbed.shell]]", "planes = 24", "sats = 22", "altitude_km = 550", "inclination = 53.0",
		"[testbed.shell.compute_params]", "[testbed.shell.network_params]",
		"[[testbed.ground_station]]", `name = "accra"`, "[testbed.ground_station.compute_params]",
		"[[testbed.ground_station]]", `name = "johannesburg"`, "",
	}, "\n")
	if _, err := Parse(strings.NewReader(base)); err != nil {
		t.Fatalf("base document: %v", err)
	}
	cases := []struct {
		after, line, want string
	}{
		{"#root", "sead = 1", "unknown key sead"},
		{"#root", `seed = "x"`, "seed must be an integer"},
		{"#root", `horizon = "x"`, "horizon must be a number, have string"},
		{"[supervision]", "retry_jiter = 0.1", "unknown key supervision.retry_jiter"},
		{"[supervision]", "watchdog = 1", "supervision.watchdog must be a boolean, have integer"},
		{"[hosts]", "frame_drop_rat = 0.1", "unknown key hosts.frame_drop_rat"},
		{"[hosts]", `frame_delay_ms = "50"`, "hosts.frame_delay_ms must be a number, have string"},
		{"[hosts]", "agents = 1.5", "hosts.agents must be an integer, have 1.5"},
		{"[[flow]]", "rat = 2.0", "unknown key flow[0].rat"},
		{"[[flow]]", "request_bytes = true", "flow[0].request_bytes must be an integer"},
		{"[[event]]", "los = 0.1", "unknown key event[0].los"},
		{"[[event]]", `jitter_ms = "1"`, "event[0].jitter_ms must be a number"},
		{"#testbed", "resolutoin = 2.0", "unknown key testbed.resolutoin"},
		{"#testbed", "hosts = [1]", "testbed.hosts must be an integer"},
		{"#testbed", `bbox = [1, "x", 3, 4]`, "testbed.bbox[1] must be a number, have string"},
		{"#testbed", "bbox = [1, 2]", "testbed.bbox must have 4 elements"},
		{"#testbed", `epoch = "yesterday"`, "testbed.epoch must be an RFC 3339 time"},
		{"[testbed.network_params]", "min_elevatoin = 25.0", "unknown key testbed.network_params.min_elevatoin"},
		{"[testbed.network_params]", "min_elevation = true", "testbed.network_params.min_elevation must be a number"},
		{"[testbed.compute_params]", "vcpus = 2", "unknown key testbed.compute_params.vcpus"},
		{"[testbed.compute_params]", `vcpu_count = "2"`, "testbed.compute_params.vcpu_count must be an integer"},
		{"[[testbed.shell]]", "plains = 3", "unknown key testbed.shell[0].plains"},
		{"[[testbed.shell]]", "phasing_factor = 0.5", "testbed.shell[0].phasing_factor must be an integer"},
		{"[[testbed.shell]]", `model = "magic"`, `testbed.shell[0].model must be "sgp4" or "kepler", have "magic"`},
		{"[testbed.shell.compute_params]", "memory = 1", "unknown key testbed.shell[0].compute_params.memory"},
		{"[testbed.shell.network_params]", `bandwidth_kbits = "fast"`, "testbed.shell[0].network_params.bandwidth_kbits must be a number"},
		{"[testbed.ground_station.compute_params]", "boot_delay = false", "testbed.ground_station[0].compute_params.boot_delay must be a number"},
		{`name = "johannesburg"`, "lon = 28.0", "unknown key testbed.ground_station[1].lon"},
		{`name = "johannesburg"`, `lat = "south"`, "testbed.ground_station[1].lat must be a number"},
	}
	for _, tc := range cases {
		doc := strings.Replace(base, tc.after+"\n", tc.after+"\n"+tc.line+"\n", 1)
		if doc == base {
			t.Fatalf("no line %q in the base document", tc.after)
		}
		if _, err := Parse(strings.NewReader(doc)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s under %s: err = %v, want it to contain %q", tc.line, tc.after, err, tc.want)
		}
	}
	// A whole table nobody opens is an unknown key of its parent.
	if _, err := Parse(strings.NewReader(base + "\n[hostz]\nagents = 2\n")); err == nil ||
		!strings.Contains(err.Error(), "unknown key hostz") {
		t.Errorf("unknown table: err = %v", err)
	}
}

// TestNumbersCheckedOnce: numbers no setting means anything at are parse
// errors naming the key — not accepted-then-crash (nan passes every
// "x <= 0" check), not a wrapped-around negative duration.
func TestNumbersCheckedOnce(t *testing.T) {
	flow := "[[flow]]\nsource = \"accra\"\ntarget = \"johannesburg\"\n"
	cases := map[string]struct{ doc, want string }{
		"nan rate":       {flow + "rate = nan\n" + testbedTOML, "flow[0].rate must be finite, have NaN"},
		"inf rate":       {flow + "rate = +inf\n" + testbedTOML, "flow[0].rate must be finite, have +Inf"},
		"huge horizon":   {"horizon = 1e30\n" + testbedTOML, "horizon does not fit a duration"},
		"huge delay":     {"[hosts]\nframe_delay_ms = 1e300\n" + testbedTOML, "hosts.frame_delay_ms does not fit a duration"},
		"huge int":       {"seed = 1e19\n" + testbedTOML, "seed must be an integer"},
		"nan resolution": {strings.Replace(testbedTOML, "resolution = 2.0", "resolution = nan", 1), "testbed.resolution must be finite"},
		"negative rate":  {"[hosts]\nframe_drop_rate = -0.1\n" + testbedTOML, "hosts: hostlink: frame fault rate outside [0, 1]"},
		"rate above one": {"[hosts]\nframe_dup_rate = 1.5\n" + testbedTOML, "hosts: hostlink: frame fault rate outside [0, 1]"},
		"negative delay": {"[hosts]\nframe_delay_ms = -1\n" + testbedTOML, "hosts: hostlink: negative duration"},
		"negative ring":  {"[hosts]\ndiff_ring = -1\n" + testbedTOML, "hosts: negative agents 0 or diff_ring -1"},
	}
	for name, tc := range cases {
		if _, err := Parse(strings.NewReader(tc.doc)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to contain %q", name, err, tc.want)
		}
	}
}

// TestRemovedKeysRejected: the ladder rungs and the watchdog interval are
// fixed, so the keys that once tuned them are unknown keys like any other —
// a file still carrying one fails instead of silently running on the fixed
// values.
func TestRemovedKeysRejected(t *testing.T) {
	for _, key := range []string{"hosts.lag_coalesce", "hosts.lag_activity_only", "hosts.recover_after", "supervision.watchdog_interval"} {
		table, name, _ := strings.Cut(key, ".")
		doc := "[" + table + "]\n" + name + " = 1\n" + testbedTOML
		want := "toml: unknown key " + key
		if _, err := Parse(strings.NewReader(doc)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want it to contain %q", key, err, want)
		}
	}
}

// TestHostsEnabledIgnoresToken: the agent token is a deployment secret
// layered on by cmd/celestial; it must not switch on the [hosts] defaults a
// run derives (the fan-out retry policy and seed), or a token run would
// differ from the tokenless one.
func TestHostsEnabledIgnoresToken(t *testing.T) {
	h := Hosts{FanoutOptions: coordinator.FanoutOptions{Options: hostlink.Options{Token: "t"}}}
	if h.Enabled() {
		t.Error("a token alone enables the hosts table")
	}
	h.Agents = 2
	if !h.Enabled() {
		t.Error("agents = 2 does not enable the hosts table")
	}
}

// TestTestbedSourceErrors pins the three messages about where the testbed
// comes from; they are decided before any table is read strictly.
func TestTestbedSourceErrors(t *testing.T) {
	cases := map[string]struct{ doc, want string }{
		"both":    {`config = "a.toml"` + testbedTOML, "scenario: both config reference and inline [testbed] given"},
		"ref":     {`config = "a.toml"`, "scenario: config file references require ParseFile"},
		"neither": {`name = "x"`, "scenario: missing testbed (inline [testbed] table or config reference)"},
	}
	for name, tc := range cases {
		if _, err := Parse(strings.NewReader(tc.doc)); err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %q", name, err, tc.want)
		}
	}
}

// checkedInFiles returns every TOML file the repository ships: scenarios
// (examples and bench workloads) and standalone testbed configs.
func checkedInFiles(t testing.TB) (scenarios, configs []string) {
	t.Helper()
	for _, glob := range []string{"../../examples/scenarios/*.toml", "../../bench/workloads/*.toml"} {
		files, err := filepath.Glob(glob)
		if err != nil || len(files) == 0 {
			t.Fatalf("no files under %s (%v)", glob, err)
		}
		scenarios = append(scenarios, files...)
	}
	configs, err := filepath.Glob("../../examples/configs/*.toml")
	if err != nil || len(configs) == 0 {
		t.Fatalf("no files under examples/configs (%v)", err)
	}
	return scenarios, configs
}

// TestCheckedInFilesParse: the strict reader accepts everything checked in
// — no shipped file holds a key nobody reads.
func TestCheckedInFilesParse(t *testing.T) {
	scenarios, configs := checkedInFiles(t)
	for _, path := range scenarios {
		if _, err := ParseFile(path); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
	for _, path := range configs {
		if _, err := config.ParseFile(path); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
}

// FuzzScenarioParse: Parse never panics, and a scenario it accepts is one
// the runner can take at its word — a positive horizon, finite positive
// flow rates, every flow window and event inside the horizon.
func FuzzScenarioParse(f *testing.F) {
	scenarios, _ := checkedInFiles(f)
	for _, path := range scenarios {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Add(workloadTOML + hostsFaultTOML + testbedTOML)
	f.Add("horizon = 1e30\n[[flow]]\nrate = nan\nstart = -inf\n[hosts]\nframe_delay_ms = 1e300\n" + testbedTOML)
	f.Fuzz(func(t *testing.T, text string) {
		sc, err := Parse(strings.NewReader(text))
		if err != nil {
			return
		}
		if sc.Horizon <= 0 || sc.Config == nil || sc.Config.Duration != sc.Horizon || sc.Config.Resolution > sc.Horizon {
			t.Fatalf("accepted horizon %v over config %+v", sc.Horizon, sc.Config)
		}
		for _, fl := range sc.Flows {
			if !(fl.Rate > 0) || math.IsInf(fl.Rate, 0) {
				t.Fatalf("flow %q: accepted rate %v", fl.Name, fl.Rate)
			}
			if fl.Start < 0 || fl.Start >= fl.Stop || fl.Stop > sc.Horizon || fl.Timeout <= 0 {
				t.Fatalf("flow %q: accepted window [%v, %v] timeout %v in horizon %v", fl.Name, fl.Start, fl.Stop, fl.Timeout, sc.Horizon)
			}
		}
		for i, ev := range sc.Events {
			if ev.At < 0 || ev.At > sc.Horizon {
				t.Fatalf("event %d: accepted at %v in horizon %v", i, ev.At, sc.Horizon)
			}
		}
	})
}
