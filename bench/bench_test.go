package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	// p95 needs ten samples beyond it: 200 observations, not 199.
	if supported(199, 0.95) || !supported(200, 0.95) {
		t.Fatalf("supported(199, .95)=%v supported(200, .95)=%v, want false true", supported(199, 0.95), supported(200, 0.95))
	}
	if supported(999, 0.99) || !supported(1000, 0.99) {
		t.Fatal("p99 must need 1000 samples")
	}
	xs := make([]float64, 150)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, ok := percentile(xs, 0.95); ok {
		t.Error("p95 of 150 samples reported; only 7.5 lie beyond it")
	}
	if v, ok := percentile(xs, 0.5); !ok || v != 74.5 {
		t.Errorf("median of 0..149 = %v, %v; want 74.5, true", v, ok)
	}
	if v, ok := percentile(xs[:3], 0.5); !ok || v != 1 {
		t.Errorf("the median is exempt from the rule: got %v, %v", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(xs, n=4) for each input.
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3}, [3]float64{1.5, 5, 9.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	} {
		q1, q2, q3, ok := quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; !ok || got != tc.want {
			t.Errorf("quartiles(%v) = %v, %v; want %v", tc.xs, got, ok, tc.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample reported")
	}
	if sp, ok := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !ok || math.Abs(sp-1) > 1e-12 {
		t.Errorf("spread = %v, %v; want (8.25-2.75)/5.5 = 1", sp, ok)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "tick", Start: 10, End: 50},
		{ID: 3, Parent: 2, Name: "wait", Start: 30, End: 45},
		// Two overlapping children, the second spilling past the parent:
		// they cover [60, 100) of run once, not twice.
		{ID: 4, Parent: 1, Name: "get", Start: 60, End: 90},
		{ID: 5, Parent: 1, Name: "get", Start: 80, End: 120},
	}
	want := []int64{
		100 - 40 - 40, // run: minus tick [10,50), minus gets [60,100)
		40 - 15,       // tick: minus wait
		15, 30, 40,    // leaves keep their whole duration
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, 0)
	tr.end(id)
	if id != 0 || tr.snapshot() != nil {
		t.Errorf("nil tracer recorded: id %d, spans %v", id, tr.snapshot())
	}
	tr = newTracer()
	a := tr.begin("a", 0, 1)
	b := tr.begin("b", a, 1)
	tr.end(b)
	tr.end(a)
	s := tr.snapshot()
	if len(s) != 2 || s[1].Parent != s[0].ID || s[0].End < s[1].End || s[1].Start < s[0].Start {
		t.Errorf("spans %+v: want b nested inside a", s)
	}
}

func TestOpenLoopLateness(t *testing.T) {
	p := pacer{interval: 50 * time.Millisecond}
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }

	// The first tick is due at once: no wait, not late.
	due, wait := p.next(at(0))
	if !due.Equal(at(0)) || wait != 0 || p.late != 0 {
		t.Fatalf("first tick: due %v wait %v late %d", due.Sub(t0), wait, p.late)
	}
	// A 10 ms tick leaves 40 ms of slack.
	if due, wait = p.next(at(10)); !due.Equal(at(50)) || wait != 40*time.Millisecond {
		t.Fatalf("second tick: due %v wait %v", due.Sub(t0), wait)
	}
	// A tick that overran by 30 ms: the next is due at 100 ms regardless,
	// the generator reaches it at 130 ms, and that is a late start whose
	// lag is counted from 100 ms.
	if due, wait = p.next(at(130)); !due.Equal(at(100)) || wait != -30*time.Millisecond || p.late != 1 {
		t.Fatalf("late tick: due %v wait %v late %d", due.Sub(t0), wait, p.late)
	}
	// The schedule did not shift: the following tick is due at 150 ms.
	if due, wait = p.next(at(135)); !due.Equal(at(150)) || wait != 15*time.Millisecond || p.late != 1 || p.paced != 4 {
		t.Fatalf("recovered tick: due %v wait %v late %d paced %d", due.Sub(t0), wait, p.late, p.paced)
	}
}

func TestGoldenComparer(t *testing.T) {
	g := goldenStats{
		Ticks:        151,
		Flows:        []goldenFlow{{Name: "a", Sent: 10, Delivered: 9, Timeouts: 1}, {Name: "b", Sent: 5, Delivered: 5}},
		ShardDigests: []string{"00aa", "00bb"},
	}
	same := goldenStats{Ticks: 151, Flows: append([]goldenFlow(nil), g.Flows...), ShardDigests: []string{"00aa", "00bb"}}
	if d := compareGolden(g, same); len(d) != 0 {
		t.Errorf("equal statistics differ: %v", d)
	}
	moved := same
	moved.Ticks = 150
	moved.Flows = []goldenFlow{g.Flows[0], {Name: "b", Sent: 5, Delivered: 4, Timeouts: 1}}
	moved.ShardDigests = []string{"00aa", "00cc"}
	if d := compareGolden(g, moved); len(d) != 3 {
		t.Errorf("want a ticks, a flow and a digest difference, got %v", d)
	}
	if d := compareGolden(g, goldenStats{Ticks: 151}); len(d) != 2 {
		t.Errorf("missing flows and shards must be reported, got %v", d)
	}
	// A golden recorded for another seed or scale does not apply.
	if _, ok, err := loadGolden(iterConfig{Workload: "p1-traffic", Seed: 7, Scale: defaultScale}); ok || err != nil {
		t.Errorf("loadGolden for seed 7: ok %v err %v", ok, err)
	}
	if _, ok, err := loadGolden(iterConfig{Workload: "p1-traffic", Seed: 42, Scale: defaultScale}); !ok || err != nil {
		t.Errorf("loadGolden for the default seed and scale: ok %v err %v", ok, err)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{name: "tick_p50_ms", better: "lower", bound: 0.10}
	higher := metricDef{name: "virt_s_per_wall_s", better: "higher", bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100.5}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name       string
		base, cand []float64
		def        metricDef
		want       verdict
	}{
		{"same", steady, steady, lower, pass},
		{"8% slower is inside the bound", steady, shift(steady, 1.08), lower, pass},
		{"15% slower fails", steady, shift(steady, 1.15), lower, fail},
		{"15% less throughput fails", steady, shift(steady, 0.85), higher, fail},
		{"15% more throughput passes", steady, shift(steady, 1.15), higher, pass},
		{"noisy baseline cannot resolve", []float64{80, 100, 120, 140, 60}, []float64{100, 101, 99, 100, 102}, lower, unresolved},
		{"every run better beats the noise", []float64{80, 100, 120, 140, 60}, []float64{50, 51, 49, 50, 52}, lower, pass},
	} {
		if _, v := judge(tc.base, tc.cand, tc.def); v != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, v, tc.want)
		}
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the tables the
// binary reports from in step: same workloads, same metrics, same units,
// directions and bounds.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the binary has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, binary %q", i, w.Name, workloads[i].name)
		}
	}
	var e2e, layer []metricDef
	for _, d := range endToEnd {
		if d.listed {
			e2e = append(e2e, d)
		} else {
			d.bound = 0 // BENCHMARK.json's per_layer entries carry no bound
			layer = append(layer, d)
		}
	}
	layer = append(layer, perLayer...)
	if len(b.EndToEnd) != len(e2e) {
		t.Fatalf("end_to_end: BENCHMARK.json has %d metrics, the binary %d", len(b.EndToEnd), len(e2e))
	}
	for i, m := range b.EndToEnd {
		if got := (metricDef{name: m.Name, unit: m.Unit, better: m.Better, bound: m.Bound, listed: true}); got != e2e[i] {
			t.Errorf("end_to_end[%d]: BENCHMARK.json %+v, binary %+v", i, got, e2e[i])
		}
	}
	if len(b.PerLayer) != len(layer) {
		t.Fatalf("per_layer: BENCHMARK.json has %d metrics, the binary %d", len(b.PerLayer), len(layer))
	}
	for i, m := range b.PerLayer {
		if got := (metricDef{name: m.Name, unit: m.Unit, better: m.Better}); got != layer[i] {
			t.Errorf("per_layer[%d]: BENCHMARK.json %+v, binary %+v", i, got, layer[i])
		}
	}
	if b.RunSeconds < 1 || len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", b.RunSeconds, b.Paths)
	}
}

func TestContractLineSelectsThePass(t *testing.T) {
	wr := workloadResult{
		Correct: true, Attempted: 10,
		EndToEnd: map[string]metric{"tick_p50_ms": {Value: 3, Unit: "ms", N: 100}, "commit_p50_ms": {Value: 0.4, Unit: "ms", N: 100}},
		PerLayer: map[string]metric{"graph.query_us": {Value: 0.03, Unit: "us", N: 5}},
	}
	listed := 0
	for _, d := range endToEnd {
		if d.listed {
			listed++
		}
	}
	e2e := contractLine(wr, options{endToEnd: true})
	if len(e2e.Metrics) != listed || e2e.Metrics["tick_p50_ms"] != (metric{Value: 3, Unit: "ms"}) {
		t.Errorf("-trace 0 metrics: %v", e2e.Metrics)
	}
	if _, ok := e2e.Metrics["commit_p50_ms"]; ok {
		t.Error("-trace 0 must not carry a workload-specific metric")
	}
	layer := contractLine(wr, options{perLayer: true})
	if want := len(endToEnd) - listed + len(perLayer); len(layer.Metrics) != want {
		t.Errorf("-trace 1 carries %d metrics, want %d", len(layer.Metrics), want)
	}
	if layer.Metrics["commit_p50_ms"].Value != 0.4 || layer.Metrics["graph.query_us"].Value != 0.03 {
		t.Errorf("-trace 1 metrics: %v", layer.Metrics)
	}
	if m, ok := layer.Metrics["readpath.resyncs"]; !ok || m.Value != 0 || m.Unit != "count" {
		t.Errorf("a metric the workload does not have must read 0 with its unit: %v %v", m, ok)
	}
}

// TestSmoke runs every shape end to end at the smoke size, untraced and
// traced with the layer replay, in this process. It checks what the real
// runs check — no failed operation, no failed correctness check, the same
// report traced and untraced — and that every goroutine the harness
// started has been joined when an iteration returns. No goroutine is ever
// handed t.Logf: the shapes log nowhere.
func TestSmoke(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, wl := range workloads {
		cfg := iterConfig{Workload: wl.name, Seed: 42, Scale: defaultScale, Smoke: true}
		plain, err := runIteration(cfg)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		cfg.Traced = true
		cfg.TraceFile = t.TempDir() + "/trace.json"
		traced, err := runIteration(cfg)
		if err != nil {
			t.Fatalf("%s traced: %v", wl.name, err)
		}
		for _, res := range []*iterResult{plain, traced} {
			if len(res.Failures) != 0 || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (traced %v): attempted %d, failed %d, failures %v",
					wl.name, res.Config.Traced, res.Attempted, res.Failed, res.Failures)
			}
			if res.Ticks != smokeTicks-warmupTicks || len(res.TickMs) != res.Ticks || res.SetupS <= 0 {
				t.Errorf("%s: %d measured ticks, %d samples, set-up %v s", wl.name, res.Ticks, len(res.TickMs), res.SetupS)
			}
		}
		if plain.ReportSHA != traced.ReportSHA {
			t.Errorf("%s: traced and untraced reports differ", wl.name)
		}
		for _, name := range []string{"constellation.snapshot_ms", "orbit.propagate_ms", "graph.query_us", "scenario.parse_ms"} {
			if traced.Layer[name].Value <= 0 {
				t.Errorf("%s: per-layer metric %s = %v", wl.name, name, traced.Layer[name])
			}
		}
		switch wl.shape {
		case shapeAgents:
			if len(plain.CommitMs) != plain.Ticks || traced.Layer["hostlink.proposals_per_tick"].Value <= 0 {
				t.Errorf("%s: %d commit samples, proposals/tick %v", wl.name, len(plain.CommitMs), traced.Layer["hostlink.proposals_per_tick"])
			}
		case shapeReadpath:
			if want := plain.Ticks * numReplicas * subsPerReplica; len(plain.SubLagMs) != want {
				t.Errorf("%s: %d subscriber lag samples, want %d", wl.name, len(plain.SubLagMs), want)
			}
			if len(plain.GetRefreshMs) != plain.Ticks || len(plain.GetHitUs) != plain.Ticks*(getPasses-1)*32 {
				t.Errorf("%s: %d refresh and %d hit samples", wl.name, len(plain.GetRefreshMs), len(plain.GetHitUs))
			}
		}
	}
	// The fan-out tier's own connection goroutines and the HTTP servers'
	// connection handlers exit on their own shortly after close; give them
	// a moment, then insist nothing is left.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<20)
		t.Errorf("%d goroutines before the smoke runs, %d after:\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}
