// Command bench is the repository's benchmark of record: four checked-in
// scenario workloads run through the same scenario.Runner -> coordinator
// path users run, measured end to end (untraced) and layer by layer (a
// traced pass followed by a layer replay). See README.md in this directory
// for the workload and metric glossary and the A/A protocol.
//
// Usage:
//
//	go run ./bench                                  all workloads, end to end and per layer
//	go run ./bench -workload p1-traffic -trace 0    one workload, end to end only
//	go run ./bench -workload p1-traffic -trace 1    one workload, per layer only
//	go run ./bench -runs 10 -out a                  repeat; medians and quartiles
//	go run ./bench -compare a/result.json b/result.json
//	go run ./bench -smoke                           every shape at a tiny size
//
// With -workload the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"
)

// options are the parent process's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	// endToEnd and perLayer select the passes: -trace 0 the first, -trace 1
	// the second, neither flag both.
	endToEnd, perLayer bool
	scale              float64
	smoke              bool
	runs               int
	outDir             string
	// updateGolden re-records golden/<workload>.json from this run instead
	// of checking against it.
	updateGolden bool
}

// workloadResult is one workload's aggregated result over a run's
// iterations.
type workloadResult struct {
	Workload string `json:"workload"`
	// Ticks is the measured tick count of one iteration; Iterations how
	// many untraced iterations the end-to-end numbers pool.
	Ticks      int               `json:"ticks"`
	Iterations int               `json:"iterations"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Hangs      int               `json:"hangs"`
	Failures   []string          `json:"failures,omitempty"`
	EndToEnd   map[string]metric `json:"end_to_end,omitempty"`
	PerLayer   map[string]metric `json:"per_layer,omitempty"`

	golden goldenStats // the run's simulated statistics, for -update-golden
}

// resultFile is what -out/result.json holds: where and how the numbers
// were taken, then every run.
type resultFile struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Seconds    float64 `json:"seconds"`
	// Runs[i] is the i-th repetition (-runs), one entry per workload.
	Runs [][]workloadResult `json:"runs"`
}

func main() {
	var o options
	var child, result, trace string
	var compare bool
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all four)")
	flag.Int64Var(&o.seed, "seed", 42, "scenario seed, substituted into the workload's `seed =`")
	flag.Float64Var(&o.seconds, "seconds", 10, "measure each workload for at least this long, in whole iterations")
	flag.StringVar(&trace, "trace", "", "0: end-to-end metrics only; 1: per-layer metrics only (traced pass + layer replay); default both")
	flag.Float64Var(&o.scale, "scale", defaultScale, "common factor on every workload's nominal tick count")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny size: one 528-satellite shell, 20 ticks, every shape")
	flag.IntVar(&o.runs, "runs", 1, "repeat each workload this many times and report median and quartiles")
	flag.StringVar(&o.outDir, "out", ".bench_out", "directory for result.json, traces and hang dumps")
	flag.BoolVar(&compare, "compare", false, "compare two result files: bench -compare a.json b.json")
	flag.BoolVar(&o.updateGolden, "update-golden", false, "rewrite bench/golden/*.json from this run (run from the repository root)")
	flag.StringVar(&child, "child", "", "internal: run one iteration described by this JSON config")
	flag.StringVar(&result, "result", "", "internal: where the -child iteration writes its result")
	flag.Parse()

	var err error
	switch {
	case child != "":
		err = childMain(child, result)
	case compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("usage: bench -compare a.json b.json")
		} else {
			err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	case trace != "" && trace != "0" && trace != "1":
		err = fmt.Errorf("-trace %q: want 0 or 1", trace)
	default:
		o.endToEnd, o.perLayer = trace != "1", trace != "0"
		err = parentMain(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// parentMain runs the selected workloads -runs times, prints every metric
// by name, writes result.json, and fails when any correctness check did.
func parentMain(o options) error {
	if o.seconds <= 0 || o.scale <= 0 || o.scale > 1 || o.runs < 1 {
		return fmt.Errorf("-seconds and -runs must be positive and -scale in (0, 1]")
	}
	selected := workloads
	if o.workload != "" {
		wl, err := lookupWorkload(o.workload)
		if err != nil {
			return err
		}
		selected = []workload{wl}
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	file := resultFile{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Seed: o.seed, Scale: o.scale, Seconds: o.seconds,
	}
	fmt.Printf("bench: nproc %d, GOMAXPROCS %d, %s, commit %s, seed %d, scale %g\n",
		file.NProc, file.GOMAXPROCS, file.GoVersion, file.Commit, o.seed, o.scale)

	correct := true
	var last workloadResult
	for run := 0; run < o.runs; run++ {
		var results []workloadResult
		for _, wl := range selected {
			wr, err := runWorkload(wl, o)
			if err != nil {
				return err
			}
			printWorkload(os.Stdout, wr, o)
			if o.updateGolden {
				if err := writeGolden(wr, o); err != nil {
					return err
				}
			}
			correct = correct && wr.Correct
			results = append(results, wr)
			last = wr
		}
		file.Runs = append(file.Runs, results)
	}
	if o.runs > 1 {
		printSpread(os.Stdout, file)
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.outDir, "result.json"), data, 0o644); err != nil {
		return err
	}
	if o.workload != "" {
		// The contract line: exactly the metrics of the requested pass.
		line, err := json.Marshal(contractLine(last, o))
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	if !correct {
		return fmt.Errorf("a correctness check failed")
	}
	return nil
}

// commit identifies the source tree by asking git, without looking above
// the working directory; "unknown" outside a repository (the acceptance
// checkout is not one).
func commit() string {
	cwd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=12")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(cwd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runWorkload runs one workload once: untraced iterations until they have
// measured -seconds of ticks (the end-to-end numbers), and one traced
// iteration with the layer replay (the per-layer numbers), as -trace
// selects. Every iteration is a child process under a hang deadline.
func runWorkload(wl workload, o options) (workloadResult, error) {
	wr := workloadResult{Workload: wl.name, Correct: true}
	cfg := iterConfig{Workload: wl.name, Seed: o.seed, Scale: o.scale, Smoke: o.smoke}
	planned, err := plannedOps(wl, cfg)
	if err != nil {
		return wr, err
	}
	run := func(c iterConfig) (*iterResult, error) {
		res, hangs, err := iterate(wl, c, o.outDir)
		// Everything a hung attempt had outstanding counts as failed.
		wr.Hangs += hangs
		wr.Attempted += hangs * planned
		wr.Failed += hangs * planned
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
		wr.Attempted += res.Attempted
		wr.Failed += res.Failed
		wr.Failures = append(wr.Failures, res.Failures...)
		return res, nil
	}

	var untraced []*iterResult
	measured := 0.0
	for len(untraced) == 0 || (o.endToEnd && measured < o.seconds) {
		res, err := run(cfg)
		if err != nil {
			return wr, err
		}
		untraced = append(untraced, res)
		measured += res.WindowS
		if o.smoke {
			break
		}
	}
	wr.Ticks, wr.Iterations = untraced[0].Ticks, len(untraced)
	e2e := endToEndMetrics(untraced)
	if o.endToEnd {
		wr.EndToEnd = e2e
	}

	all := untraced
	if o.perLayer {
		tcfg := cfg
		tcfg.Traced = true
		tcfg.TraceFile = filepath.Join(o.outDir, wl.name+"-trace.json")
		traced, err := run(tcfg)
		if err != nil {
			return wr, err
		}
		all = append(all, traced)
		wr.PerLayer = traced.Layer
		if !o.endToEnd {
			// The workload's own end-to-end metrics ride with the
			// per-layer pass, from its untraced iteration.
			for _, d := range endToEnd {
				if m, ok := e2e[d.name]; ok && !d.listed {
					wr.PerLayer[d.name] = m
				}
			}
		}
		// Like with like: the traced iteration's median tick against the
		// untraced iterations' median one.
		var medians []float64
		for _, it := range untraced {
			medians = append(medians, median(it.TickMs))
		}
		if base := median(medians); base > 0 && len(traced.TickMs) > 0 {
			wr.PerLayer["bench.trace_overhead_frac"] = metric{Value: median(traced.TickMs)/base - 1, Unit: "ratio"}
		}
		wr.PerLayer["hostlink.hangs"] = metric{Value: float64(wr.Hangs), Unit: "count"}
	}

	// Correctness: every iteration of a seed must produce the same report,
	// byte for byte — traced or not — and the default seed's must carry
	// the checked-in golden statistics.
	for _, res := range all[1:] {
		if res.ReportSHA != all[0].ReportSHA {
			wr.Failures = append(wr.Failures, fmt.Sprintf("report differs between iterations (traced %v vs %v): sha256 %s vs %s",
				all[0].Config.Traced, res.Config.Traced, all[0].ReportSHA, res.ReportSHA))
			break
		}
	}
	wr.golden = all[0].Golden
	if want, ok, err := loadGolden(cfg); err != nil {
		return wr, err
	} else if ok && !o.updateGolden {
		wr.Failures = append(wr.Failures, compareGolden(want, wr.golden)...)
	}
	if len(wr.Failures) > 0 {
		// A failed check fails every operation of the workload.
		wr.Correct = false
		wr.Failed = wr.Attempted
	}
	return wr, nil
}

// plannedOps is how many operations one iteration of a workload attempts,
// known before it runs: what a hung attempt leaves outstanding.
func plannedOps(wl workload, cfg iterConfig) (int, error) {
	text, err := files.ReadFile("workloads/" + wl.name + ".toml")
	if err != nil {
		return 0, err
	}
	sc, err := parseScenario(text)
	if err != nil {
		return 0, err
	}
	ticks, err := prepare(sc, cfg)
	if err != nil {
		return 0, err
	}
	ops := ticks + 1 // the cold start is an update too
	switch wl.shape {
	case shapeAgents:
		shards := sc.Hosts.Agents
		if shards == 0 {
			shards = sc.Config.Hosts
		}
		ops += shards * ticks // one proposal per shard per changed tick
	case shapeReadpath:
		ops += ticks*getPasses*32 + numReplicas*subsPerReplica*(ticks+1)
	}
	return ops, nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// endToEndMetrics reduces the untraced iterations. Set-up and memory take
// the median over iterations. The tick median and the speed come from the
// least-disturbed iteration — the one with the lowest median tick: on a
// shared box interference only ever slows an iteration down, and it comes in
// spells of a few seconds that spoil one or two iterations of a run, so the
// best of identical iterations is the steadiest estimate of what the code
// costs. Tail percentiles and the workload's own latencies pool the samples
// of all iterations, so the percentile rule sees every sample.
func endToEndMetrics(its []*iterResult) map[string]metric {
	out := map[string]metric{}
	var setup, rss, speed, tick, allTicks, commit, lag, refresh, hit []float64
	best := math.Inf(1)
	for _, it := range its {
		setup = append(setup, it.SetupS)
		rss = append(rss, it.PeakRSSMB)
		if m := median(it.TickMs); len(it.TickMs) > 0 && m < best {
			best, tick = m, it.TickMs
			speed = []float64{it.VirtS / (sum(it.TickMs) / 1000)}
		}
		allTicks = append(allTicks, it.TickMs...)
		commit = append(commit, it.CommitMs...)
		lag = append(lag, it.SubLagMs...)
		refresh = append(refresh, it.GetRefreshMs...)
		hit = append(hit, it.GetHitUs...)
	}
	for _, m := range []struct {
		name string
		xs   []float64
		q    float64
	}{
		{"setup_s", setup, 0.5},
		{"virt_s_per_wall_s", speed, 0.5},
		{"tick_p50_ms", tick, 0.5},
		{"tick_p95_ms", allTicks, 0.95},
		{"peak_rss_mb", rss, 0.5},
		{"commit_p50_ms", commit, 0.5},
		{"commit_p95_ms", commit, 0.95},
		{"sub_lag_p50_ms", lag, 0.5},
		{"sub_lag_p95_ms", lag, 0.95},
		{"get_refresh_p50_ms", refresh, 0.5},
		{"get_hit_p50_us", hit, 0.5},
	} {
		def, _ := lookupDef(endToEnd, m.name)
		if v, ok := percentile(m.xs, m.q); ok {
			out[m.name] = metric{Value: v, Unit: def.unit, N: len(m.xs)}
		}
	}
	return out
}

// contractResult is the one-line result the acceptance protocol reads.
type contractResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// contractLine selects the metrics BENCHMARK.json promises for the pass:
// with -trace 0 the end-to-end metrics it lists as such, with -trace 1 every
// other metric — the per-layer table plus the end-to-end metrics only
// -compare gates — reporting 0 for those this workload does not have. With
// neither, everything that was measured.
func contractLine(wr workloadResult, o options) contractResult {
	out := contractResult{Correct: wr.Correct, Attempted: max(wr.Attempted, 1), Failed: wr.Failed, Metrics: map[string]metric{}}
	for _, d := range endToEnd {
		m, ok := wr.EndToEnd[d.name]
		if !ok {
			m = wr.PerLayer[d.name]
		}
		if (d.listed && o.endToEnd) || (!d.listed && o.perLayer) {
			out.Metrics[d.name] = metric{Value: m.Value, Unit: d.unit}
		}
	}
	if o.perLayer {
		for _, d := range perLayer {
			out.Metrics[d.name] = metric{Value: wr.PerLayer[d.name].Value, Unit: d.unit}
		}
	}
	return out
}

// printWorkload prints one workload's metrics by name with units, sample
// counts and bounds.
func printWorkload(w *os.File, wr workloadResult, o options) {
	status := "correct"
	if !wr.Correct {
		status = "INCORRECT"
	}
	fmt.Fprintf(w, "\n== %s: %d measured ticks x %d iterations, %s, %d operations attempted, %d failed, %d hangs\n",
		wr.Workload, wr.Ticks, wr.Iterations, status, wr.Attempted, wr.Failed, wr.Hangs)
	for _, f := range wr.Failures {
		fmt.Fprintf(w, "   FAILED CHECK: %s\n", f)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	row := func(name string, m metric, bound float64) {
		n, b := "", ""
		if m.N > 0 {
			n = fmt.Sprintf("n=%d", m.N)
		}
		if bound > 0 {
			b = fmt.Sprintf("bound %.0f%%", bound*100)
		}
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\t%s\n", name, m.Value, m.Unit, n, b)
	}
	if len(wr.EndToEnd) > 0 {
		fmt.Fprintln(tw, "  end to end (untraced)\t\t\t\t")
		for _, d := range endToEnd {
			if m, ok := wr.EndToEnd[d.name]; ok {
				row(d.name, m, d.bound)
			}
		}
	}
	if len(wr.PerLayer) > 0 {
		fmt.Fprintln(tw, "  per layer (traced pass + layer replay)\t\t\t\t")
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			if m, ok := wr.PerLayer[d.name]; ok {
				row(d.name, m, d.bound)
			}
		}
		fmt.Fprintf(tw, "  trace written to %s\t\t\t\t\n", filepath.Join(o.outDir, wr.Workload+"-trace.json"))
	}
	tw.Flush()
}

// printSpread reports, for -runs N, each end-to-end metric's median and
// quartiles over the runs and the interquartile spread next to its bound.
func printSpread(w *os.File, file resultFile) {
	fmt.Fprintf(w, "\n== spread over %d runs (quartiles by the exclusive method; spread = IQR / median)\n", len(file.Runs))
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  workload\tmetric\tq1\tmedian\tq3\tspread\tbound\t")
	for _, name := range workloadNames(file) {
		for _, d := range endToEnd {
			xs := valuesOf(file, name, d.name)
			q1, q2, q3, ok := quartiles(xs)
			if !ok {
				continue
			}
			sp, _ := spread(xs)
			fmt.Fprintf(tw, "  %s\t%s\t%.6g\t%.6g\t%.6g\t%.1f%%\t%.0f%%\t\n", name, d.name, q1, q2, q3, sp*100, d.bound*100)
		}
	}
	tw.Flush()
}

// workloadNames lists the workloads a result file holds, in table order.
func workloadNames(file resultFile) []string {
	seen := map[string]bool{}
	for _, run := range file.Runs {
		for _, wr := range run {
			seen[wr.Workload] = true
		}
	}
	var names []string
	for _, wl := range workloads {
		if seen[wl.name] {
			names = append(names, wl.name)
		}
	}
	return names
}

// valuesOf collects one end-to-end metric of one workload over a file's
// runs.
func valuesOf(file resultFile, workload, name string) []float64 {
	var xs []float64
	for _, run := range file.Runs {
		for _, wr := range run {
			if m, ok := wr.EndToEnd[name]; ok && wr.Workload == workload {
				xs = append(xs, m.Value)
			}
		}
	}
	return xs
}

// writeGolden records a workload's golden statistics for this seed and
// scale. It writes into the source tree, so it must run from the
// repository root.
func writeGolden(wr workloadResult, o options) error {
	data, err := json.MarshalIndent(goldenFile{Seed: o.seed, Scale: o.scale, Golden: wr.golden}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("bench", "golden", wr.Workload+".json"), append(data, '\n'), 0o644)
}
