package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: celestial
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkTickUpdate/steady-diff-8         	      40	   3583675 ns/op	         0.25 carried-paths/op	         0.5800 empty-tick-frac	  245413 B/op	     992 allocs/op
BenchmarkTickUpdate/from-scratch-8        	      40	  17597944 ns/op	 7256294 B/op	   20435 allocs/op
PASS
ok  	celestial	0.992s
`

func TestParse(t *testing.T) {
	rep, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GOOS != "linux" || rep.GOARCH != "amd64" || !strings.Contains(rep.CPU, "Xeon") {
		t.Errorf("header = %+v", rep)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("results = %d", len(rep.Results))
	}
	r := rep.Results[0]
	if r.Name != "BenchmarkTickUpdate/steady-diff" {
		t.Errorf("name = %q (GOMAXPROCS suffix should be stripped)", r.Name)
	}
	if r.Package != "celestial" || r.Iterations != 40 {
		t.Errorf("result = %+v", r)
	}
	if r.BytesPerOp != 245413 || r.AllocsPer != 992 {
		t.Errorf("std metrics = %+v", r)
	}
	if r.Metrics["empty-tick-frac"] != 0.58 || r.Metrics["carried-paths/op"] != 0.25 {
		t.Errorf("custom metrics = %+v", r.Metrics)
	}
	// One cold iteration's ns/op is not a measurement: it is dropped, not
	// filed under the custom metrics.
	if _, ok := r.Metrics["ns/op"]; ok || len(r.Metrics) != 2 {
		t.Errorf("ns/op was recorded: %+v", r.Metrics)
	}
	if rep.Results[1].Metrics != nil {
		t.Errorf("unexpected custom metrics: %+v", rep.Results[1].Metrics)
	}
}

func TestCompare(t *testing.T) {
	old := &Report{Results: []Result{
		{Name: "BenchmarkA", Package: "p", AllocsPer: 10, Metrics: map[string]float64{"hit-frac": 0.5, "old-only": 1}},
		{Name: "BenchmarkGone", Package: "p", AllocsPer: 50},
	}}
	new_ := &Report{Results: []Result{
		{Name: "BenchmarkA", Package: "p", AllocsPer: 8, Metrics: map[string]float64{"hit-frac": 0.75, "new-only": 2}},
		{Name: "BenchmarkNew", Package: "p", AllocsPer: 7},
	}}
	rows := Compare(old, new_)
	if len(rows) != 3 {
		t.Fatalf("rows = %+v", rows)
	}
	if r := rows[0]; r.Name != "BenchmarkA" || !r.InOld || !r.InNew || r.OldAllocs != 10 || r.NewAllocs != 8 ||
		r.OldMetrics["hit-frac"] != 0.5 || r.NewMetrics["hit-frac"] != 0.75 {
		t.Errorf("matched row = %+v", r)
	}
	if r := rows[1]; r.Name != "BenchmarkNew" || r.InOld || !r.InNew {
		t.Errorf("new-only row = %+v", r)
	}
	if r := rows[2]; r.Name != "BenchmarkGone" || !r.InOld || r.InNew {
		t.Errorf("old-only row = %+v", r)
	}

	var buf strings.Builder
	WriteComparison(&buf, rows)
	out := buf.String()
	want := strings.Join([]string{
		"benchmark            metric     old  new",
		"p.BenchmarkA         allocs/op  10   8",
		"                     hit-frac   0.5  0.75",
		"                     new-only   -    2",
		"                     old-only   1    -",
		"p.BenchmarkNew (new)  allocs/op  -    7",
		"p.BenchmarkGone (gone)  allocs/op  50   -",
	}, "\n") + "\n"
	if squeeze(out) != squeeze(want) {
		t.Errorf("comparison output =\n%swant\n%s", out, want)
	}
	if strings.Contains(out, "ns/op") {
		t.Errorf("comparison output still has a time column:\n%s", out)
	}
}

// squeeze collapses runs of spaces, so the expectation above does not
// depend on the tabwriter's column widths.
func squeeze(s string) string {
	for strings.Contains(s, "  ") {
		s = strings.ReplaceAll(s, "  ", " ")
	}
	return s
}

// TestCompareDistinguishesPackages guards the (package, name) match key:
// same-named benchmarks in different packages must not be conflated.
func TestCompareDistinguishesPackages(t *testing.T) {
	old := &Report{Results: []Result{{Name: "BenchmarkX", Package: "p1", AllocsPer: 1}}}
	new_ := &Report{Results: []Result{{Name: "BenchmarkX", Package: "p2", AllocsPer: 2}}}
	rows := Compare(old, new_)
	if len(rows) != 2 || rows[0].InOld || rows[1].InNew {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestParseIgnoresGarbage(t *testing.T) {
	// Non-benchmark noise and lone benchmark names (the runner prints the
	// name alone when output interleaves with logs) are skipped...
	rep, err := Parse(strings.NewReader("hello\nBenchmarkBroken\nok done\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 0 {
		t.Fatalf("results = %+v", rep.Results)
	}
	// ...but a line shaped like a result with a corrupt iteration count is
	// an error, not a silent skip.
	if _, err := Parse(strings.NewReader("BenchmarkAlso xx 12 ns/op\n")); err == nil {
		t.Fatal("malformed benchmark line accepted")
	}
}

func TestLoadReportRejectsMalformed(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := map[string]string{
		"bench text, not JSON": "BenchmarkX-8 10 5 ns/op\nPASS\n",
		"wrong JSON shape":     `["not", "a", "report"]`,
		"empty report":         `{}`,
		"no results":           `{"goos": "linux", "results": []}`,
	}
	for name, content := range cases {
		if _, err := loadReport(write("bad.json", content)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	good := write("good.json", `{"results": [{"name": "BenchmarkA", "iterations": 1}]}`)
	if _, err := loadReport(good); err != nil {
		t.Errorf("valid report rejected: %v", err)
	}
	if _, err := loadReport(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestAllocRegressions(t *testing.T) {
	old := &Report{Results: []Result{
		{Name: "BenchmarkSteady", Package: "p", AllocsPer: 100},
		{Name: "BenchmarkWorse", Package: "p", AllocsPer: 100},
		{Name: "BenchmarkZero", Package: "p", AllocsPer: 0},
		{Name: "BenchmarkGone", Package: "p", AllocsPer: 5},
	}}
	new_ := &Report{Results: []Result{
		{Name: "BenchmarkSteady", Package: "p", AllocsPer: 199},
		{Name: "BenchmarkWorse", Package: "p", AllocsPer: 201},
		{Name: "BenchmarkZero", Package: "p", AllocsPer: 1},
		{Name: "BenchmarkNew", Package: "p", AllocsPer: 1000},
	}}
	rows := Compare(old, new_)
	if got := AllocRegressions(rows, 0); got != nil {
		t.Errorf("disabled gate flagged %v", got)
	}
	got := AllocRegressions(rows, 2)
	if len(got) != 2 {
		t.Fatalf("regressions = %v, want 2 (Worse and Zero)", got)
	}
	for _, msg := range got {
		if !strings.Contains(msg, "BenchmarkWorse") && !strings.Contains(msg, "BenchmarkZero") {
			t.Errorf("unexpected regression: %s", msg)
		}
	}
}

func TestMissingRequired(t *testing.T) {
	rep := &Report{Results: []Result{
		{Name: "BenchmarkAPI/info-cached", Package: "p"},
		{Name: "BenchmarkTickUpdate/steady-diff", Package: "p"},
	}}
	if got := MissingRequired(rep, ""); got != nil {
		t.Errorf("empty require flagged %v", got)
	}
	if got := MissingRequired(rep, "BenchmarkAPI, BenchmarkTickUpdate"); got != nil {
		t.Errorf("satisfied require flagged %v", got)
	}
	got := MissingRequired(rep, "BenchmarkAPI,BenchmarkGone")
	if len(got) != 1 || !strings.Contains(got[0], "BenchmarkGone") {
		t.Errorf("missing prefix not flagged: %v", got)
	}
}
