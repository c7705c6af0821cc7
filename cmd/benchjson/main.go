// Command benchjson converts `go test -bench` text output into a JSON
// report, so CI can archive one machine-readable benchmark artifact per
// commit and the performance trajectory stays comparable across PRs.
//
// Usage (mirroring CI's bench smoke / bench json / bench compare steps):
//
//	go test -run 'XXX' -bench . -benchtime 1x ./... | tee bench.txt
//	benchjson -o BENCH_<sha>.json < bench.txt
//	benchjson -compare [-max-alloc-ratio 2] [-require Prefix,...] BENCH_baseline.json BENCH_<sha>.json
//
// The compare mode prints, per benchmark, allocs/op and the custom
// b.ReportMetric values of two archived reports side by side — typically
// the checked-in BENCH_baseline.json and a fresh run — flagging results
// that exist on only one side. Malformed input fails loudly: a file that
// is not a benchjson report (bad JSON, or no benchmark results at all)
// exits non-zero instead of silently comparing nothing. With
// -max-alloc-ratio N the command additionally exits non-zero when any
// benchmark's allocs/op grew by more than that factor — allocation counts
// are deterministic even on shared runners, so this is a reliable
// regression gate.
//
// ns/op is neither recorded nor shown. The input is one cold iteration per
// benchmark (-benchtime 1x), whose time is mostly warm-up: it read 67 ms
// for a Gen2 tick that `go run ./bench` — the benchmark of record for
// anything timed — measures at 18 ms.
//
// With -require, the compare additionally fails when the new report holds
// no benchmark whose name starts with one of the given comma-separated
// prefixes — guarding against a benchmark silently dropping out of the
// suite (build tag slip, renamed function) while the comparison "passes"
// by matching nothing.
//
// Lines that are not benchmark results (pkg headers, PASS/ok trailers) are
// recorded as context where useful and otherwise ignored, but a line that
// looks like a benchmark result yet fails to parse is an error.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// Result is one benchmark line.
type Result struct {
	Name       string  `json:"name"`
	Package    string  `json:"package,omitempty"`
	Iterations int64   `json:"iterations"`
	BytesPerOp float64 `json:"bytes_per_op,omitempty"`
	AllocsPer  float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds custom b.ReportMetric units (e.g. "empty-tick-frac").
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the archived document.
type Report struct {
	GOOS    string   `json:"goos,omitempty"`
	GOARCH  string   `json:"goarch,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	compare := flag.Bool("compare", false, "compare two archived reports: benchjson -compare old.json new.json")
	maxAllocRatio := flag.Float64("max-alloc-ratio", 0,
		"with -compare, fail when any benchmark's allocs/op grew by more than this factor (0 disables)")
	require := flag.String("require", "",
		"with -compare, comma-separated name prefixes the new report must contain at least one result for")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two report files")
			os.Exit(2)
		}
		old, err := loadReport(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		new_, err := loadReport(flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		rows := Compare(old, new_)
		WriteComparison(os.Stdout, rows)
		failed := false
		for _, msg := range AllocRegressions(rows, *maxAllocRatio) {
			fmt.Fprintln(os.Stderr, "benchjson:", msg)
			failed = true
		}
		for _, msg := range MissingRequired(new_, *require) {
			fmt.Fprintln(os.Stderr, "benchjson:", msg)
			failed = true
		}
		if failed {
			os.Exit(1)
		}
		return
	}

	rep, err := Parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// loadReport reads an archived JSON report from disk. A file that decodes
// but contains no benchmark results is rejected: comparing against it
// would silently report nothing.
func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Results) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results (not a benchjson report?)", path)
	}
	return rep, nil
}

// AllocRegressions returns one message per benchmark present in both
// reports whose allocs/op grew by more than maxRatio (including any growth
// from zero allocations). A maxRatio of 0 disables the check.
func AllocRegressions(rows []CompareRow, maxRatio float64) []string {
	if maxRatio <= 0 {
		return nil
	}
	var out []string
	for _, row := range rows {
		if !row.InOld || !row.InNew {
			continue
		}
		switch {
		case row.OldAllocs == 0 && row.NewAllocs > 0:
			out = append(out, fmt.Sprintf("%s: allocs/op regressed from 0 to %.0f", rowLabel(row), row.NewAllocs))
		case row.OldAllocs > 0 && row.NewAllocs > row.OldAllocs*maxRatio:
			out = append(out, fmt.Sprintf("%s: allocs/op regressed %.0f -> %.0f (more than %.1fx)",
				rowLabel(row), row.OldAllocs, row.NewAllocs, maxRatio))
		}
	}
	return out
}

// MissingRequired returns one message per comma-separated name prefix in
// require that matches no result in the report. An empty require disables
// the check.
func MissingRequired(rep *Report, require string) []string {
	var out []string
	for _, prefix := range strings.Split(require, ",") {
		prefix = strings.TrimSpace(prefix)
		if prefix == "" {
			continue
		}
		found := false
		for _, r := range rep.Results {
			if strings.HasPrefix(r.Name, prefix) {
				found = true
				break
			}
		}
		if !found {
			out = append(out, fmt.Sprintf("required benchmark %q missing from the new report", prefix))
		}
	}
	return out
}

// CompareRow is one benchmark's old and new values. A missing side is
// marked by zero values plus the InOld/InNew flags.
type CompareRow struct {
	Name                   string
	Package                string
	OldAllocs, NewAllocs   float64
	OldMetrics, NewMetrics map[string]float64
	InOld, InNew           bool
}

// Compare matches the two reports' results by (package, name) and returns
// one row per benchmark, in the new report's order with old-only rows
// appended in the old report's order.
func Compare(old, new_ *Report) []CompareRow {
	key := func(r Result) string { return r.Package + "\x00" + r.Name }
	oldBy := map[string]Result{}
	for _, r := range old.Results {
		oldBy[key(r)] = r
	}
	seen := map[string]bool{}
	var rows []CompareRow
	for _, r := range new_.Results {
		row := CompareRow{Name: r.Name, Package: r.Package, NewAllocs: r.AllocsPer, NewMetrics: r.Metrics, InNew: true}
		if o, ok := oldBy[key(r)]; ok {
			row.InOld = true
			row.OldAllocs = o.AllocsPer
			row.OldMetrics = o.Metrics
		}
		seen[key(r)] = true
		rows = append(rows, row)
	}
	for _, r := range old.Results {
		if !seen[key(r)] {
			rows = append(rows, CompareRow{Name: r.Name, Package: r.Package, OldAllocs: r.AllocsPer, OldMetrics: r.Metrics, InOld: true})
		}
	}
	return rows
}

// rowLabel renders a row's display name: same-named benchmarks compare per
// package, so the package qualifies the name whenever one is recorded.
func rowLabel(row CompareRow) string {
	if row.Package == "" {
		return row.Name
	}
	return row.Package + "." + row.Name
}

// WriteComparison renders the table for rows from Compare: one line per
// benchmark for allocs/op, then one per custom metric either side
// reported, in name order.
func WriteComparison(w io.Writer, rows []CompareRow) {
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tmetric\told\tnew")
	side := func(in bool, v float64, ok bool) string {
		if !in || !ok {
			return "-"
		}
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
	for _, row := range rows {
		label := rowLabel(row)
		switch {
		case !row.InOld:
			label += " (new)"
		case !row.InNew:
			label += " (gone)"
		}
		fmt.Fprintf(tw, "%s\tallocs/op\t%s\t%s\n", label, side(row.InOld, row.OldAllocs, true), side(row.InNew, row.NewAllocs, true))
		var units []string
		for u := range row.OldMetrics {
			units = append(units, u)
		}
		for u := range row.NewMetrics {
			if _, ok := row.OldMetrics[u]; !ok {
				units = append(units, u)
			}
		}
		sort.Strings(units)
		for _, u := range units {
			o, inOld := row.OldMetrics[u]
			n, inNew := row.NewMetrics[u]
			fmt.Fprintf(tw, "\t%s\t%s\t%s\n", u, side(row.InOld, o, inOld), side(row.InNew, n, inNew))
		}
	}
	tw.Flush()
}

// Parse reads `go test -bench` output into a Report.
func Parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "goos:"):
			rep.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			res, ok, err := parseResult(line, pkg)
			if err != nil {
				return nil, err
			}
			if ok {
				rep.Results = append(rep.Results, res)
			}
		}
	}
	return rep, sc.Err()
}

// parseResult parses one "BenchmarkX-8  N  v1 unit1  v2 unit2 ..." line. A
// lone benchmark name (the runner prints it before the result when output
// interleaves) is skipped; a line that has result fields but a malformed
// iteration count is an error, so corrupted input cannot silently shrink
// the report.
func parseResult(line, pkg string) (Result, bool, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Result{}, false, nil
	}
	name := fields[0]
	// Strip the -GOMAXPROCS suffix so names compare across machines.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false, fmt.Errorf("malformed benchmark line (bad iteration count %q): %q", fields[1], line)
	}
	res := Result{Name: name, Package: pkg, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			// Not recorded: see the package comment.
		case "B/op":
			res.BytesPerOp = v
		case "allocs/op":
			res.AllocsPer = v
		default:
			if res.Metrics == nil {
				res.Metrics = map[string]float64{}
			}
			res.Metrics[unit] = v
		}
	}
	return res, true, nil
}
