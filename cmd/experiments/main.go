// Command experiments regenerates every table and figure of the paper's
// evaluation (the IDs in suite below) and prints a paper-vs-measured
// report.
//
// Usage:
//
//	experiments [-full] [-out results/] [-only F4,F11]
//
// Without -full, shortened runs with identical structure are used; with
// -full the paper's 10–15 minute experiment durations and the SGP4
// propagator are used (several minutes of wall-clock time).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"celestial/internal/experiments"
)

// entry is one experiment of the suite, under the ID -only selects it by.
type entry struct {
	id  string
	run func(experiments.Options) (experiments.Report, error)
}

// suite lists the experiments in report order.
func suite(ablations bool) []entry {
	all := []entry{
		{"F1", experiments.Fig1},
		{"F3", experiments.Fig3},
		{"F4", experiments.Fig4},
		{"F5", experiments.Fig5},
		{"F6", experiments.Fig6},
		{"F7/F8", experiments.Fig7And8},
		{"T-cost", experiments.CostTable},
		{"T-calc", experiments.CalcTime},
		{"T-acc", experiments.NetemQuantization},
		{"T-base", experiments.ProcessingDelayModelReport},
		{"F10", experiments.Fig10},
		{"F11", experiments.Fig11},
	}
	if ablations {
		all = append(all,
			entry{"A-shells", experiments.AblationShellCount},
			entry{"A-model", experiments.AblationKeplerVsSGP4},
			entry{"A-netem", experiments.AblationImpairments},
			entry{"A-faults", experiments.AblationFaults},
		)
	}
	return all
}

// selectEntries applies the -only list (comma-separated IDs, empty for
// everything) to the suite, keeping suite order. An ID that names no
// experiment is an error listing the ones that exist: a typo must not run
// nothing and report success.
func selectEntries(all []entry, only string) ([]entry, error) {
	if only == "" {
		return all, nil
	}
	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		want[strings.TrimSpace(id)] = true
	}
	var picked []entry
	valid := make([]string, len(all))
	for i, e := range all {
		valid[i] = e.id
		if want[e.id] {
			picked = append(picked, e)
			delete(want, e.id)
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for id := range want {
			unknown = append(unknown, fmt.Sprintf("%q", id))
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown experiment ID %s (valid: %s)", strings.Join(unknown, ", "), strings.Join(valid, ", "))
	}
	return picked, nil
}

func main() {
	full := flag.Bool("full", false, "run the paper's full experiment durations with SGP4")
	out := flag.String("out", "results", "directory for figure/series artifacts (empty disables)")
	only := flag.String("only", "", "comma-separated experiment IDs to run (e.g. F4,F11)")
	ablations := flag.Bool("ablations", false, "also run the design-choice ablations")
	flag.Parse()

	opts := experiments.Options{Full: *full, OutDir: *out}
	selected, err := selectEntries(suite(*ablations), *only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}

	failures := 0
	for _, e := range selected {
		begin := time.Now()
		rep, err := e.run(opts)
		if err != nil {
			log.Printf("experiment %s failed: %v", e.id, err)
			failures++
			continue
		}
		status := "REPRODUCED"
		if !rep.Pass {
			status = "DIVERGED"
			failures++
		}
		fmt.Printf("== %s — %s [%s, %v]\n", rep.ID, rep.Title, status, time.Since(begin).Round(time.Millisecond))
		for _, line := range rep.Lines {
			fmt.Printf("   %s\n", line)
		}
		for _, a := range rep.Artifacts {
			fmt.Printf("   artifact: %s\n", a)
		}
		fmt.Println()
	}
	if failures > 0 {
		fmt.Printf("%d experiment(s) diverged or failed\n", failures)
		os.Exit(1)
	}
	fmt.Println("all experiments reproduced the paper's claims")
}
