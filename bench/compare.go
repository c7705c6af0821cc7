package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// verdict is -compare's judgement of one metric on one workload.
type verdict string

const (
	pass       verdict = "pass"
	fail       verdict = "FAIL"
	unresolved verdict = "unresolved"
)

// judge compares a candidate's runs of one metric against a baseline's.
// The candidate fails when its median is worse than the baseline's by more
// than the bound. Where either side's run-to-run spread is wider than the
// bound the comparison cannot tell a regression from noise and reports
// unresolved — unless every candidate run reads better than every baseline
// run, which no amount of noise explains. ratio is candidate median over
// baseline median.
func judge(base, cand []float64, def metricDef) (ratio float64, v verdict) {
	mb, mc := median(base), median(cand)
	if mb == 0 {
		return 0, unresolved
	}
	ratio = mc / mb
	worse := ratio - 1
	if def.better == "higher" {
		worse = 1 - ratio
	}
	noisy := false
	for _, xs := range [][]float64{base, cand} {
		if sp, ok := spread(xs); ok && sp > def.bound {
			noisy = true
		}
	}
	if noisy {
		allBetter := true
		for _, c := range cand {
			for _, b := range base {
				if (def.better == "lower" && c >= b) || (def.better == "higher" && c <= b) {
					allBetter = false
				}
			}
		}
		if allBetter {
			return ratio, pass
		}
		return ratio, unresolved
	}
	if worse > def.bound {
		return ratio, fail
	}
	return ratio, pass
}

func loadResult(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compareFiles prints, per workload and end-to-end metric, the baseline's
// and the candidate's median over their runs, the ratio with its base, the
// bound and the verdict. It returns an error when any metric fails.
func compareFiles(w io.Writer, basePath, candPath string) error {
	base, err := loadResult(basePath)
	if err != nil {
		return err
	}
	cand, err := loadResult(candPath)
	if err != nil {
		return err
	}
	for _, f := range []struct {
		role string
		path string
		r    resultFile
	}{{"baseline", basePath, base}, {"candidate", candPath, cand}} {
		fmt.Fprintf(w, "%s %s: commit %s, %d runs, seed %d, scale %g, nproc %d, GOMAXPROCS %d, %s\n",
			f.role, f.path, f.r.Commit, len(f.r.Runs), f.r.Seed, f.r.Scale, f.r.NProc, f.r.GOMAXPROCS, f.r.GoVersion)
	}
	if base.Scale != cand.Scale || base.Seed != cand.Seed {
		return fmt.Errorf("the two files were taken at different seeds or scales and do not compare")
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbaseline\tcandidate\tunit\tcandidate/baseline\tbound\tverdict\t")
	failed := 0
	for _, name := range workloadNames(base) {
		for _, d := range endToEnd {
			b, c := valuesOf(base, name, d.name), valuesOf(cand, name, d.name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			ratio, v := judge(b, c, d)
			if v == fail {
				failed++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%.3f\t%.0f%% %s\t%s\t\n",
				name, d.name, median(b), median(c), d.unit, ratio, d.bound*100, d.better, v)
		}
	}
	tw.Flush()
	if failed > 0 {
		return fmt.Errorf("%d metric(s) regressed past their bound", failed)
	}
	return nil
}
