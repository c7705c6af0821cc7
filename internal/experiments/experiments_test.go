package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// opts uses quick mode with artifacts in a temp dir.
func opts(t *testing.T) Options {
	t.Helper()
	return Options{OutDir: t.TempDir()}
}

func checkReport(t *testing.T, rep Report, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", rep.ID, err)
	}
	if !rep.Pass {
		t.Errorf("%s did not reproduce the paper's claim:\n  %s",
			rep.ID, strings.Join(rep.Lines, "\n  "))
	}
	for _, a := range rep.Artifacts {
		fi, err := os.Stat(a)
		if err != nil || fi.Size() == 0 {
			t.Errorf("%s: artifact %s missing or empty", rep.ID, a)
		}
	}
	t.Logf("%s (%s):\n  %s", rep.ID, rep.Title, strings.Join(rep.Lines, "\n  "))
}

func TestFig1(t *testing.T) {
	o := opts(t)
	rep, err := Fig1(o)
	checkReport(t, rep, err)
	if len(rep.Artifacts) != 1 || filepath.Base(rep.Artifacts[0]) != "fig1_starlink.svg" {
		t.Errorf("artifacts = %v", rep.Artifacts)
	}
}

func TestFig3(t *testing.T) {
	rep, err := Fig3(opts(t))
	checkReport(t, rep, err)
}

func TestFig4(t *testing.T) {
	rep, err := Fig4(opts(t))
	checkReport(t, rep, err)
}

func TestFig5(t *testing.T) {
	rep, err := Fig5(opts(t))
	checkReport(t, rep, err)
}

func TestFig6(t *testing.T) {
	rep, err := Fig6(opts(t))
	checkReport(t, rep, err)
}

func TestFig7And8(t *testing.T) {
	rep, err := Fig7And8(opts(t))
	checkReport(t, rep, err)
}

func TestCostTable(t *testing.T) {
	rep, err := CostTable(opts(t))
	checkReport(t, rep, err)
}

func TestCalcTime(t *testing.T) {
	rep, err := CalcTime(opts(t))
	checkReport(t, rep, err)
}

func TestFig10(t *testing.T) {
	rep, err := Fig10(opts(t))
	checkReport(t, rep, err)
}

func TestFig11(t *testing.T) {
	rep, err := Fig11(opts(t))
	checkReport(t, rep, err)
}

func TestNetemQuantization(t *testing.T) {
	rep, err := NetemQuantization(opts(t))
	checkReport(t, rep, err)
}

func TestProcessingDelayModelReport(t *testing.T) {
	rep, err := ProcessingDelayModelReport(opts(t))
	checkReport(t, rep, err)
}

func TestAblationShellCount(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-shell run in -short mode")
	}
	rep, err := AblationShellCount(opts(t))
	checkReport(t, rep, err)
}

func TestAblationKeplerVsSGP4(t *testing.T) {
	if testing.Short() {
		t.Skip("double run in -short mode")
	}
	rep, err := AblationKeplerVsSGP4(opts(t))
	checkReport(t, rep, err)
}

func TestAblationImpairments(t *testing.T) {
	if testing.Short() {
		t.Skip("double run in -short mode")
	}
	rep, err := AblationImpairments(opts(t))
	checkReport(t, rep, err)
}

func TestAblationFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("double run in -short mode")
	}
	rep, err := AblationFaults(opts(t))
	checkReport(t, rep, err)
}

// TestArtifactsRepeat runs every artifact-writing experiment twice, into
// two directories, and requires byte-identical files: identical
// configurations must give identical runs, down to the last printed digit.
func TestArtifactsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the artifact-writing experiments twice in -short mode")
	}
	writers := []func(Options) (Report, error){Fig1, Fig3, Fig4, Fig5, Fig6, Fig7And8, Fig10, Fig11}
	dirs := [2]string{t.TempDir(), t.TempDir()}
	for _, dir := range dirs {
		for _, run := range writers {
			if rep, err := run(Options{OutDir: dir}); err != nil {
				t.Fatalf("%s: %v", rep.ID, err)
			}
		}
	}
	first, err := os.ReadDir(dirs[0])
	if err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadDir(dirs[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(second) || len(first) == 0 {
		t.Fatalf("artifacts: %d in the first run, %d in the second", len(first), len(second))
	}
	for _, e := range first {
		a, err := os.ReadFile(filepath.Join(dirs[0], e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirs[1], e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between two identical runs", e.Name())
		}
	}
}
