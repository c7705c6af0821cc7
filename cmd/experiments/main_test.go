package main

import (
	"bytes"
	"strings"
	"testing"
)

func ids(es []entry) string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.id
	}
	return strings.Join(out, " ")
}

func TestSelectEntries(t *testing.T) {
	all := suite(false)
	for _, c := range []struct{ only, want string }{
		{"", ids(all)},
		{"T-calc", "T-calc"},
		{"F11, F4", "F4 F11"}, // suite order, blanks trimmed
		{"F7/F8,F7/F8", "F7/F8"},
	} {
		got, err := selectEntries(all, c.only)
		if err != nil || ids(got) != c.want {
			t.Errorf("-only %q selected %q, %v; want %q", c.only, ids(got), err, c.want)
		}
	}
	// The ablations exist only with -ablations.
	if _, err := selectEntries(all, "A-model"); err == nil {
		t.Error("an ablation was selectable without -ablations")
	}
	if got, err := selectEntries(suite(true), "A-model"); err != nil || ids(got) != "A-model" {
		t.Errorf("-ablations -only A-model selected %q, %v", ids(got), err)
	}
}

// TestSelectEntriesRejectsUnknownIDs is the regression test of
// `experiments -only NOPE`, which ran nothing, printed "all experiments
// reproduced the paper's claims" and exited 0.
func TestSelectEntriesRejectsUnknownIDs(t *testing.T) {
	for _, only := range []string{"NOPE", "F4,NOPE", "f4", "F7", "F4,"} {
		got, err := selectEntries(suite(false), only)
		if err == nil {
			t.Errorf("-only %q selected %q without an error", only, ids(got))
			continue
		}
		if got != nil {
			t.Errorf("-only %q: an error and %d experiments to run", only, len(got))
		}
		for _, want := range []string{"F1", "F7/F8", "T-calc", "F11"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("-only %q: error does not list the valid ID %s: %v", only, want, err)
			}
		}
	}
	_, err := selectEntries(suite(false), "ZZ, NOPE")
	if err == nil || !strings.Contains(err.Error(), `"NOPE", "ZZ"`) {
		t.Errorf("unknown IDs are not all named, in order: %v", err)
	}
}

// TestRunExitCodes runs command lines in process: flag errors exit 2 before
// any experiment runs, and a reproduced experiment prints its report line
// and exits 0.
func TestRunExitCodes(t *testing.T) {
	for _, tt := range []struct {
		args   []string
		code   int
		stderr string // stderr must contain it
		stdout string // stdout must contain it
	}{
		{args: []string{"-no-such-flag"}, code: 2, stderr: "no-such-flag"},
		{args: []string{"-only", "NOPE"}, code: 2, stderr: `unknown experiment ID "NOPE"`},
		{args: []string{"-only", "A-model"}, code: 2, stderr: "valid: F1"},
		{args: []string{"-only", "F1", "extra"}, code: 2, stderr: `unexpected argument "extra"`},
		{args: []string{"-h"}, code: 0, stderr: "-ablations"},
		{args: []string{"-only", "T-acc", "-out", ""}, code: 0, stdout: "all experiments reproduced"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tt.args, &stdout, &stderr); code != tt.code {
			t.Errorf("run(%q) = %d, want %d (stderr %q)", tt.args, code, tt.code, stderr.String())
		}
		if !strings.Contains(stderr.String(), tt.stderr) {
			t.Errorf("run(%q) stderr %q does not mention %s", tt.args, stderr.String(), tt.stderr)
		}
		if !strings.Contains(stdout.String(), tt.stdout) {
			t.Errorf("run(%q) stdout %q does not mention %s", tt.args, stdout.String(), tt.stdout)
		}
		if tt.code == 2 && stdout.Len() > 0 {
			t.Errorf("run(%q) ran experiments before refusing its flags: %q", tt.args, stdout.String())
		}
	}
}
