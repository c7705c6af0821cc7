package main

import (
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
