package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestCheckFlags(t *testing.T) {
	tests := []struct {
		config, scenario string
		horizon          time.Duration
		barrier          time.Duration
		every            int
		flag             string // the flag the error must name; empty when valid
	}{
		{"", "run.toml", 0, 2 * time.Second, 1, ""},
		{"testbed.toml", "", 5 * time.Second, 30 * time.Second, 5, ""},
		{"", "run.toml", 0, time.Nanosecond, 1, ""},
		{"", "run.toml", 0, 0, 1, "-agents-barrier"},
		{"", "run.toml", 0, -time.Second, 1, "-agents-barrier"},
		{"", "run.toml", 0, 2 * time.Second, 0, "-checkpoint-every"},
		{"", "run.toml", 0, 2 * time.Second, -3, "-checkpoint-every"},
		{"", "run.toml", -time.Second, 2 * time.Second, 1, "-horizon"},
		{"testbed.toml", "run.toml", 0, 2 * time.Second, 1, "-config"},
		{"", "", 0, 2 * time.Second, 1, "-scenario"},
	}
	for _, tt := range tests {
		err := checkFlags(tt.config, tt.scenario, tt.horizon, tt.barrier, tt.every)
		if (err == nil) != (tt.flag == "") {
			t.Errorf("checkFlags(%+v) = %v, want ok=%v", tt, err, tt.flag == "")
		}
		if err != nil && !strings.Contains(err.Error(), tt.flag) {
			t.Errorf("checkFlags(%+v) error %q does not name %s", tt, err, tt.flag)
		}
	}
}

// TestRunRefusesDroppedFlags runs the command line of each refused flag
// combination: both exit 2 before anything runs.
func TestRunRefusesDroppedFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-scenario", "run.toml", "-horizon", "-5s"},
		{"-config", "testbed.toml", "-scenario", "run.toml"},
	} {
		var stderr bytes.Buffer
		if code := run(args, io.Discard, &stderr); code != 2 {
			t.Errorf("run(%q) = %d, want 2 (stderr %q)", args, code, stderr.String())
		}
	}
}

// TestConfigRunsAsScenario checks that -config F is the scenario
// config = "F": the two command lines write the same report bytes, the
// first to stdout with its progress lines on stderr.
func TestConfigRunsAsScenario(t *testing.T) {
	cfg, err := filepath.Abs(filepath.Join("..", "..", "examples", "configs", "readpath-smoke.toml"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sc := filepath.Join(dir, "run.toml")
	if err := os.WriteFile(sc, []byte("config = "+quote(cfg)+"\nhorizon = 5.0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-config", cfg, "-horizon", "5s", "-progress", "2s"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-config run = %d:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "t=     4s  active=") {
		t.Errorf("no progress line for t=4s on stderr:\n%s", stderr.String())
	}
	b := filepath.Join(dir, "b.json")
	if code := run([]string{"-scenario", sc, "-report", b}, io.Discard, &stderr); code != 0 {
		t.Fatalf("-scenario run = %d:\n%s", code, stderr.String())
	}
	rb, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), rb) {
		t.Fatalf("-config report differs from the config = scenario's:\n%s\n---\n%s", stdout.Bytes(), rb)
	}
	if !bytes.Contains(rb, []byte(`"scenario": "readpath-smoke"`)) {
		t.Fatalf("report does not name the testbed:\n%s", rb)
	}
}

// quote writes a TOML basic string.
func quote(s string) string {
	return `"` + strings.NewReplacer(`\`, `\\`, `"`, `\"`).Replace(s) + `"`
}
