package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCheckTime(t *testing.T) {
	tests := []struct {
		t  float64
		ok bool
	}{
		{0, true},
		{120, true},
		{-3600, true},
		{9.2e9, true},
		{-9.2e9, true},
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
		{-1e300, false},
		{9.3e9, false},
	}
	for _, tt := range tests {
		err := checkTime(tt.t)
		if (err == nil) != tt.ok {
			t.Errorf("checkTime(%v) = %v, want ok=%v", tt.t, err, tt.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "-t") {
			t.Errorf("checkTime(%v) error %q does not name the flag", tt.t, err)
		}
	}
}

// TestRunExitCodes runs command lines in process: flag errors exit 2, an
// unreadable -config exits 1, and a render writes its SVG and exits 0.
func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing.toml")
	svg := filepath.Join(dir, "iridium.svg")
	for _, tt := range []struct {
		args   []string
		code   int
		stderr string // stderr must contain it
		stdout string // stdout must contain it
	}{
		{args: nil, code: 2, stderr: "-preset"},
		{args: []string{"-no-such-flag"}, code: 2, stderr: "no-such-flag"},
		{args: []string{"-preset", "galileo"}, code: 2, stderr: `unknown -preset "galileo"`},
		{args: []string{"-preset", "iridium", "-config", missing}, code: 2, stderr: "exclusive"},
		{args: []string{"-preset", "iridium", "extra"}, code: 2, stderr: `unexpected argument "extra"`},
		{args: []string{"-preset", "iridium", "-t", "NaN"}, code: 2, stderr: "-t NaN"},
		{args: []string{"-config", missing}, code: 1, stderr: "missing.toml"},
		{args: []string{"-h"}, code: 0, stderr: "-links"},
		{args: []string{"-preset", "iridium", "-t", "60"}, code: 0, stdout: "<svg"},
		{args: []string{"-preset", "iridium", "-links", "-o", svg}, code: 0, stderr: "wrote " + svg},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tt.args, &stdout, &stderr); code != tt.code {
			t.Errorf("run(%q) = %d, want %d (stderr %q)", tt.args, code, tt.code, stderr.String())
		}
		if !strings.Contains(stderr.String(), tt.stderr) {
			t.Errorf("run(%q) stderr %q does not mention %s", tt.args, stderr.String(), tt.stderr)
		}
		if !strings.Contains(stdout.String(), tt.stdout) {
			t.Errorf("run(%q) stdout does not mention %s", tt.args, tt.stdout)
		}
	}
	if b, err := os.ReadFile(svg); err != nil || !bytes.Contains(b, []byte("<svg")) {
		t.Errorf("-o wrote %d bytes, %v", len(b), err)
	}
}
