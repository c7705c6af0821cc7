package main

import (
	"bufio"
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"celestial"
	"celestial/internal/orbit"
	"celestial/internal/sgp4"
	"celestial/internal/tle"
)

// TestTLEsMatchTheEmulator propagates every TLE satgen prints for the
// Starlink preset to the epoch and checks it against the position the
// emulator's SGP4 shell computes for the same satellite.
func TestTLEsMatchTheEmulator(t *testing.T) {
	shells := celestial.StarlinkPhase1(celestial.ModelSGP4)
	jd := (&celestial.Config{Epoch: celestial.DefaultEpoch}).EpochJulian()
	var buf bytes.Buffer
	emitTLEs(&buf, shells, jd)

	sc := bufio.NewScanner(&buf)
	next := func() string {
		if !sc.Scan() {
			t.Fatalf("satgen output ends early: %v", sc.Err())
		}
		return sc.Text()
	}
	n := 0
	for si, cfg := range shells {
		sh, err := orbit.NewShell(cfg, jd)
		if err != nil {
			t.Fatal(err)
		}
		for flat := 0; flat < sh.Size(); flat++ {
			name, l1, l2 := next(), next(), next()
			parsed, err := tle.Parse(name, l1, l2)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sat, err := sgp4.New(parsed)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, err := sat.PropagateMinutes(0)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, err := sh.PositionECI(flat, 0)
			if err != nil {
				t.Fatal(err)
			}
			if d := got.Position.Sub(want).Norm(); d > 1e-3 {
				t.Fatalf("%s (shell %d, satellite %d) is %.3f km from the emulator's position", name, si, flat, d)
			}
			n++
		}
	}
	if sc.Scan() {
		t.Fatalf("satgen printed more than the %d satellites of the preset: %q", n, sc.Text())
	}
}

// TestRunExitCodes runs command lines in process: flag errors exit 2, an
// unreadable -config exits 1, and a preset prints its summary or its TLEs
// and exits 0.
func TestRunExitCodes(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.toml")
	for _, tt := range []struct {
		args   []string
		code   int
		stderr string // stderr must contain it
		stdout string // stdout must contain it
		lines  int    // stdout line count, when positive
	}{
		{args: nil, code: 2, stderr: "-preset"},
		{args: []string{"-no-such-flag"}, code: 2, stderr: "no-such-flag"},
		{args: []string{"-preset", "galileo"}, code: 2, stderr: `unknown -preset "galileo"`},
		{args: []string{"-preset", "iridium", "-config", missing}, code: 2, stderr: "exclusive"},
		{args: []string{"-preset", "iridium", "extra"}, code: 2, stderr: `unexpected argument "extra"`},
		{args: []string{"-config", missing}, code: 1, stderr: "missing.toml"},
		{args: []string{"-h"}, code: 0, stderr: "-tle"},
		{args: []string{"-preset", "iridium"}, code: 0, stdout: "total", lines: 3},
		{args: []string{"-preset", "iridium", "-tle"}, code: 0, stdout: "iridium-P0-S0", lines: 3 * 66},
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
		if n := strings.Count(stdout.String(), "\n"); tt.lines > 0 && n != tt.lines {
			t.Errorf("run(%q) printed %d lines, want %d", tt.args, n, tt.lines)
		}
	}
}
