package main

import (
	"bufio"
	"bytes"
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
