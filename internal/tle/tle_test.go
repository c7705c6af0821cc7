package tle

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// The canonical ISS TLE used across SGP4 test suites.
const (
	issName  = "ISS (ZARYA)"
	issLine1 = "1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927"
	issLine2 = "2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537"
)

// Vanguard 1's elements, with an epoch in 1958; withChecksum completes
// them.
const (
	vanguardLine1 = "1 00005U 58002B   58001.00000000  .00000000  00000+0  00000+0 0  999"
	vanguardLine2 = "2 00005  34.2682 348.7242 1859667 331.7664  19.3264 10.8241652400001"
)

// withChecksum replaces column 69 of a line with the checksum of the rest.
func withChecksum(line string) string {
	return line[:68] + string(rune('0'+Checksum(line)))
}

func TestChecksum(t *testing.T) {
	if got := Checksum(issLine1); got != 7 {
		t.Errorf("line1 checksum = %d, want 7", got)
	}
	if got := Checksum(issLine2); got != 7 {
		t.Errorf("line2 checksum = %d, want 7", got)
	}
}

func TestParseISS(t *testing.T) {
	tle, err := Parse(issName, issLine1, issLine2)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if tle.Name != "ISS (ZARYA)" {
		t.Errorf("name = %q", tle.Name)
	}
	if tle.NoradID != 25544 {
		t.Errorf("norad = %d", tle.NoradID)
	}
	if tle.Classification != 'U' {
		t.Errorf("classification = %c", tle.Classification)
	}
	if tle.IntlDesignator != "98067A" {
		t.Errorf("designator = %q", tle.IntlDesignator)
	}
	if tle.EpochYear != 2008 {
		t.Errorf("epoch year = %d", tle.EpochYear)
	}
	if math.Abs(tle.EpochDay-264.51782528) > 1e-9 {
		t.Errorf("epoch day = %v", tle.EpochDay)
	}
	if math.Abs(tle.BStar - -0.11606e-4) > 1e-12 {
		t.Errorf("bstar = %v", tle.BStar)
	}
	if math.Abs(tle.InclinationDeg-51.6416) > 1e-9 {
		t.Errorf("inclination = %v", tle.InclinationDeg)
	}
	if math.Abs(tle.RAANDeg-247.4627) > 1e-9 {
		t.Errorf("raan = %v", tle.RAANDeg)
	}
	if math.Abs(tle.Eccentricity-0.0006703) > 1e-12 {
		t.Errorf("ecc = %v", tle.Eccentricity)
	}
	if math.Abs(tle.MeanMotion-15.72125391) > 1e-9 {
		t.Errorf("mean motion = %v", tle.MeanMotion)
	}
	if tle.RevNumber != 56353 {
		t.Errorf("rev = %d", tle.RevNumber)
	}
}

func TestParseRejectsCorruption(t *testing.T) {
	tests := []struct {
		name         string
		line1, line2 string
	}{
		{"bad checksum line1", issLine1[:68] + "9", issLine2},
		{"bad checksum line2", issLine1, issLine2[:68] + "9"},
		{"short line1", issLine1[:50], issLine2},
		{"short line2", issLine1, issLine2[:50]},
		{"swapped lines", issLine2, issLine1},
		{"mismatched ids", issLine1, "2 99999  51.6416 247.4627 0006703 130.5360 325.0288 15.7212539156359"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Parse("x", tt.line1, tt.line2); err == nil {
				t.Error("Parse accepted corrupted input")
			}
		})
	}
}

func TestParseExp(t *testing.T) {
	tests := []struct {
		in   string
		want float64
	}{
		{" 00000+0", 0},
		{" 36258-4", 0.36258e-4},
		{"-11606-4", -0.11606e-4},
		{" 12345+1", 0.12345e1},
		{"", 0},
	}
	for _, tt := range tests {
		got, err := parseExp(tt.in)
		if err != nil {
			t.Errorf("parseExp(%q): %v", tt.in, err)
			continue
		}
		if math.Abs(got-tt.want) > 1e-15 {
			t.Errorf("parseExp(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestFormatExpRoundTrip(t *testing.T) {
	err := quick.Check(func(m float64, e int) bool {
		if math.IsNaN(m) || math.IsInf(m, 0) {
			return true
		}
		v := math.Mod(m, 1) * math.Pow(10, float64(e%5-4))
		s := formatExp(v)
		if len(s) != 8 {
			return false
		}
		got, err := parseExp(s)
		if err != nil {
			return false
		}
		if v == 0 {
			return got == 0
		}
		return math.Abs(got-v) <= 5e-5*math.Abs(v)+1e-15
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Error(err)
	}
}

func TestSynthesizeRoundTrip(t *testing.T) {
	e := Elements{
		Name:           "SHELL1-P3-S7",
		NoradID:        1337,
		EpochYear:      2022,
		EpochDay:       100.5,
		InclinationDeg: 53.0,
		RAANDeg:        15.0,
		Eccentricity:   0.0001,
		ArgPerigeeDeg:  0,
		MeanAnomalyDeg: 114.5454,
		MeanMotion:     MeanMotionFromAltitude(550),
	}
	l1, l2 := Synthesize(e)
	if len(l1) != 69 || len(l2) != 69 {
		t.Fatalf("line lengths = %d, %d, want 69", len(l1), len(l2))
	}
	got, err := Parse(e.Name, l1, l2)
	if err != nil {
		t.Fatalf("Parse(Synthesize): %v\n%s\n%s", err, l1, l2)
	}
	if got.NoradID != e.NoradID {
		t.Errorf("norad = %d", got.NoradID)
	}
	if math.Abs(got.InclinationDeg-e.InclinationDeg) > 1e-4 {
		t.Errorf("inclination = %v", got.InclinationDeg)
	}
	if math.Abs(got.RAANDeg-e.RAANDeg) > 1e-4 {
		t.Errorf("raan = %v", got.RAANDeg)
	}
	if math.Abs(got.Eccentricity-e.Eccentricity) > 1e-7 {
		t.Errorf("ecc = %v", got.Eccentricity)
	}
	if math.Abs(got.MeanAnomalyDeg-e.MeanAnomalyDeg) > 1e-4 {
		t.Errorf("mean anomaly = %v", got.MeanAnomalyDeg)
	}
	if math.Abs(got.MeanMotion-e.MeanMotion) > 1e-8 {
		t.Errorf("mean motion = %v want %v", got.MeanMotion, e.MeanMotion)
	}
	if got.EpochYear != 2022 || math.Abs(got.EpochDay-100.5) > 1e-8 {
		t.Errorf("epoch = %d/%v", got.EpochYear, got.EpochDay)
	}
}

func TestSynthesizePropertyRoundTrip(t *testing.T) {
	err := quick.Check(func(inc, raan, ma uint16, alt uint16) bool {
		e := Elements{
			NoradID:        42,
			EpochYear:      2022,
			EpochDay:       1,
			InclinationDeg: float64(inc%1800) / 10,
			RAANDeg:        float64(raan % 360),
			MeanAnomalyDeg: float64(ma % 360),
			MeanMotion:     MeanMotionFromAltitude(300 + float64(alt%1500)),
		}
		l1, l2 := Synthesize(e)
		got, err := Parse("", l1, l2)
		if err != nil {
			return false
		}
		return math.Abs(got.InclinationDeg-e.InclinationDeg) < 1e-3 &&
			math.Abs(got.RAANDeg-e.RAANDeg) < 1e-3 &&
			math.Abs(got.MeanAnomalyDeg-e.MeanAnomalyDeg) < 1e-3 &&
			math.Abs(got.MeanMotion-e.MeanMotion) < 1e-7
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

func TestMeanMotionFromAltitude(t *testing.T) {
	// 550 km Starlink shell: ~15.05 rev/day (95.6 min period).
	n := MeanMotionFromAltitude(550)
	if n < 15.0 || n > 15.1 {
		t.Errorf("mean motion at 550 km = %v", n)
	}
	// Higher orbit is slower.
	if MeanMotionFromAltitude(1325) >= n {
		t.Error("mean motion did not decrease with altitude")
	}
}

func TestParseErrorMessage(t *testing.T) {
	_, err := Parse("x", issLine1[:68]+"9", issLine2)
	if err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Errorf("error = %v", err)
	}
}

func BenchmarkParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Parse(issName, issLine1, issLine2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSynthesize(b *testing.B) {
	e := Elements{NoradID: 1, EpochYear: 2022, EpochDay: 1, InclinationDeg: 53,
		MeanMotion: MeanMotionFromAltitude(550)}
	for i := 0; i < b.N; i++ {
		Synthesize(e)
	}
}

// TestParseFieldCorruptions hits each field-specific decode error by
// corrupting the corresponding columns.
func TestParseFieldCorruptions(t *testing.T) {
	corrupt := func(line string, from, to int, repl string) string {
		_ = to
		return withChecksum(line[:from] + repl + line[from+len(repl):])
	}
	tests := []struct {
		name         string
		line1, line2 string
	}{
		{"bad norad", corrupt(issLine1, 2, 7, "xxxxx"), issLine2},
		{"bad epoch day", corrupt(issLine1, 20, 32, "xx.xxxxxxxx "), issLine2},
		{"bad mm dot", corrupt(issLine1, 33, 43, "x.xxxxxxxx"), issLine2},
		{"bad bstar", corrupt(issLine1, 53, 61, "xxxxxxxx"), issLine2},
		{"bad elset", corrupt(issLine1, 64, 68, "xxxx"), issLine2},
		{"bad inclination", issLine1, corrupt(issLine2, 8, 16, "xx.xxxx ")},
		{"bad raan", issLine1, corrupt(issLine2, 17, 25, "xx.xxxx ")},
		{"bad ecc", issLine1, corrupt(issLine2, 26, 33, "xxxxxxx")},
		{"bad argp", issLine1, corrupt(issLine2, 34, 42, "xx.xxxx ")},
		{"bad ma", issLine1, corrupt(issLine2, 43, 51, "xx.xxxx ")},
		{"bad mm", issLine1, corrupt(issLine2, 52, 63, "xx.xxxxxxxx")},
		{"bad rev", issLine1, corrupt(issLine2, 63, 68, "xxxx")},
		{"nan inclination", issLine1, corrupt(issLine2, 8, 16, "     NaN")},
		{"signed ecc", issLine1, corrupt(issLine2, 26, 33, "-000001")},
		{"inf mean motion", issLine1, corrupt(issLine2, 52, 63, "       +Inf")},
		{"blank in ecc", issLine1, corrupt(issLine2, 26, 33, "   6703")},
		{"infinite mm ddot", corrupt(issLine1, 44, 52, " 1+99999"), issLine2},
		{"zero times infinite bstar", corrupt(issLine1, 53, 61, " 0+99999"), issLine2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Parse("x", tt.line1, tt.line2); err == nil {
				t.Error("corrupted TLE accepted")
			}
		})
	}
}

// TestEpochYearWindow checks the two-digit year pivot (57-99 => 19xx).
func TestEpochYearWindow(t *testing.T) {
	tle, err := Parse("vanguard", withChecksum(vanguardLine1), withChecksum(vanguardLine2))
	if err != nil {
		t.Fatal(err)
	}
	if tle.EpochYear != 1958 {
		t.Errorf("epoch year = %d, want 1958", tle.EpochYear)
	}
}

// TestParseExpErrors covers the decoder's failure branches.
func TestParseExpErrors(t *testing.T) {
	for _, bad := range []string{"12345", "x2345-4", "12345-x"} {
		if _, err := parseExp(bad); err == nil {
			t.Errorf("parseExp(%q) accepted", bad)
		}
	}
	// Leading plus sign is valid.
	if v, err := parseExp("+12345-4"); err != nil || v <= 0 {
		t.Errorf("parseExp(+) = %v, %v", v, err)
	}
}

// TestFormatExpRounding covers the carry branch where rounding pushes the
// mantissa to 1.0.
func TestFormatExpRounding(t *testing.T) {
	s := formatExp(0.9999999)
	if len(s) != 8 {
		t.Fatalf("width = %d", len(s))
	}
	v, err := parseExp(s)
	if err != nil || v < 0.99 || v > 1.01 {
		t.Errorf("round-trip = %v, %v", v, err)
	}
	if got := formatExp(-0.5); got[0] != '-' {
		t.Errorf("negative sign missing: %q", got)
	}
}

// FuzzParse feeds Parse arbitrary line pairs. It must not panic, and every
// TLE it accepts has finite fields, an eccentricity in [0, 1) and one
// NORAD id on both lines.
func FuzzParse(f *testing.F) {
	f.Add(issLine1, issLine2)
	f.Add(withChecksum(vanguardLine1), withChecksum(vanguardLine2))
	f.Add(issLine1, "")
	f.Add(issLine1+"\r", issLine2)
	f.Fuzz(func(t *testing.T, line1, line2 string) {
		tle, err := Parse("", line1, line2)
		if err != nil {
			return
		}
		for _, v := range []float64{
			tle.EpochDay, tle.MeanMotionDot, tle.MeanMotionDDot, tle.BStar,
			tle.InclinationDeg, tle.RAANDeg, tle.Eccentricity,
			tle.ArgPerigeeDeg, tle.MeanAnomalyDeg, tle.MeanMotion,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted a non-finite field: %+v", tle)
			}
		}
		if tle.Eccentricity < 0 || tle.Eccentricity >= 1 {
			t.Fatalf("accepted eccentricity %v", tle.Eccentricity)
		}
		id1, err1 := strconv.Atoi(strings.TrimSpace(line1[2:7]))
		id2, err2 := strconv.Atoi(strings.TrimSpace(line2[2:7]))
		if err1 != nil || err2 != nil || id1 != id2 || id1 != tle.NoradID {
			t.Fatalf("accepted ids %q and %q as %d", line1[2:7], line2[2:7], tle.NoradID)
		}
	})
}
