// Package tle parses and synthesizes NORAD two-line element sets (TLEs).
//
// The paper's Celestial obtains SGP4 input parameters either from
// downloaded TLEs for satellites already in orbit or by computing them from
// simple shell parameters such as inclination and altitude (§3.1). This
// testbed takes the second path only: orbit.ShellConfig.Elements computes
// each satellite's elements from its shell, Synthesize encodes them as a valid
// TLE, and Parse decodes that TLE back (fixed columns, checksums verified)
// into the SGP4 input, so a generated constellation runs the same
// TLE → SGP4 code path a downloaded one would. No path reads TLE files.
package tle

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"celestial/internal/geom"
)

// TLE is a decoded two-line element set. Angles are in degrees and the mean
// motion is in revolutions per day, exactly as encoded in the format.
type TLE struct {
	Name string

	// Line 1 fields.
	NoradID        int
	Classification byte
	IntlDesignator string
	EpochYear      int     // full four-digit year
	EpochDay       float64 // day of year including fraction
	MeanMotionDot  float64 // first derivative of mean motion / 2 (rev/day^2)
	MeanMotionDDot float64 // second derivative / 6 (rev/day^3)
	BStar          float64 // drag term (1/earth radii)
	ElementSet     int

	// Line 2 fields.
	InclinationDeg float64
	RAANDeg        float64 // right ascension of the ascending node
	Eccentricity   float64
	ArgPerigeeDeg  float64
	MeanAnomalyDeg float64
	MeanMotion     float64 // revolutions per day
	RevNumber      int
}

// Checksum computes the TLE checksum for a line: the sum of all digits plus
// one for each minus sign, modulo 10. The checksum column itself (69) is
// excluded.
func Checksum(line string) int {
	sum := 0
	end := len(line)
	if end > 68 {
		end = 68
	}
	for _, c := range line[:end] {
		switch {
		case c >= '0' && c <= '9':
			sum += int(c - '0')
		case c == '-':
			sum++
		}
	}
	return sum % 10
}

// ParseError describes a TLE decoding failure.
type ParseError struct {
	Line int // 1 or 2; 0 when the error is not line-specific
	Msg  string
}

func (e *ParseError) Error() string {
	if e.Line == 0 {
		return "tle: " + e.Msg
	}
	return fmt.Sprintf("tle: line %d: %s", e.Line, e.Msg)
}

func parseErr(line int, format string, args ...any) error {
	return &ParseError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Parse decodes a two-line element set. name may be empty; line1 and line2
// must be the standard 69-column lines. The checksums are verified.
func Parse(name, line1, line2 string) (TLE, error) {
	var t TLE
	t.Name = strings.TrimSpace(name)

	line1 = strings.TrimRight(line1, "\r\n ")
	line2 = strings.TrimRight(line2, "\r\n ")
	if len(line1) < 69 {
		return t, parseErr(1, "too short: %d columns", len(line1))
	}
	if len(line2) < 69 {
		return t, parseErr(2, "too short: %d columns", len(line2))
	}
	if line1[0] != '1' {
		return t, parseErr(1, "does not start with '1'")
	}
	if line2[0] != '2' {
		return t, parseErr(2, "does not start with '2'")
	}
	if got, want := int(line1[68]-'0'), Checksum(line1); got != want {
		return t, parseErr(1, "checksum mismatch: have %d, computed %d", got, want)
	}
	if got, want := int(line2[68]-'0'), Checksum(line2); got != want {
		return t, parseErr(2, "checksum mismatch: have %d, computed %d", got, want)
	}

	var err error
	if t.NoradID, err = atoi(line1[2:7]); err != nil {
		return t, parseErr(1, "norad id: %v", err)
	}
	t.Classification = line1[7]
	t.IntlDesignator = strings.TrimSpace(line1[9:17])

	yy, err := atoi(line1[18:20])
	if err != nil {
		return t, parseErr(1, "epoch year: %v", err)
	}
	// Two-digit years: 57-99 => 1957-1999, 00-56 => 2000-2056.
	if yy >= 57 {
		t.EpochYear = 1900 + yy
	} else {
		t.EpochYear = 2000 + yy
	}
	if t.EpochDay, err = atof(line1[20:32]); err != nil {
		return t, parseErr(1, "epoch day: %v", err)
	}
	if t.MeanMotionDot, err = atof(line1[33:43]); err != nil {
		return t, parseErr(1, "mean motion dot: %v", err)
	}
	if t.MeanMotionDDot, err = parseExp(line1[44:52]); err != nil {
		return t, parseErr(1, "mean motion ddot: %v", err)
	}
	if t.BStar, err = parseExp(line1[53:61]); err != nil {
		return t, parseErr(1, "bstar: %v", err)
	}
	if t.ElementSet, err = atoi(line1[64:68]); err != nil {
		return t, parseErr(1, "element set: %v", err)
	}

	id2, err := atoi(line2[2:7])
	if err != nil {
		return t, parseErr(2, "norad id: %v", err)
	}
	if id2 != t.NoradID {
		return t, parseErr(2, "norad id %d does not match line 1 (%d)", id2, t.NoradID)
	}
	if t.InclinationDeg, err = atof(line2[8:16]); err != nil {
		return t, parseErr(2, "inclination: %v", err)
	}
	if t.RAANDeg, err = atof(line2[17:25]); err != nil {
		return t, parseErr(2, "raan: %v", err)
	}
	// Eccentricity is seven digits behind an implied decimal point, with
	// no sign and no blanks: a value in [0, 1).
	ecc := line2[26:33]
	if strings.Trim(ecc, "0123456789") != "" {
		return t, parseErr(2, "eccentricity %q is not seven digits", ecc)
	}
	n, _ := strconv.Atoi(ecc)
	t.Eccentricity = float64(n) * 1e-7
	if t.ArgPerigeeDeg, err = atof(line2[34:42]); err != nil {
		return t, parseErr(2, "argument of perigee: %v", err)
	}
	if t.MeanAnomalyDeg, err = atof(line2[43:51]); err != nil {
		return t, parseErr(2, "mean anomaly: %v", err)
	}
	if t.MeanMotion, err = atof(line2[52:63]); err != nil {
		return t, parseErr(2, "mean motion: %v", err)
	}
	if t.RevNumber, err = atoi(line2[63:68]); err != nil {
		return t, parseErr(2, "rev number: %v", err)
	}
	return t, nil
}

func atoi(s string) (int, error) {
	return strconv.Atoi(strings.TrimSpace(s))
}

// atof decodes a decimal field. NaN and the infinities parse as floats but
// are no value any TLE field holds.
func atof(s string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		return 0, fmt.Errorf("%q is not a finite number", s)
	}
	return v, err
}

// parseExp decodes the TLE "implied decimal point, explicit exponent"
// notation, e.g. " 36258-4" => 0.36258e-4 and " 00000+0" => 0.
func parseExp(s string) (float64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	sign := 1.0
	if s[0] == '-' {
		sign = -1
		s = s[1:]
	} else if s[0] == '+' {
		s = s[1:]
	}
	expIdx := strings.LastIndexAny(s, "+-")
	if expIdx <= 0 {
		return 0, fmt.Errorf("missing exponent in %q", s)
	}
	mant, err := strconv.ParseFloat("0."+strings.TrimSpace(s[:expIdx]), 64)
	if err != nil {
		return 0, err
	}
	exp, err := strconv.Atoi(s[expIdx:])
	if err != nil {
		return 0, err
	}
	v := sign * mant * math.Pow(10, float64(exp))
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("%q is not a finite number", s)
	}
	return v, nil
}

// formatExp encodes a value in the TLE implied-decimal exponent notation,
// producing exactly 8 columns, e.g. " 36258-4".
func formatExp(v float64) string {
	if v == 0 {
		return " 00000+0"
	}
	sign := " "
	if v < 0 {
		sign = "-"
		v = -v
	}
	exp := int(math.Floor(math.Log10(v))) + 1
	mant := v / math.Pow(10, float64(exp))
	digits := int(math.Round(mant * 1e5))
	if digits >= 100000 { // rounding pushed us to 1.0
		digits = 10000
		exp++
	}
	expSign := "+"
	if exp < 0 {
		expSign = "-"
		exp = -exp
	}
	return fmt.Sprintf("%s%05d%s%d", sign, digits, expSign, exp)
}

// Elements are the orbital elements needed to synthesize a TLE for a
// generated constellation satellite.
type Elements struct {
	Name           string
	NoradID        int
	EpochYear      int
	EpochDay       float64
	InclinationDeg float64
	RAANDeg        float64
	Eccentricity   float64
	ArgPerigeeDeg  float64
	MeanAnomalyDeg float64
	MeanMotion     float64 // rev/day
	BStar          float64
}

// MeanMotionFromAltitude returns the circular-orbit mean motion in
// revolutions per day for a given altitude above the equatorial radius.
func MeanMotionFromAltitude(altKm float64) float64 {
	a := geom.EarthRadiusKm + altKm
	n := math.Sqrt(geom.EarthMuKm3S2 / (a * a * a)) // rad/s
	return n * 86400 / (2 * math.Pi)
}

// Synthesize encodes orbital elements as a standards-conforming two-line
// element set with valid checksums. The returned lines are exactly 69
// columns each.
func Synthesize(e Elements) (line1, line2 string) {
	yy := e.EpochYear % 100
	l1 := fmt.Sprintf("1 %05dU %-8s %02d%012.8f  .00000000  00000+0 %s 0 999",
		e.NoradID%100000, "GEN", yy, e.EpochDay, formatExp(e.BStar))
	l1 = fmt.Sprintf("%-68s", l1)[:68]
	l1 += strconv.Itoa(Checksum(l1))

	ecc := int(math.Round(e.Eccentricity * 1e7))
	l2 := fmt.Sprintf("2 %05d %8.4f %8.4f %07d %8.4f %8.4f %11.8f%5d",
		e.NoradID%100000, e.InclinationDeg, norm360(e.RAANDeg), ecc,
		norm360(e.ArgPerigeeDeg), norm360(e.MeanAnomalyDeg), e.MeanMotion, 0)
	l2 = fmt.Sprintf("%-68s", l2)[:68]
	l2 += strconv.Itoa(Checksum(l2))
	return l1, l2
}

func norm360(deg float64) float64 {
	deg = math.Mod(deg, 360)
	if deg < 0 {
		deg += 360
	}
	return deg
}
