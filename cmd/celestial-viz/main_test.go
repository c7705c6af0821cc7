package main

import (
	"math"
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
