package main

import (
	"strings"
	"testing"
	"time"
)

func TestCheckFlags(t *testing.T) {
	tests := []struct {
		barrier time.Duration
		every   int
		flag    string // the flag the error must name; empty when valid
	}{
		{2 * time.Second, 1, ""},
		{30 * time.Second, 5, ""},
		{time.Nanosecond, 1, ""},
		{0, 1, "-agents-barrier"},
		{-time.Second, 1, "-agents-barrier"},
		{2 * time.Second, 0, "-checkpoint-every"},
		{2 * time.Second, -3, "-checkpoint-every"},
	}
	for _, tt := range tests {
		err := checkFlags(tt.barrier, tt.every)
		if (err == nil) != (tt.flag == "") {
			t.Errorf("checkFlags(%v, %d) = %v, want ok=%v", tt.barrier, tt.every, err, tt.flag == "")
		}
		if err != nil && !strings.Contains(err.Error(), tt.flag) {
			t.Errorf("checkFlags(%v, %d) error %q does not name %s", tt.barrier, tt.every, err, tt.flag)
		}
	}
}
