package main

import (
	"bytes"
	"io"
	"net"
	"strings"
	"testing"
)

func TestReplicaAddr(t *testing.T) {
	tests := []struct {
		host    string
		port, i int
		want    string
	}{
		{"127.0.0.1", 8090, 0, "127.0.0.1:8090"},
		{"127.0.0.1", 8090, 2, "127.0.0.1:8092"},
		{"", 8090, 1, ":8091"},
		{"::1", 8090, 1, "[::1]:8091"},
		// Port 0: every replica takes its own ephemeral port, never the
		// privileged ports 1, 2, ….
		{"127.0.0.1", 0, 0, "127.0.0.1:0"},
		{"127.0.0.1", 0, 1, "127.0.0.1:0"},
		{"127.0.0.1", 0, 2, "127.0.0.1:0"},
		{"", 0, 3, ":0"},
	}
	for _, tt := range tests {
		if got := replicaAddr(tt.host, tt.port, tt.i); got != tt.want {
			t.Errorf("replicaAddr(%q, %d, %d) = %q, want %q", tt.host, tt.port, tt.i, got, tt.want)
		}
	}
}

// TestRunRefusesBadCommandLines runs each refused command line in process:
// flag errors exit 2 and a listen address already in use exits 1, all
// before any replica follows or serves.
func TestRunRefusesBadCommandLines(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	up := "http://127.0.0.1:1"
	for _, tt := range []struct {
		args []string
		code int
		say  string // stderr must contain it
	}{
		{[]string{"-listen", "127.0.0.1:0"}, 2, "-upstream"},
		{[]string{"-upstream", up, "-no-such-flag"}, 2, "no-such-flag"},
		{[]string{"-upstream", up, "-replicas", "0"}, 2, "-replicas 0"},
		{[]string{"-upstream", up, "-listen", "8090"}, 2, "-listen"},
		{[]string{"-upstream", up, "-listen", "127.0.0.1:http"}, 2, "non-numeric port"},
		{[]string{"-upstream", "coordinator:8080", "-listen", "127.0.0.1:0"}, 2, "bad upstream URL"},
		{[]string{"-upstream", up, "-listen", "127.0.0.1:0", "-http-rate", "fast"}, 2, "-http-rate"},
		{[]string{"-upstream", up, "-listen", busy.Addr().String()}, 1, "listener"},
		{[]string{"-h"}, 0, "-upstream"},
	} {
		var stderr bytes.Buffer
		if code := run(tt.args, io.Discard, &stderr); code != tt.code {
			t.Errorf("run(%q) = %d, want %d (stderr %q)", tt.args, code, tt.code, stderr.String())
		}
		if !strings.Contains(stderr.String(), tt.say) {
			t.Errorf("run(%q) stderr %q does not mention %s", tt.args, stderr.String(), tt.say)
		}
	}
}
