package main

import "testing"

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
