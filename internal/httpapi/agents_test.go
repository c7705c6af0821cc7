package httpapi

import (
	"net/http"
	"testing"
	"time"
)

// TestAgentsEndpoint locks in the /agents status document: one entry per
// fan-out shard, applied cursors at the head generation, and the retention
// ring that bounds how far behind a disconnected agent can fall.
func TestAgentsEndpoint(t *testing.T) {
	s, c := testServer(t)
	if err := c.Run(6 * time.Second); err != nil {
		t.Fatal(err)
	}

	var resp AgentsResponse
	get(t, s, "/agents", http.StatusOK, &resp)

	if resp.Generation != c.Generation() {
		t.Errorf("generation = %d, want %d", resp.Generation, c.Generation())
	}
	if want := c.Fanout().Shards(); len(resp.Agents) != want {
		t.Fatalf("got %d agents, want %d", len(resp.Agents), want)
	}
	if resp.Ring.Capacity <= 0 {
		t.Errorf("ring capacity = %d, want > 0", resp.Ring.Capacity)
	}
	machines := 0
	for _, a := range resp.Agents {
		if a.Applied != resp.Generation {
			t.Errorf("agent %d applied = %d, want head %d", a.Agent, a.Applied, resp.Generation)
		}
		if a.Remote != nil {
			t.Errorf("agent %d reports a remote connection on a loopback-only run", a.Agent)
		}
		machines += a.Machines
	}
	if want := c.Constellation().NodeCount(); machines != want {
		t.Errorf("shards cover %d machines, want %d", machines, want)
	}
}
