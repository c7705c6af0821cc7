package httpapi

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"celestial/internal/coordinator"
	"celestial/internal/hostlink"
)

// TestFanoutRebuildRacesReaders serves /v1/agents and /v1/diff from a
// coordinator while ConfigureFanout rebuilds its fan-out tier before
// Start, as a deployment that serves the information service before it
// layers its own settings over the scenario's tier does. A reader sees the
// old tier or the new one, never a torn swap (meaningful under -race), and
// after Start both documents describe the last tier.
func TestFanoutRebuildRacesReaders(t *testing.T) {
	c := newCoordinator(t)
	s := New(c)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{"/v1/agents", "/v1/diff?since=0"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				if rec.Code != http.StatusOK {
					t.Errorf("GET %s during a rebuild = %d %s", path, rec.Code, rec.Body.Bytes())
					return
				}
			}
		}()
	}
	const rebuilds = 40
	for i := 1; i <= rebuilds; i++ {
		if err := c.ConfigureFanout(coordinator.FanoutOptions{Options: hostlink.Options{Retention: i}}); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	var agents AgentsResponse
	get(t, s, "/v1/agents", http.StatusOK, &agents)
	if len(agents.Agents) != 1 || agents.Ring != (hostlink.RingStats{Capacity: rebuilds, Length: 1}) {
		t.Errorf("/v1/agents after Start: %d agents, ring %+v; want 1 agent, capacity %d, length 1",
			len(agents.Agents), agents.Ring, rebuilds)
	}
	var diff DiffResponse
	get(t, s, "/v1/diff?since=0", http.StatusOK, &diff)
	if diff.Resync || len(diff.Diffs) != 1 || diff.Generation != 1 {
		t.Errorf("/v1/diff?since=0 after Start = %+v, want generation 1's diff", diff)
	}
}

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
