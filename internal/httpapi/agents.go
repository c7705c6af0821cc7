package httpapi

import (
	"net/http"

	"celestial/internal/hostlink"
)

// AgentsResponse is the GET /agents response: the host fan-out tier's
// per-shard delivery state plus the generation log that feeds agent
// resyncs. Unlike the topology endpoints this is operational telemetry —
// it changes with every tick and with remote connection churn — so it is
// deliberately never cached.
type AgentsResponse struct {
	// Generation is the coordinator's head generation at serve time; a
	// shard whose applied cursor trails it is behind.
	Generation uint64 `json:"generation"`
	// Ring is the tier's generation log: its capacity bounds how long a
	// disconnected agent can be away and still resync by replay rather
	// than snapshot. Its forced resyncs count the remote agents and the
	// /diff subscribers whose cursor it no longer covered.
	Ring hostlink.RingStats `json:"ring"`
	// Agents is one entry per shard; the remote half is present only
	// while a TCP agent is attached (loopback shards omit it).
	Agents []hostlink.AgentStatus `json:"agents"`
}

// handleAgents serves GET /agents, the fan-out tier's status document.
func (s *Server) handleAgents(w http.ResponseWriter, r *http.Request) {
	c := s.coord.c
	fo := c.Fanout()
	ring := fo.RingStats()
	ring.ForcedResyncs += s.coord.misses.Load()
	writeJSON(w, http.StatusOK, AgentsResponse{
		Generation: c.Generation(),
		Ring:       ring,
		Agents:     fo.AgentsStatus(),
	})
}
