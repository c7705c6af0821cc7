// Package httpapi implements the HTTP information service that Celestial
// hosts expose to emulated machines: satellite positions, network paths
// between nodes, constellation information and more, sourced from the
// central database on the coordinator (§3.2 of the paper). Application
// developers use it to test against different LEO constellations without
// implementing their own satellite movement model — in a real deployment
// the same information would come from the network operator or a public
// TLE database.
//
// The service is built for high request volume: every emulated application
// polls it, so responses are served from prebuilt serialized documents
// instead of re-walking the constellation per request. Caches are keyed on
// the coordinator's snapshot generation — /info is rebuilt only when the
// generation changes, and per-node and path documents are invalidated only
// when a tick's diff is non-empty, i.e. when the emulated topology
// actually changed at netem granularity. (Concurrent first-requesters
// after an invalidation may race to fill the same document; fills are
// idempotent and microsecond-scale, so the caches deliberately skip
// singleflight — the expensive computation, the path search, is already
// singleflighted inside the state's path cache for outside readers.) That
// coarser key is a deliberate trade:
// under empty diffs satellites still move (sub-quantum), so cached
// position-derived fields can lag the newest snapshot by less than one
// delay quantum's worth of motion — while everything the emulated network
// can observe (links, latencies, activity) is exact. Cached bytes are
// produced by the same builder functions as uncached responses, so the two
// are byte-identical for the same snapshot (locked in by the differential
// tests). Clients that want to follow topology changes without polling
// full state subscribe to GET /diff?since=<generation> (long-poll, SSE, or
// the binary frame stream — see diff.go and frame.go).
//
// The route table is served from a narrow Source interface rather than the
// coordinator directly, and is mounted twice: under the versioned /v1/
// prefix (the canonical paths) and at the legacy unversioned paths, kept
// as aliases for one release. Read replicas (internal/readpath) implement
// the same Source by following the coordinator's /diff stream, so a
// replica's route table — and its bytes — are exactly the coordinator's.
package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"celestial/internal/coordinator"
	"celestial/internal/hostlink"
)

// Server is the information service's handler: the route table, the
// serialized-response caches, and the stream timing knobs, all serving
// from a Source.
type Server struct {
	src Source
	mux *http.ServeMux

	// coord is set only on coordinator-backed servers (it is then src) and
	// enables the /agents endpoint (fan-out telemetry a replica does not
	// have).
	coord *CoordinatorSource

	// sseKeepAlive and sseWriteTimeout are the /diff event stream's idle
	// keepalive period and per-frame write deadline (see SetStreamTiming).
	sseKeepAlive    time.Duration
	sseWriteTimeout time.Duration

	// info is the /info document, keyed by snapshot generation (it
	// carries the generation and snapshot offset, so it is rebuilt once
	// per tick). shells holds the per-shell documents — pure
	// configuration, keyed by the constant version 1. nodes and paths
	// hold the per-node documents and /path responses, keyed by topology
	// version: everything the emulated network observes in them is exact
	// while ticks produce empty diffs, and their position-derived fields
	// may lag by the sub-quantum motion such a tick represents (see the
	// package comment).
	info   respCache
	shells respCache
	nodes  respCache
	paths  respCache
}

// New creates the API server for a coordinator. The coordinator-backed
// server additionally serves /agents.
func New(c *coordinator.Coordinator) *Server {
	mux := http.NewServeMux()
	cs := NewCoordinatorSource(c)
	s := RegisterRoutes(mux, cs)
	s.coord = cs
	mux.HandleFunc("GET /agents", s.handleAgents)
	mux.HandleFunc("GET /v1/agents", s.handleAgents)
	return s
}

// RegisterRoutes mounts the information-service route table on mux,
// serving from src: every endpoint under its canonical /v1/ path and at
// its legacy unversioned alias (kept for one release). The coordinator's
// server and every read replica go through this one entry point, so the
// two cannot drift. It returns the Server bound to the routes; its
// SetStreamTiming applies to the registered handlers.
func RegisterRoutes(mux *http.ServeMux, src Source) *Server {
	s := &Server{
		src: src, mux: mux,
		// The stream timing defaults are shared with the host fan-out
		// tier: an SSE subscriber and a remote host agent are the same
		// kind of follower, so one pair of deployment knobs tunes both.
		sseKeepAlive:    hostlink.DefaultHeartbeat,
		sseWriteTimeout: hostlink.DefaultWriteTimeout,
	}
	routes := []struct {
		pattern string
		h       http.HandlerFunc
	}{
		{"/info", s.handleInfo},
		{"/shell/{shell}", s.handleShell},
		{"/shell/{shell}/{sat}", s.handleSat},
		{"/gst/{name}", s.handleGST},
		{"/path/{source}/{target}", s.handlePath},
		{"/diff", s.handleDiff},
	}
	for _, rt := range routes {
		mux.HandleFunc("GET /v1"+rt.pattern, rt.h)
		mux.HandleFunc("GET "+rt.pattern, rt.h)
	}
	return s
}

// Source returns the source the server serves from.
func (s *Server) Source() Source { return s.src }

// SetStreamTiming overrides the /diff event stream's idle keepalive period
// and per-frame write deadline. Zero keeps the current value. It must not
// be called while requests are in flight; deploy configurations set it
// once at startup, alongside the matching fan-out heartbeat.
func (s *Server) SetStreamTiming(keepAlive, writeTimeout time.Duration) {
	if keepAlive > 0 {
		s.sseKeepAlive = keepAlive
	}
	if writeTimeout > 0 {
		s.sseWriteTimeout = writeTimeout
	}
}

// ResetCaches drops every cached document. Read replicas call it after a
// forced resync against an upstream whose generation counter regressed (a
// coordinator restart): the version keys would otherwise compare stale
// cached documents as current.
func (s *Server) ResetCaches() {
	for _, c := range []*respCache{&s.info, &s.shells, &s.nodes, &s.paths} {
		c.reset()
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Info is the /info response.
type Info struct {
	// T is the emulation offset in seconds of the served snapshot
	// generation.
	T float64 `json:"t"`
	// Generation is the monotonic snapshot generation, the cursor for
	// GET /diff?since=.
	Generation uint64 `json:"generation"`
	// Nodes is the total node count.
	Nodes  int         `json:"nodes"`
	Shells []ShellInfo `json:"shells"`
	// GroundStations lists the configured station names.
	GroundStations []string `json:"ground_stations"`
}

// ShellInfo describes one shell in /info and /shell responses.
type ShellInfo struct {
	ID             int     `json:"id"`
	Name           string  `json:"name"`
	Planes         int     `json:"planes"`
	SatsPerPlane   int     `json:"sats_per_plane"`
	Satellites     int     `json:"satellites"`
	AltitudeKm     float64 `json:"altitude_km"`
	InclinationDeg float64 `json:"inclination_deg"`
	ArcDeg         float64 `json:"arc_of_ascending_nodes_deg"`
}

// SatInfo is the /shell/{shell}/{sat} response.
type SatInfo struct {
	Shell int    `json:"shell"`
	Sat   int    `json:"sat"`
	Name  string `json:"name"`
	IP    string `json:"ip"`
	// Position is the ECEF position in kilometers.
	Position Position `json:"position"`
	LatDeg   float64  `json:"lat_deg"`
	LonDeg   float64  `json:"lon_deg"`
	AltKm    float64  `json:"alt_km"`
	// Active reports whether the machine is inside the bounding box.
	Active bool `json:"active"`
}

// Position is an ECEF coordinate.
type Position struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
	Z float64 `json:"z"`
}

// GSTInfo is the /gst/{name} response.
type GSTInfo struct {
	Name     string   `json:"name"`
	IP       string   `json:"ip"`
	Position Position `json:"position"`
	LatDeg   float64  `json:"lat_deg"`
	LonDeg   float64  `json:"lon_deg"`
	// Uplinks lists the per-shell closest-satellite uplink, if any.
	Uplinks []UplinkInfo `json:"uplinks"`
}

// UplinkInfo is one candidate uplink in a GSTInfo.
type UplinkInfo struct {
	Shell        int     `json:"shell"`
	Sat          int     `json:"sat"`
	DistanceKm   float64 `json:"distance_km"`
	ElevationDeg float64 `json:"elevation_deg"`
	// LatencyMs is the realized uplink latency, quantized to the netem
	// emulation granularity — the same delay /path reports for this hop.
	LatencyMs float64 `json:"latency_ms"`
}

// PathResponse is the /path/{source}/{target} response.
type PathResponse struct {
	Source string `json:"source"`
	Target string `json:"target"`
	// LatencyMs is the one-way end-to-end latency in milliseconds.
	LatencyMs float64 `json:"latency_ms"`
	// BandwidthKbps is the bottleneck bandwidth; 0 means unlimited.
	BandwidthKbps float64       `json:"bandwidth_kbps"`
	Segments      []PathSegment `json:"segments"`
}

// PathSegment is one hop of a path.
type PathSegment struct {
	From       string  `json:"from"`
	To         string  `json:"to"`
	DistanceKm float64 `json:"distance_km"`
	LatencyMs  float64 `json:"latency_ms"`
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

// marshalDoc serializes a response document, newline-terminated exactly
// like json.Encoder would, so cached documents are byte-identical to
// streamed ones.
func marshalDoc(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// Response structs contain no unencodable values; this path is
		// unreachable but must not panic the handler.
		b, _ = json.Marshal(apiError{Error: err.Error()})
	}
	return append(b, '\n')
}

// writeDoc writes a prebuilt JSON document. (No explicit Content-Length:
// net/http computes it for buffered bodies, and formatting it here would
// cost an allocation on the cached fast path.)
func writeDoc(w http.ResponseWriter, status int, doc []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(doc)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	writeDoc(w, status, marshalDoc(v))
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// serve answers a request from cache c, or asks the source to build the
// document and publishes a 200 for the rest of the version's lifetime
// (errors are never cached). Concurrent misses of the same key build
// redundantly rather than singleflighting — fills are cheap and
// idempotent (see the package comment). Handlers read ver BEFORE the
// source takes a lease on a state inside build: a tick between the version read
// and the build can then only make the cached document fresher than its
// key, never staler.
func (s *Server) serve(w http.ResponseWriter, c *respCache, ver uint64, key string, build func() ([]byte, int)) {
	if doc, ok := c.get(ver, key); ok {
		writeDoc(w, http.StatusOK, doc)
		return
	}
	doc, status := build()
	if status == http.StatusOK {
		c.put(ver, key, doc)
	}
	writeDoc(w, status, doc)
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	gen := s.src.Generation()
	s.serve(w, &s.info, gen, "", s.src.InfoDoc)
}

func (s *Server) handleShell(w http.ResponseWriter, r *http.Request) {
	shell := r.PathValue("shell")
	s.serve(w, &s.shells, 1, shell, func() ([]byte, int) {
		return s.src.ShellDoc(shell)
	})
}

func (s *Server) handleSat(w http.ResponseWriter, r *http.Request) {
	shell, sat := r.PathValue("shell"), r.PathValue("sat")
	tv := s.src.TopologyVersion()
	// Cache keys are the canonical legacy path form, shared between the
	// /v1 mount and its alias: one document per node, not per spelling.
	s.serve(w, &s.nodes, tv, "/shell/"+shell+"/"+sat, func() ([]byte, int) {
		return s.src.SatDoc(shell, sat)
	})
}

func (s *Server) handleGST(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	tv := s.src.TopologyVersion()
	s.serve(w, &s.nodes, tv, "/gst/"+name, func() ([]byte, int) {
		return s.src.GSTDoc(name)
	})
}

func (s *Server) handlePath(w http.ResponseWriter, r *http.Request) {
	source, target := r.PathValue("source"), r.PathValue("target")
	tv := s.src.TopologyVersion()
	// Key by the raw parameters (the response echoes source and target
	// verbatim). Safe because references are canonical: ParseSatRef
	// rejects signs and leading zeros, and station names are exact, so a
	// node pair has exactly one spelling — no alias can mint extra keys.
	s.serve(w, &s.paths, tv, source+"\x00"+target, func() ([]byte, int) {
		return s.src.PathDoc(source, target)
	})
}
