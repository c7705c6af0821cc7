package httpapi

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"celestial/internal/config"
	"celestial/internal/coordinator"
	"celestial/internal/geom"
	"celestial/internal/orbit"
)

func testServer(t *testing.T) (*Server, *coordinator.Coordinator) {
	t.Helper()
	c := newCoordinator(t, coordinator.Options{})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	return New(c), c
}

// newCoordinator builds the test constellation's coordinator, not started.
func newCoordinator(t *testing.T, o coordinator.Options) *coordinator.Coordinator {
	t.Helper()
	cfg := &config.Config{
		Duration:   time.Minute,
		Resolution: 2 * time.Second,
		Shells: []config.Shell{{
			ShellConfig: orbit.ShellConfig{
				Name: "starlink-1", Planes: 24, SatsPerPlane: 22, AltitudeKm: 550,
				InclinationDeg: 53, ArcDeg: 360, PhasingFactor: 13, Model: orbit.ModelKepler,
			},
		}},
		GroundStations: []config.GroundStation{
			{Name: "accra", Location: geom.LatLon{LatDeg: 5.6037, LonDeg: -0.1870}},
			{Name: "johannesburg", Location: geom.LatLon{LatDeg: -26.2041, LonDeg: 28.0473}},
		},
	}
	cfg.Network.MinElevationDeg = 25
	if err := config.Finalize(cfg); err != nil {
		t.Fatal(err)
	}
	c, err := coordinator.New(cfg, o)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func get(t *testing.T, s *Server, path string, wantStatus int, into any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != wantStatus {
		t.Fatalf("GET %s = %d (%s), want %d", path, rec.Code, rec.Body.String(), wantStatus)
	}
	if into != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), into); err != nil {
			t.Fatalf("GET %s: decoding: %v", path, err)
		}
	}
}

func TestInfo(t *testing.T) {
	s, _ := testServer(t)
	var info Info
	get(t, s, "/info", http.StatusOK, &info)
	if info.Nodes != 24*22+2 {
		t.Errorf("nodes = %d", info.Nodes)
	}
	if len(info.Shells) != 1 || info.Shells[0].Satellites != 528 {
		t.Errorf("shells = %+v", info.Shells)
	}
	if len(info.GroundStations) != 2 || info.GroundStations[0] != "accra" {
		t.Errorf("gsts = %v", info.GroundStations)
	}
}

func TestShell(t *testing.T) {
	s, _ := testServer(t)
	var shell ShellInfo
	get(t, s, "/shell/0", http.StatusOK, &shell)
	if shell.Name != "starlink-1" || shell.AltitudeKm != 550 || shell.Planes != 24 {
		t.Errorf("shell = %+v", shell)
	}
	get(t, s, "/shell/5", http.StatusNotFound, nil)
	get(t, s, "/shell/abc", http.StatusBadRequest, nil)
}

func TestSat(t *testing.T) {
	s, _ := testServer(t)
	var sat SatInfo
	get(t, s, "/shell/0/100", http.StatusOK, &sat)
	if sat.Name != "100.0.celestial" {
		t.Errorf("name = %q", sat.Name)
	}
	if sat.IP != "10.1.0.100" {
		t.Errorf("ip = %q", sat.IP)
	}
	// Altitude ≈ 550 km.
	if sat.AltKm < 530 || sat.AltKm > 570 {
		t.Errorf("alt = %v", sat.AltKm)
	}
	if !sat.Active {
		t.Error("whole-earth bbox satellite inactive")
	}
	get(t, s, "/shell/0/9999", http.StatusNotFound, nil)
	get(t, s, "/shell/0/x", http.StatusBadRequest, nil)
}

func TestGST(t *testing.T) {
	s, _ := testServer(t)
	var gst GSTInfo
	get(t, s, "/gst/accra", http.StatusOK, &gst)
	if gst.IP != "10.0.0.0" {
		t.Errorf("ip = %q", gst.IP)
	}
	if gst.LatDeg < 5 || gst.LatDeg > 6 {
		t.Errorf("lat = %v", gst.LatDeg)
	}
	if len(gst.Uplinks) != 1 {
		t.Fatalf("uplinks = %+v", gst.Uplinks)
	}
	if gst.Uplinks[0].LatencyMs <= 0 || gst.Uplinks[0].DistanceKm < 550 {
		t.Errorf("uplink = %+v", gst.Uplinks[0])
	}
	get(t, s, "/gst/atlantis", http.StatusNotFound, nil)
}

func TestPath(t *testing.T) {
	s, _ := testServer(t)
	var path PathResponse
	get(t, s, "/path/accra/johannesburg", http.StatusOK, &path)
	if path.LatencyMs < 15 || path.LatencyMs > 100 {
		t.Errorf("latency = %v ms", path.LatencyMs)
	}
	if len(path.Segments) < 2 {
		t.Fatalf("segments = %+v", path.Segments)
	}
	// Segment latencies sum to the total.
	sum := 0.0
	for _, seg := range path.Segments {
		sum += seg.LatencyMs
	}
	if diff := sum - path.LatencyMs; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("segment sum %v != total %v", sum, path.LatencyMs)
	}
	if path.Segments[0].From != "accra" {
		t.Errorf("first segment = %+v", path.Segments[0])
	}

	// Satellite-to-satellite path by name.
	var sp PathResponse
	get(t, s, "/path/0.0/5.0", http.StatusOK, &sp)
	if sp.LatencyMs <= 0 {
		t.Errorf("sat path latency = %v", sp.LatencyMs)
	}

	get(t, s, "/path/accra/nowhere", http.StatusNotFound, nil)
	get(t, s, "/path/garbage!/accra", http.StatusNotFound, nil)
}

func TestPathReflectsTime(t *testing.T) {
	s, c := testServer(t)
	var before PathResponse
	get(t, s, "/path/accra/johannesburg", http.StatusOK, &before)
	if err := c.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	var after PathResponse
	get(t, s, "/path/accra/johannesburg", http.StatusOK, &after)
	if before.LatencyMs == after.LatencyMs {
		t.Error("path latency static after 30 s of satellite movement")
	}
	var info Info
	get(t, s, "/info", http.StatusOK, &info)
	if info.T != 30 {
		t.Errorf("t = %v", info.T)
	}
}

// TestGSTUplinkLatencyQuantized locks in the /gst–/path agreement bugfix:
// the reported uplink latency must be the netem-quantized delay — exactly
// what /path reports for the same hop — not the raw propagation delay.
func TestGSTUplinkLatencyQuantized(t *testing.T) {
	s, _ := testServer(t)
	var gst GSTInfo
	get(t, s, "/gst/accra", http.StatusOK, &gst)
	if len(gst.Uplinks) == 0 {
		t.Fatal("no uplinks")
	}
	up := gst.Uplinks[0]
	const quantumMs = 0.1
	steps := up.LatencyMs / quantumMs
	if diff := math.Abs(steps - math.Round(steps)); diff > 1e-9 {
		t.Errorf("uplink latency %v ms is not a multiple of the %v ms quantum", up.LatencyMs, quantumMs)
	}
	// The direct ground–satellite hop is a one-link shortest path, so
	// /path over the same pair must realize the same latency.
	var path PathResponse
	get(t, s, fmt.Sprintf("/path/accra/%d.%d", up.Sat, up.Shell), http.StatusOK, &path)
	if len(path.Segments) == 0 {
		t.Fatal("no segments")
	}
	if path.Segments[0].LatencyMs != up.LatencyMs {
		t.Errorf("/path first hop %v ms != /gst uplink %v ms", path.Segments[0].LatencyMs, up.LatencyMs)
	}
}

// TestResolveNodeStrict locks in the strict "<sat>.<shell>" parser:
// trailing junk and signed indices used to resolve through fmt.Sscanf.
func TestResolveNodeStrict(t *testing.T) {
	s, _ := testServer(t)
	for _, bad := range []string{
		"3.2junk", "junk3.2", "-1.0", "0.-1", "+1.0", "1..0", "1.", ".0", "1.0.0", "1,0",
		"007.0", "00.0", // leading-zero aliases must not mint cache keys
	} {
		req := httptest.NewRequest(http.MethodGet, "/path/"+url.PathEscape(bad)+"/accra", nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusNotFound {
			t.Errorf("source %q = %d, want 404", bad, rec.Code)
			continue
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("source %q: decoding error body: %v", bad, err)
		}
		if !strings.Contains(e.Error, bad) {
			t.Errorf("source %q: error %q does not name the offending input", bad, e.Error)
		}
	}
	// Strictness must not reject valid references.
	get(t, s, "/path/527.0/accra", http.StatusOK, nil)
	// Out-of-range but well-formed stays 404 with the range error.
	get(t, s, "/path/528.0/accra", http.StatusNotFound, nil)

	// /shell paths share the strict index parser, so the endpoint
	// families agree on what a valid satellite reference is: "+5" works
	// nowhere rather than somewhere.
	get(t, s, "/shell/+0", http.StatusBadRequest, nil)
	get(t, s, "/shell/-1", http.StatusBadRequest, nil)
	get(t, s, "/shell/0/+5", http.StatusBadRequest, nil)
	get(t, s, "/shell/0/-1", http.StatusBadRequest, nil)
	get(t, s, "/shell/0/5x", http.StatusBadRequest, nil)
}

func TestInfoCarriesGeneration(t *testing.T) {
	s, c := testServer(t)
	var info Info
	get(t, s, "/info", http.StatusOK, &info)
	if info.Generation != c.Generation() || info.Generation == 0 {
		t.Errorf("generation = %d, coordinator at %d", info.Generation, c.Generation())
	}
	if err := c.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	var after Info
	get(t, s, "/info", http.StatusOK, &after)
	if after.Generation <= info.Generation {
		t.Errorf("generation did not advance: %d -> %d", info.Generation, after.Generation)
	}
	if after.T != 10 {
		t.Errorf("t = %v, want 10", after.T)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s, _ := testServer(t)
	req := httptest.NewRequest(http.MethodPost, "/info", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /info = %d", rec.Code)
	}
}

func TestServesOverRealHTTP(t *testing.T) {
	s, _ := testServer(t)
	srv := httptest.NewServer(s)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/info")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content-type = %q", ct)
	}
	var info Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Nodes == 0 {
		t.Error("empty info over real HTTP")
	}
}
