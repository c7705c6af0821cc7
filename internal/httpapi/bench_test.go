package httpapi

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"celestial/internal/config"
	"celestial/internal/coordinator"
	"celestial/internal/geom"
	"celestial/internal/orbit"
)

// benchServer builds a started coordinator (Starlink shell 1 scale, two
// stations) whose experiment lasts duration, runs it for warm, and returns
// an API server over it. Allocation counts see every allocation in the
// process, and the coordinator computes its next tick's snapshot ahead on
// another goroutine for as long as a next tick is due: a caller that
// serves one fixed generation passes warm == duration, so the update loop
// is over and nothing is in flight when it starts measuring.
func benchServer(tb testing.TB, duration, warm time.Duration) (*Server, *coordinator.Coordinator) {
	tb.Helper()
	cfg := &config.Config{
		Duration:   duration,
		Resolution: time.Second,
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
		tb.Fatal(err)
	}
	c, err := coordinator.New(cfg, coordinator.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	if err := c.Start(); err != nil {
		tb.Fatal(err)
	}
	if err := c.Run(warm); err != nil {
		tb.Fatal(err)
	}
	return New(c), c
}

// nopResponseWriter discards the response so the benchmark measures the
// service, not the recorder.
type nopResponseWriter struct{ h http.Header }

func (w *nopResponseWriter) Header() http.Header         { return w.h }
func (w *nopResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nopResponseWriter) WriteHeader(int)             {}

// hammer issues the endpoints in parallel against the server, measuring
// steady-state serving: each endpoint is primed once before the timer so
// a cached server's one-off fill cost is not attributed to the first
// iteration.
func hammer(b *testing.B, s *Server, endpoints ...string) {
	b.Helper()
	for _, ep := range endpoints {
		serveOnce(s, ep)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		reqs := make([]*http.Request, len(endpoints))
		for i, ep := range endpoints {
			reqs[i] = httptest.NewRequest(http.MethodGet, ep, nil)
		}
		w := &nopResponseWriter{h: make(http.Header)}
		for i := 0; pb.Next(); i++ {
			s.ServeHTTP(w, reqs[i%len(reqs)])
		}
	})
}

// serveOnce issues one request, discarding the response.
func serveOnce(s *Server, endpoint string) {
	s.ServeHTTP(&nopResponseWriter{h: make(http.Header)}, httptest.NewRequest(http.MethodGet, endpoint, nil))
}

// BenchmarkAPI measures the information service's request throughput:
// cached serving of the hot endpoints, and a mixed client load racing the
// coordinator's tick loop (the deployment shape: many emulated
// applications polling while the constellation updates). What a cache hit
// may cost is TestCacheHitsBuildNothing's contract; the bench/ metrics
// httpapi.doc_info_us and get_hit_p50_us put a build beside a hit.
func BenchmarkAPI(b *testing.B) {
	pathEndpoints := []string{
		"/path/accra/johannesburg",
		"/path/johannesburg/accra",
		"/path/0.0/263.0",
		"/path/accra/100.0",
	}
	b.Run("info-cached", func(b *testing.B) {
		s, _ := benchServer(b, time.Second, time.Second)
		hammer(b, s, "/info")
	})
	b.Run("path-cached", func(b *testing.B) {
		s, _ := benchServer(b, time.Second, time.Second)
		hammer(b, s, pathEndpoints...)
	})
	b.Run("diff-replay", func(b *testing.B) {
		// Replaying the retained window re-serves prebuilt
		// per-generation frames (see TestCacheHitsBuildNothing).
		s, c := benchServer(b, 8*time.Second, 8*time.Second)
		hammer(b, s, "/diff?since="+strconv.FormatUint(c.Generation()-8, 10))
	})
	b.Run("mixed-ticking", func(b *testing.B) {
		// Three ticks in, the snapshot pool owns all the buffers it will
		// ever cycle through; the ticker below only ever runs steady ticks.
		// allocs/op is not a per-request count here: it includes whatever
		// the ticks that fit into the measured requests allocate.
		s, c := benchServer(b, time.Hour, 3*time.Second)
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := c.Run(time.Second); err != nil {
					b.Error(err)
					return
				}
			}
		}()
		hammer(b, s, append([]string{"/info", "/gst/accra", "/diff?since=0"}, pathEndpoints...)...)
		b.StopTimer()
		close(stop)
		<-done
	})
}
