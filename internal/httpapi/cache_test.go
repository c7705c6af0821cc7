package httpapi

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strconv"
	"sync"
	"testing"
	"time"
)

// body performs a GET and returns the response body bytes.
func body(t *testing.T, s *Server, path string, wantStatus int) []byte {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != wantStatus {
		t.Fatalf("GET %s = %d (%s), want %d", path, rec.Code, rec.Body.String(), wantStatus)
	}
	return rec.Body.Bytes()
}

// differentialEndpoints are the endpoints the legacy-versus-/v1
// byte-equality test runs over.
var differentialEndpoints = []string{
	"/info",
	"/shell/0",
	"/shell/0/100",
	"/shell/0/0",
	"/gst/accra",
	"/gst/johannesburg",
	"/path/accra/johannesburg",
	"/path/0.0/5.0",
	"/path/100.0/accra",
	"/diff?since=0",
}

// TestCachedResponsesByteIdentical is the differential test for the
// response caches: for every cacheable endpoint, the server's response — on
// a cold cache and again on a warm one — must be byte-for-byte the document
// the Source's builder returns when called directly for the same snapshot,
// across topology changes.
func TestCachedResponsesByteIdentical(t *testing.T) {
	s, c := testServer(t)
	src := s.Source()
	refs := []struct {
		ep    string
		build func() ([]byte, int)
	}{
		{"/info", src.InfoDoc},
		{"/shell/0", func() ([]byte, int) { return src.ShellDoc("0") }},
		{"/shell/0/100", func() ([]byte, int) { return src.SatDoc("0", "100") }},
		{"/shell/0/0", func() ([]byte, int) { return src.SatDoc("0", "0") }},
		{"/gst/accra", func() ([]byte, int) { return src.GSTDoc("accra") }},
		{"/gst/johannesburg", func() ([]byte, int) { return src.GSTDoc("johannesburg") }},
		{"/path/accra/johannesburg", func() ([]byte, int) { return src.PathDoc("accra", "johannesburg") }},
		{"/path/0.0/5.0", func() ([]byte, int) { return src.PathDoc("0.0", "5.0") }},
		{"/path/100.0/accra", func() ([]byte, int) { return src.PathDoc("100.0", "accra") }},
	}

	check := func(tag string) {
		t.Helper()
		for _, r := range refs {
			ref, status := r.build()
			if status != http.StatusOK {
				t.Fatalf("%s: builder for %s answered %d: %s", tag, r.ep, status, ref)
			}
			cold := body(t, s, r.ep, http.StatusOK)
			warm := body(t, s, r.ep, http.StatusOK)
			if !bytes.Equal(ref, cold) {
				t.Errorf("%s: GET %s cold cache differs from the builder:\n  builder: %s\n  cached:  %s",
					tag, r.ep, ref, cold)
			}
			if !bytes.Equal(cold, warm) {
				t.Errorf("%s: GET %s warm cache differs from its own cold fill:\n  cold: %s\n  warm: %s",
					tag, r.ep, cold, warm)
			}
		}
	}

	check("t=0")
	// Advance through several update ticks (non-empty diffs: satellites
	// move whole delay quanta at this resolution) and re-run: the caches
	// must have invalidated and refilled to the fresh builder output.
	if err := c.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	check("t=30")
	if err := c.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	check("t=32")
}

// raceDetector reports whether the test binary was built with -race. The
// race detector makes sync.Pool drop a share of what is put back, so
// encoding/json allocates buffers a normal build reuses, and allocation
// counts are only checked without it.
func raceDetector() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// countingSource is a Source that counts the documents its builders make
// and the frames Frames serialized — a frame it has not handed out before.
type countingSource struct {
	Source
	builds int
	frames map[*Frame]bool
}

func (s *countingSource) Frames(since uint64) ([]*Frame, bool) {
	frames, ok := s.Source.Frames(since)
	for _, f := range frames {
		if !s.frames[f] {
			s.frames[f] = true
			s.builds++
		}
	}
	return frames, ok
}

func (s *countingSource) InfoDoc() ([]byte, int) {
	s.builds++
	return s.Source.InfoDoc()
}

func (s *countingSource) ShellDoc(shell string) ([]byte, int) {
	s.builds++
	return s.Source.ShellDoc(shell)
}

func (s *countingSource) SatDoc(shell, sat string) ([]byte, int) {
	s.builds++
	return s.Source.SatDoc(shell, sat)
}

func (s *countingSource) GSTDoc(name string) ([]byte, int) {
	s.builds++
	return s.Source.GSTDoc(name)
}

func (s *countingSource) PathDoc(source, target string) ([]byte, int) {
	s.builds++
	return s.Source.PathDoc(source, target)
}

// TestCacheHitsBuildNothing is the response caches' cost contract: a
// repeat request for a cached document calls no builder — neither a
// Source document builder nor the /diff frame serializer — and allocates
// at most what a hit allocated when the bound was set (a build costs 8 to
// 29). It measures after the coordinator's run is over, so no prefetched
// snapshot is being computed meanwhile.
func TestCacheHitsBuildNothing(t *testing.T) {
	_, c := benchServer(t, 8*time.Second, 8*time.Second)
	src := &countingSource{Source: NewCoordinatorSource(c), frames: map[*Frame]bool{}}
	s := RegisterRoutes(http.NewServeMux(), src)
	for _, hit := range []struct {
		path      string
		maxAllocs float64
	}{
		{"/v1/info", 1},
		{"/v1/gst/accra", 3},
		{"/v1/path/accra/johannesburg", 4},
		{"/path/0.0/263.0", 4},
		{"/v1/diff?since=" + strconv.FormatUint(c.Generation()-8, 10), 8},
	} {
		before := src.builds
		body(t, s, hit.path, http.StatusOK)
		if src.builds == before {
			t.Fatalf("GET %s: the cold request built nothing", hit.path)
		}
		before = src.builds
		req := httptest.NewRequest(http.MethodGet, hit.path, nil)
		w := &nopResponseWriter{h: make(http.Header)}
		allocs := testing.AllocsPerRun(100, func() { s.ServeHTTP(w, req) })
		if n := src.builds - before; n != 0 {
			t.Errorf("GET %s: %d builds on a warm cache", hit.path, n)
		}
		if allocs > hit.maxAllocs && !raceDetector() {
			t.Errorf("GET %s: a hit allocates %v, bound %v", hit.path, allocs, hit.maxAllocs)
		}
	}
}

// TestCacheServesStoredDocument pins the cache mechanics themselves: a
// fresh fill lands in the respCache and the stored bytes are what a
// repeat request receives.
func TestCacheServesStoredDocument(t *testing.T) {
	s, c := testServer(t)
	first := append([]byte(nil), body(t, s, "/info", http.StatusOK)...)
	doc, ok := s.info.get(c.Generation(), "")
	if !ok {
		t.Fatal("/info fill did not populate the cache")
	}
	if !bytes.Equal(doc, first) {
		t.Error("cached document differs from the served response")
	}
	if got := body(t, s, "/gst/accra", http.StatusOK); len(got) == 0 {
		t.Fatal("empty /gst response")
	}
	if _, ok := s.nodes.get(c.TopologyVersion(), "/gst/accra"); !ok {
		t.Error("/gst fill did not populate the node cache")
	}
	if _, ok := s.paths.get(c.TopologyVersion(), "accra\x00johannesburg"); ok {
		t.Error("path cache populated before any /path request")
	}
	body(t, s, "/path/accra/johannesburg", http.StatusOK)
	if _, ok := s.paths.get(c.TopologyVersion(), "accra\x00johannesburg"); !ok {
		t.Error("/path fill did not populate the path cache")
	}
}

func TestRespCacheVersioning(t *testing.T) {
	var c respCache
	c.put(1, "a", []byte("one"))
	if doc, ok := c.get(1, "a"); !ok || string(doc) != "one" {
		t.Fatalf("get(1) = %q, %v", doc, ok)
	}
	if _, ok := c.get(2, "a"); ok {
		t.Error("newer version served an older document")
	}
	// A newer put drops the previous version's documents.
	c.put(2, "b", []byte("two"))
	if _, ok := c.get(1, "a"); ok {
		t.Error("older version still served after reset")
	}
	if _, ok := c.get(2, "a"); ok {
		t.Error("stale key survived the version reset")
	}
	// A straggler put behind the current version is dropped.
	c.put(1, "c", []byte("late"))
	if _, ok := c.get(1, "c"); ok {
		t.Error("stale-version put was stored")
	}
	if doc, ok := c.get(2, "b"); !ok || string(doc) != "two" {
		t.Errorf("current entry lost: %q, %v", doc, ok)
	}
}

func TestRespCacheBoundsDocumentCount(t *testing.T) {
	var c respCache
	for i := 0; i < maxCachedDocs+10; i++ {
		c.put(1, fmt.Sprintf("k%d", i), []byte("x"))
	}
	c.mu.RLock()
	n := len(c.docs)
	c.mu.RUnlock()
	if n != maxCachedDocs {
		t.Errorf("cache grew to %d documents, cap is %d", n, maxCachedDocs)
	}
	// Existing keys still update past the cap.
	c.put(1, "k0", []byte("y"))
	if doc, _ := c.get(1, "k0"); string(doc) != "y" {
		t.Error("existing key no longer updatable at cap")
	}
}

// TestConcurrentRequestsRaceTickLoop drives parallel API clients against
// all endpoints while the coordinator tick loop recycles snapshot buffers
// underneath them — the lease/release surface the caches sit on. Run with
// -race; correctness here is "no race, no torn response, only 200s".
func TestConcurrentRequestsRaceTickLoop(t *testing.T) {
	s, c := testServer(t)
	endpoints := []string{
		"/info",
		"/shell/0",
		"/shell/0/100",
		"/gst/accra",
		"/path/accra/johannesburg",
		"/path/0.0/5.0",
		"/diff?since=0",
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// 25 ticks x 2 s resolution, each recycling the two-updates-ago
		// snapshot the moment its leases drain.
		for i := 0; i < 25; i++ {
			if err := c.Run(2 * time.Second); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				ep := endpoints[(g+i)%len(endpoints)]
				req := httptest.NewRequest(http.MethodGet, ep, nil)
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("GET %s = %d (%s)", ep, rec.Code, rec.Body.String())
					return
				}
			}
		}(g)
	}
	<-done
	wg.Wait()
}
