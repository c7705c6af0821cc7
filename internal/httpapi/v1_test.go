package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"celestial/internal/httpapi/middleware"
	"celestial/internal/leaktest"
)

// TestV1AliasesByteIdentical pins the versioned route table: every legacy
// unversioned route and its /v1 alias are one handler, byte-for-byte —
// the aliases are kept for one release and must not fork behavior.
func TestV1AliasesByteIdentical(t *testing.T) {
	s, c := testServer(t)
	if err := c.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, ep := range differentialEndpoints {
		legacy := body(t, s, ep, http.StatusOK)
		v1 := body(t, s, "/v1"+ep, http.StatusOK)
		if !bytes.Equal(legacy, v1) {
			t.Errorf("GET %s and /v1%s differ:\n  legacy: %s\n  v1:     %s", ep, ep, legacy, v1)
		}
	}
	// Error routes alias too.
	for _, ep := range []string{"/gst/atlantis", "/shell/99"} {
		req := httptest.NewRequest(http.MethodGet, ep, nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		reqV1 := httptest.NewRequest(http.MethodGet, "/v1"+ep, nil)
		recV1 := httptest.NewRecorder()
		s.ServeHTTP(recV1, reqV1)
		if rec.Code != recV1.Code || !bytes.Equal(rec.Body.Bytes(), recV1.Body.Bytes()) {
			t.Errorf("GET %s (%d) and /v1%s (%d) differ", ep, rec.Code, ep, recV1.Code)
		}
	}
}

// TestBinaryDiffStream requests /v1/diff with the binary media type and
// checks the frame stream replays the same generations — with the same
// decoded documents — as the JSON long-poll over the same window.
func TestBinaryDiffStream(t *testing.T) {
	leaktest.Check(t)
	s, c := testServer(t)
	if err := c.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	var ref DiffResponse
	get(t, s, "/v1/diff?since=0", http.StatusOK, &ref)
	if len(ref.Diffs) == 0 {
		t.Fatal("no diffs to compare against")
	}

	srv := httptest.NewServer(s)
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/diff?since=0", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", DiffContentType)
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != DiffContentType {
		t.Fatalf("content-type = %q, want %q", ct, DiffContentType)
	}

	var buf []byte
	for i := range ref.Diffs {
		var f StreamFrame
		f, buf, err = ReadStreamFrame(resp.Body, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Type != StreamFrameDiff {
			t.Fatalf("frame %d type = %d, want diff", i, f.Type)
		}
		if f.Generation != ref.Diffs[i].Generation {
			t.Fatalf("frame %d generation = %d, want %d", i, f.Generation, ref.Diffs[i].Generation)
		}
		// Re-encoding the wire record through the shared converter must
		// reproduce the JSON document exactly — the replica byte-identity
		// keystone.
		doc := diffDoc(f.Generation, &f.Diff)
		if !reflect.DeepEqual(doc, ref.Diffs[i]) {
			t.Errorf("frame %d decodes to %+v, JSON replay has %+v", i, doc, ref.Diffs[i])
		}
	}
	cancel()
}

// TestV1ThroughMiddleware wires the real server behind the deployment
// middleware chain (as cmd/celestial does) and checks auth and rate-limit
// rejections on the versioned routes.
func TestV1ThroughMiddleware(t *testing.T) {
	s, _ := testServer(t)
	h := middleware.Chain(s,
		middleware.Recover(nil),
		middleware.TokenAuth("sesame"),
		middleware.RateLimit(0.001, 2), // burst 2, effectively no refill
	)
	do := func(token, path string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.RemoteAddr = "192.0.2.1:4321"
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	if rec := do("", "/v1/info"); rec.Code != http.StatusUnauthorized {
		t.Errorf("unauthenticated /v1/info = %d, want 401", rec.Code)
	}
	if rec := do("wrong", "/v1/shell/0"); rec.Code != http.StatusUnauthorized {
		t.Errorf("wrong token /v1/shell/0 = %d, want 401", rec.Code)
	}
	rec := do("sesame", "/v1/info")
	if rec.Code != http.StatusOK {
		t.Fatalf("authenticated /v1/info = %d (%s)", rec.Code, rec.Body.String())
	}
	var info Info
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil || info.Nodes == 0 {
		t.Errorf("chained /v1/info body unusable: %v %s", err, rec.Body.String())
	}
	if rec := do("sesame", "/v1/gst/accra"); rec.Code != http.StatusOK {
		t.Errorf("authenticated /v1/gst/accra = %d", rec.Code)
	}
	// Burst 2 is now spent; the third authenticated request is limited.
	rec = do("sesame", "/v1/path/accra/johannesburg")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-burst /v1/path = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After")
	}
	// Another client is not affected by the first client's bucket.
	req := httptest.NewRequest(http.MethodGet, "/v1/info", nil)
	req.RemoteAddr = "192.0.2.2:1111"
	req.Header.Set("Authorization", "Bearer sesame")
	other := httptest.NewRecorder()
	h.ServeHTTP(other, req)
	if other.Code != http.StatusOK {
		t.Errorf("second client limited by first: %d", other.Code)
	}
}
