package httpapi

import (
	"bytes"
	"testing"
	"time"

	"celestial/internal/scenario"
)

// TestPathReadsLeaveTheReportAlone: /v1/path reads from the sources of a
// scenario's flows to targets no flow reads change nothing in the run's
// report. They add pairs to the path cache, and enough of them give a
// source a tree of its own, but the report counts carried and repaired
// sources, not what serves them, and every answer is exact either way.
func TestPathReadsLeaveTheReportAlone(t *testing.T) {
	run := func(extra [][2]string) []byte {
		t.Helper()
		sc, err := scenario.ParseFile("../../examples/scenarios/starlink-p1.toml")
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.Truncate(40 * time.Second); err != nil {
			t.Fatal(err)
		}
		r, err := scenario.NewRunner(sc)
		if err != nil {
			t.Fatal(err)
		}
		cs := NewCoordinatorSource(r.Coordinator())
		rep, err := r.RunWith(scenario.RunOptions{TickHook: func(tick int) error {
			for _, p := range extra {
				if _, code := cs.PathDoc(p[0], p[1]); code != 200 {
					t.Errorf("tick %d: GET /v1/path/%s/%s: status %d", tick, p[0], p[1], code)
				}
			}
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		b, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	plain := run(nil)
	read := run([][2]string{
		{"berlin", "sydney"}, {"berlin", "saopaulo"}, {"berlin", "100.0"},
		{"saopaulo", "singapore"}, {"singapore", "berlin"}, {"newyork", "3.4"},
	})
	if !bytes.Equal(plain, read) {
		t.Fatalf("extra path reads from flow sources changed the report:\n--- plain\n%s\n--- with reads\n%s", plain, read)
	}
}
