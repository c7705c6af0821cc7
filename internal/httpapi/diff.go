package httpapi

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"celestial/internal/constellation"
	"celestial/internal/netem"
)

// maxDiffWait caps the long-poll hold time of GET /diff?wait=, keeping
// intermediaries from reaping idle connections mid-poll.
const maxDiffWait = 60 * time.Second

// The stream timing knobs — how often an idle /diff event stream emits a
// keepalive comment and how long a single frame write may stall before the
// subscriber is evicted — live on the Server (see SetStreamTiming). Their
// defaults are shared with the host fan-out tier's agent heartbeat and
// write deadline: both subsystems face the same problem (quiet topology +
// proxy idle reaping, and a reader that stopped draining), so one pair of
// deployment knobs tunes both.

// DiffResponse is the GET /diff?since=<gen> response: every retained
// topology delta after the client's cursor, oldest first. Clients advance
// their cursor to the top-level generation field. When resync is true the
// cursor fell off the coordinator's retention ring — the client missed
// updates it can no longer replay and must refetch full state, then resume
// from the returned generation.
type DiffResponse struct {
	// Generation is the newest generation covered by this response —
	// the client's next since cursor.
	Generation uint64 `json:"generation"`
	// TopologyVersion is the generation of the last non-empty diff; a
	// client holding documents from this version has current topology.
	TopologyVersion uint64 `json:"topology_version"`
	// Resync is set when the since cursor predates the retention ring.
	Resync bool `json:"resync,omitempty"`
	// Diffs are the replayed per-update deltas, oldest first; empty when
	// no update happened after since (or on resync).
	Diffs []DiffDoc `json:"diffs"`
}

// DiffDoc is one update's topology delta on the wire.
type DiffDoc struct {
	// Generation is the update that produced this diff.
	Generation uint64 `json:"generation"`
	// T is the snapshot offset in seconds.
	T float64 `json:"t"`
	// Full marks a diff with no usable base (e.g. the first update):
	// consumers must treat every link and node as changed.
	Full bool `json:"full,omitempty"`
	// Empty marks an update that changed nothing at emulation
	// granularity.
	Empty bool `json:"empty,omitempty"`
	// Added, Removed and DelayChanged are the link deltas.
	Added        []LinkChange `json:"added,omitempty"`
	Removed      []LinkChange `json:"removed,omitempty"`
	DelayChanged []LinkChange `json:"delay_changed,omitempty"`
	// Activated and Deactivated are node IDs whose activity flipped.
	Activated   []int32 `json:"activated,omitempty"`
	Deactivated []int32 `json:"deactivated,omitempty"`
	// CarriedPaths, RepairedPaths and RepairFallbacks report how the
	// tick reused the shortest-path cache (carry-over, incremental
	// repair, full recompute).
	CarriedPaths    int `json:"carried_paths,omitempty"`
	RepairedPaths   int `json:"repaired_paths,omitempty"`
	RepairFallbacks int `json:"repair_fallbacks,omitempty"`
	// Degraded is the tick watchdog's degradation level when the update
	// ran under deadline pressure: 1 path repair deferred, 2 distribution
	// coalesced into a later tick, 3 activity-only. Absent (0) on healthy
	// or unsupervised ticks.
	Degraded uint8 `json:"degraded,omitempty"`
}

// LinkChange is one link delta between nodes A and B. Latencies are the
// realized (netem-quantized) one-way delays in milliseconds; -1 marks a
// side on which the link does not exist (an appearing or disappearing
// link).
type LinkChange struct {
	A     int     `json:"a"`
	B     int     `json:"b"`
	OldMs float64 `json:"old_ms"`
	NewMs float64 `json:"new_ms"`
}

// quantaMs converts a delay-quantum count to milliseconds, mapping the
// "no link" sentinel through unchanged.
func quantaMs(q int32) float64 {
	if q < 0 {
		return -1
	}
	return float64(q) * netem.DelayQuantumSeconds * 1000
}

// diffDoc converts one generation's diff record to its wire form. Both
// the coordinator's frame cache and a replica re-encoding the binary
// stream go through this one conversion, which is what makes their JSON
// documents byte-identical: the wire carries delay quanta, and the
// millisecond floats are derived here on both sides.
func diffDoc(gen uint64, rec *constellation.DiffRecord) DiffDoc {
	d := DiffDoc{
		Generation:      gen,
		T:               rec.T,
		Full:            rec.Full,
		Empty:           rec.Empty(),
		CarriedPaths:    rec.CarriedPaths,
		RepairedPaths:   rec.RepairedPaths,
		RepairFallbacks: rec.RepairFallbacks,
		Degraded:        rec.Degraded,
		Activated:       rec.Activated,
		Deactivated:     rec.Deactivated,
	}
	for _, l := range rec.Added {
		d.Added = append(d.Added, LinkChange{A: l.A, B: l.B, OldMs: quantaMs(l.OldQ), NewMs: quantaMs(l.NewQ)})
	}
	for _, l := range rec.Removed {
		d.Removed = append(d.Removed, LinkChange{A: l.A, B: l.B, OldMs: quantaMs(l.OldQ), NewMs: quantaMs(l.NewQ)})
	}
	for _, l := range rec.DelayChanged {
		d.DelayChanged = append(d.DelayChanged, LinkChange{A: l.A, B: l.B, OldMs: quantaMs(l.OldQ), NewMs: quantaMs(l.NewQ)})
	}
	return d
}

// handleDiff serves GET /diff?since=<gen>[&wait=<duration>]: the link and
// activity deltas of every update after the client's cursor, so clients
// can follow topology changes without re-polling full state. With wait,
// the request long-polls — it blocks until an update advances past since
// or the wait elapses. With "Accept: text/event-stream" the response is a
// server-sent event stream instead, pushing one diff event per update
// until the client disconnects; with the binary media type (Accept:
// application/x-celestial-diff) it is the equivalent binary frame stream.
// All three forms serve each generation from the same shared frame.
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var since uint64
	if v := q.Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad since cursor %q: %v", v, err)
			return
		}
		since = n
	}
	accept := r.Header.Get("Accept")
	if strings.Contains(accept, DiffContentType) {
		s.serveDiffStream(w, r, since, true)
		return
	}
	if strings.Contains(accept, "text/event-stream") {
		s.serveDiffStream(w, r, since, false)
		return
	}
	var wait time.Duration
	if v := q.Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			writeError(w, http.StatusBadRequest, "bad wait %q", v)
			return
		}
		wait = min(d, maxDiffWait)
	}
	// Long-poll only when the cursor sits exactly at the head: behind it
	// there are diffs to return now, ahead of it (a stale or corrupted
	// cursor) the client needs the resync answer now.
	if wait > 0 && s.src.Generation() == since {
		timer := time.NewTimer(wait)
		defer timer.Stop()
	poll:
		for {
			// Grab the notification channel, then re-check: the
			// coordinator replaces the channel under the same lock that
			// advances the generation, so an update between the two
			// reads cannot be missed.
			ch := s.src.UpdateChan()
			if s.src.Generation() > since {
				break
			}
			select {
			case <-ch:
			case <-timer.C:
				break poll
			case <-r.Context().Done():
				return
			}
		}
	}
	frames, ok := s.src.Frames(since)
	// The next cursor covers exactly what this response replayed — the
	// last replayed frame, or the unchanged since when nothing was. Never
	// a fresh Generation() read: an update racing in after Frames must
	// not be skipped. On resync the cursor is advisory; the client
	// refetches full state and resumes from the generation it observes
	// there.
	resp := DiffResponse{
		Generation:      since,
		TopologyVersion: s.src.TopologyVersion(),
		Resync:          !ok,
		Diffs:           make([]DiffDoc, 0, len(frames)),
	}
	if !ok {
		resp.Generation = s.src.Generation()
	}
	if len(frames) > 0 {
		resp.Generation = frames[len(frames)-1].Generation
	}
	for _, f := range frames {
		resp.Diffs = append(resp.Diffs, f.Doc)
	}
	writeJSON(w, http.StatusOK, resp)
}

// serveDiffStream streams diffs to one subscriber, in one of two framings
// over the same shared per-generation buffers:
//
//   - SSE (binary=false): one "diff" event per update (its id is the
//     generation, so EventSource reconnects resume via Last-Event-ID),
//     a "resync" event when the cursor fell off the retention ring, and
//     comment frames as idle keepalives;
//
//   - binary (binary=true): the same sequence as length-prefixed frames —
//     StreamFrameDiff, StreamFrameResync, StreamFrameKeepalive — with the
//     resync frame additionally carrying the head topology version, so a
//     replica can re-anchor without a JSON round trip.
//
// Every write runs under the server's stream write timeout; a subscriber
// whose connection stalls past it is evicted rather than blocking the
// handler goroutine indefinitely.
func (s *Server) serveDiffStream(w http.ResponseWriter, r *http.Request, since uint64, binary bool) {
	rc := http.NewResponseController(w)
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			since = n
		}
	}
	h := w.Header()
	if binary {
		h.Set("Content-Type", DiffContentType)
	} else {
		h.Set("Content-Type", "text/event-stream")
	}
	h.Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	// write sends one frame under the per-write deadline and flushes it.
	// false means the subscriber is gone or stalled — the caller returns,
	// which evicts it. Writers that cannot set deadlines or flush
	// (httptest recorders, exotic wrappers) report http.ErrNotSupported
	// and keep streaming unbounded rather than failing.
	write := func(frame []byte) bool {
		if err := rc.SetWriteDeadline(time.Now().Add(s.sseWriteTimeout)); err != nil && !errors.Is(err, http.ErrNotSupported) {
			return false
		}
		if _, err := w.Write(frame); err != nil {
			return false
		}
		if err := rc.Flush(); err != nil && !errors.Is(err, http.ErrNotSupported) {
			return false
		}
		return true
	}
	if !write(nil) {
		return
	}
	keepAlive := time.NewTicker(s.sseKeepAlive)
	defer keepAlive.Stop()
	for {
		frames, ok := s.src.Frames(since)
		if !ok {
			gen, tv := s.src.Generation(), s.src.TopologyVersion()
			var frame []byte
			if binary {
				frame = AppendResyncStreamFrame(nil, gen, tv)
			} else {
				frame = []byte(fmt.Sprintf("event: resync\ndata: {\"generation\":%d}\n\n", gen))
			}
			if !write(frame) {
				return
			}
			since = gen
			continue
		}
		for _, f := range frames {
			frame := f.SSE
			if binary {
				frame = f.Bin
			}
			if !write(frame) {
				return
			}
			since = f.Generation
		}
		ch := s.src.UpdateChan()
		if s.src.Generation() > since {
			continue
		}
		select {
		case <-ch:
		case <-keepAlive.C:
			// A keepalive frame: a comment line SSE clients ignore, or
			// the empty binary keepalive — either way the connection
			// stays visibly alive through intermediaries.
			frame := []byte(": keepalive\n\n")
			if binary {
				frame = keepaliveStreamFrame
			}
			if !write(frame) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}
