// Package readpath implements read replicas for the information service:
// read-only servers that follow an upstream server's /diff stream and
// serve the identical route table from their own cache, so read capacity
// scales horizontally with zero added coordinator load. Distribution is a
// deployment decision layered outside the coordinator (the RAFDA stance:
// application logic stays put, distribution policy composes around it) —
// the coordinator neither knows nor cares how many replicas fan its
// documents out.
//
// A replica is a diff-following read-through cache, not a reconstruction:
// diff frames carry link and activity deltas, never satellite positions,
// so position-derived documents cannot be rebuilt downstream. Instead the
// replica tracks the upstream's generation and topology version by
// following the binary /diff stream, fetches each document from the
// upstream at most once per version, and serves the upstream's literal
// bytes — which makes replica responses byte-identical to the
// coordinator's by construction, with the diff stream acting as the
// cache-invalidation bus. The replica implements httpapi.Source, so
// httpapi.RegisterRoutes gives it exactly the coordinator's route table,
// caching semantics (documents keyed by generation/topology version) and
// /diff re-fan-out — replicas can follow replicas, forming fan-out trees.
//
// Resync mirrors the coordinator exactly: a replica whose own subscriber
// falls off its retained frame window answers resync, and a replica whose
// cursor falls off the upstream's ring receives the stream's resync frame,
// re-anchors at the carried generation/topology version, drops its frame
// ring and flushes its document caches (the upstream may have restarted
// with regressed counters, which monotonic cache keys cannot express).
package readpath

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"celestial/internal/constellation"
	"celestial/internal/difflog"
	"celestial/internal/hostlink"
	"celestial/internal/httpapi"
	"celestial/internal/wire"
)

// maxDocBytes caps a proxied document read, sharing the stream frames'
// size cap: a corrupt or hostile upstream must not balloon replica memory.
const maxDocBytes = wire.MaxFramePayload

// Options configures a Replica.
type Options struct {
	// Upstream is the base URL of the server to follow, e.g.
	// "http://127.0.0.1:8080" — the coordinator's API server or another
	// replica.
	Upstream string
	// Client is the HTTP client for upstream fetches and the diff
	// stream; nil uses http.DefaultClient. It must not set a global
	// Timeout (the stream is long-lived).
	Client *http.Client
	// UpstreamAuth is a bearer token presented on every upstream request,
	// for upstreams behind the token-auth middleware. Empty sends none.
	UpstreamAuth string
	// Retention is how many generations of frames the replica retains for
	// its own /diff subscribers; 0 uses hostlink.DefaultRetention, the
	// coordinator's default.
	Retention int
	// ReconnectWait is the pause between follow attempts after the
	// stream drops; 0 uses one second.
	ReconnectWait time.Duration
	// Logf logs follow-loop lifecycle events; nil discards them.
	Logf func(format string, args ...any)
}

// Stats counts a replica's follow-loop activity.
type Stats struct {
	// FramesApplied is the number of diff frames applied from the
	// upstream stream.
	FramesApplied uint64
	// Resyncs counts resync frames received (cursor fell off the
	// upstream's retention ring, or first contact past it).
	Resyncs uint64
	// Reconnects counts stream re-establishments after a drop.
	Reconnects uint64
}

// Replica is one read replica: an httpapi.Source fed by the upstream's
// binary /diff stream, plus the server serving its route table.
type Replica struct {
	upstream      string
	client        *http.Client
	upstreamAuth  string
	reconnectWait time.Duration
	logf          func(string, ...any)
	srv           *httpapi.Server

	mu sync.Mutex
	// anchored reports that the replica has a valid cursor: either a
	// replayed-from-zero stream or a resync frame established it.
	anchored bool
	// frames is the replica's own retention log for /diff re-fan-out: the
	// shared per-generation frames, rebuilt from the wire records by the
	// same builder the coordinator uses. Its head mirrors the upstream's
	// generation as of the last applied frame, topoVer the upstream's
	// topology version; its wake channel wakes the replica's own
	// long-polls and streams on every cursor change.
	frames  *difflog.Log[*httpapi.Frame]
	topoVer uint64
	stats   Stats
}

// New creates a replica for an upstream. The replica serves immediately
// (documents are read through to the upstream) but its /diff re-fan-out
// only advances once Run is following the stream.
func New(opts Options) (*Replica, error) {
	u, err := url.Parse(opts.Upstream)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("readpath: bad upstream URL %q", opts.Upstream)
	}
	if opts.Retention <= 0 {
		opts.Retention = hostlink.DefaultRetention
	}
	r := &Replica{
		upstream:      strings.TrimSuffix(opts.Upstream, "/"),
		client:        opts.Client,
		upstreamAuth:  opts.UpstreamAuth,
		reconnectWait: opts.ReconnectWait,
		logf:          opts.Logf,
		frames:        difflog.New[*httpapi.Frame](opts.Retention),
	}
	if r.client == nil {
		r.client = http.DefaultClient
	}
	if r.reconnectWait <= 0 {
		r.reconnectWait = time.Second
	}
	if r.logf == nil {
		r.logf = func(string, ...any) {}
	}
	mux := http.NewServeMux()
	r.srv = httpapi.RegisterRoutes(mux, r)
	return r, nil
}

// Server returns the replica's API server (for stream timing and caching
// knobs); ServeHTTP serves through it.
func (r *Replica) Server() *httpapi.Server { return r.srv }

// ServeHTTP implements http.Handler with the replica's route table.
func (r *Replica) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	r.srv.ServeHTTP(w, req)
}

// Stats returns a snapshot of the follow-loop counters.
func (r *Replica) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Generation implements httpapi.Source: the upstream generation of the
// last applied frame.
func (r *Replica) Generation() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.frames.Head()
}

// TopologyVersion implements httpapi.Source.
func (r *Replica) TopologyVersion() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.topoVer
}

// UpdateChan implements httpapi.Source: closed on the next applied frame
// or resync.
func (r *Replica) UpdateChan() <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.frames.Wait()
}

// errBody builds the JSON error envelope for replica-side failures
// (upstream unreachable); upstream-side errors are proxied verbatim.
func errBody(err error) []byte {
	b, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{"readpath: " + err.Error()})
	return append(b, '\n')
}

// fetch reads one document through from the upstream, returning its
// literal body bytes and status — the byte-identity guarantee. A
// transport failure maps to 502.
func (r *Replica) fetch(path string) ([]byte, int) {
	req, err := http.NewRequest(http.MethodGet, r.upstream+path, nil)
	if err != nil {
		return errBody(err), http.StatusBadGateway
	}
	if r.upstreamAuth != "" {
		req.Header.Set("Authorization", "Bearer "+r.upstreamAuth)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return errBody(err), http.StatusBadGateway
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxDocBytes+1))
	if err != nil {
		return errBody(err), http.StatusBadGateway
	}
	if len(body) > maxDocBytes {
		return errBody(fmt.Errorf("document exceeds %d bytes", maxDocBytes)), http.StatusBadGateway
	}
	return body, resp.StatusCode
}

// The document builders proxy the upstream's canonical /v1 routes. The
// httpapi server in front of them caches 200s keyed by the replica's
// generation/topology version, so a document is fetched at most once per
// version per replica — the diff stream is the invalidation bus.

func (r *Replica) InfoDoc() ([]byte, int) { return r.fetch("/v1/info") }

func (r *Replica) ShellDoc(shell string) ([]byte, int) {
	return r.fetch("/v1/shell/" + url.PathEscape(shell))
}

func (r *Replica) SatDoc(shell, sat string) ([]byte, int) {
	return r.fetch("/v1/shell/" + url.PathEscape(shell) + "/" + url.PathEscape(sat))
}

func (r *Replica) GSTDoc(name string) ([]byte, int) {
	return r.fetch("/v1/gst/" + url.PathEscape(name))
}

func (r *Replica) PathDoc(source, target string) ([]byte, int) {
	return r.fetch("/v1/path/" + url.PathEscape(source) + "/" + url.PathEscape(target))
}

// Frames implements httpapi.Source over the replica's own retained log,
// with the coordinator's exact semantics: ok=false for a cursor in the
// future or fallen off the window, empty success at the head.
func (r *Replica) Frames(since uint64) ([]*httpapi.Frame, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.frames.Since(since)
}

// Run follows the upstream's binary /diff stream until ctx is canceled,
// reconnecting (with the configured wait) whenever the stream drops —
// an upstream restart mid-stream is just a reconnect whose resumed
// cursor the new upstream answers, possibly with a resync frame.
func (r *Replica) Run(ctx context.Context) error {
	for {
		err := r.followOnce(ctx)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		r.logf("readpath: upstream stream ended: %v (reconnecting in %v)", err, r.reconnectWait)
		r.mu.Lock()
		r.stats.Reconnects++
		r.mu.Unlock()
		select {
		case <-time.After(r.reconnectWait):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// followOnce opens one stream from the current cursor and applies frames
// until it breaks.
func (r *Replica) followOnce(ctx context.Context) error {
	since := r.Generation()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		r.upstream+"/v1/diff?since="+strconv.FormatUint(since, 10), nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", httpapi.DiffContentType)
	if r.upstreamAuth != "" {
		req.Header.Set("Authorization", "Bearer "+r.upstreamAuth)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("upstream /v1/diff: %s (%s)", resp.Status, strings.TrimSpace(string(body)))
	}
	if ct := resp.Header.Get("Content-Type"); ct != httpapi.DiffContentType {
		return fmt.Errorf("upstream /v1/diff served %q, want %q (upstream too old for the binary stream?)",
			ct, httpapi.DiffContentType)
	}
	r.logf("readpath: following %s from generation %d", r.upstream, since)
	var buf []byte
	for {
		var f httpapi.StreamFrame
		f, buf, err = httpapi.ReadStreamFrame(resp.Body, buf)
		if err != nil {
			return err
		}
		switch f.Type {
		case httpapi.StreamFrameDiff:
			r.applyFrame(f.Generation, &f.Diff)
		case httpapi.StreamFrameResync:
			r.resync(f.Generation, f.TopologyVersion)
		case httpapi.StreamFrameKeepalive:
			// Nothing to apply; the read itself proves liveness.
		}
	}
}

// applyFrame ingests one generation: it rebuilds the shared frame (same
// builder as the coordinator's frame cache, so the replica's SSE/JSON
// re-fan-out is byte-identical) and appends it to the log. First contact
// on a replayed-from-zero stream, and a gap without a resync frame (which
// should not happen), start the window at gen — the log's rule for a
// generation that does not continue it — so the replica's own subscribers
// resync rather than seeing a hole.
func (r *Replica) applyFrame(gen uint64, rec *constellation.DiffRecord) {
	frame := httpapi.BuildFrame(gen, rec)
	r.mu.Lock()
	defer r.mu.Unlock()
	if gen <= r.frames.Head() {
		// Reconnect overlap: the upstream replayed a generation we
		// already hold.
		return
	}
	r.anchored = true
	*r.frames.Append(gen) = frame
	if !frame.Doc.Empty {
		r.topoVer = gen
	}
	r.stats.FramesApplied++
}

// resync re-anchors the replica at the upstream's head: the cursor fell
// off the upstream's retention ring (or this is first contact past it).
// The frame log restarts empty and the document caches are flushed —
// after an upstream restart the generation counter may have regressed,
// and monotonic cache keys would otherwise pin stale documents forever.
func (r *Replica) resync(gen, topoVer uint64) {
	r.mu.Lock()
	r.anchored = true
	r.topoVer = topoVer
	r.frames.Reset(gen)
	r.stats.Resyncs++
	r.mu.Unlock()
	r.srv.ResetCaches()
	r.logf("readpath: resynced to generation %d (topology %d)", gen, topoVer)
}

// WaitSynced blocks until the replica's cursor reaches gen (and the
// replica is anchored), or ctx ends.
func (r *Replica) WaitSynced(ctx context.Context, gen uint64) error {
	for {
		r.mu.Lock()
		cur, anchored, ch := r.frames.Head(), r.anchored, r.frames.Wait()
		r.mu.Unlock()
		if anchored && cur >= gen {
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}
