package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"celestial/internal/httpapi"
	"celestial/internal/readpath"
	"celestial/internal/scenario"
)

const (
	numReplicas    = 2
	subsPerReplica = 500
	getPasses      = 4
)

// passNames are the GET passes' span names.
var passNames = [getPasses]string{"GET pass 1", "GET pass 2", "GET pass 3", "GET pass 4"}

// readShape is the p1-readpath harness: the coordinator's information
// service behind a loopback TCP server, read replicas following it,
// passive binary /v1/diff subscribers on the replicas, and one GET client.
type readShape struct {
	res      *iterResult
	api      *httpapi.Server
	upstream *httptest.Server
	client   *http.Client // the replicas' upstream connections
	replicas []*readpath.Replica
	cancel   context.CancelFunc
	wg       sync.WaitGroup // replica follow loops and subscribers

	// dueNs[g] is the wall time (unix ns) at which the tick that produced
	// generation g was due to start; 0 for generations outside the
	// measured window. Written by the hook before the tick runs, read by
	// subscribers when its frame arrives.
	dueNs     []atomic.Int64
	subs      []*subscriber
	connected atomic.Int64

	// The GET client's state; its goroutine owns the counters and samples
	// until getDone is closed.
	docs         []string
	jobs         chan getJob
	getDone      chan struct{}
	gets, non200 int
	followLagMs  []float64
	refreshMs    []float64
	hitUs        []float64
	tr           *tracer
	root         int

	ticks    int
	finalGen uint64 // the generation the run ended on
	pacer    pacer
}

// getJob asks the GET client to read generation gen, whose tick was due at
// due (zero during warm-up).
type getJob struct {
	tick int
	gen  uint64
	due  time.Time
}

// subscriber is one passive /v1/diff client: a ResponseWriter that never
// blocks, timestamps every diff frame against its tick's due time and
// checks it extends the stream by exactly one generation. One goroutine
// (the replica's stream handler) writes to it.
type subscriber struct {
	r       *readShape
	h       http.Header
	next    uint64 // the generation the next diff frame must carry
	errs    int    // frames out of order, duplicated or skipped
	bytes   int64
	lagsMs  []float64
	reached atomic.Uint64 // last in-order generation, for the drain waits
}

func (s *subscriber) Header() http.Header { return s.h }
func (s *subscriber) WriteHeader(int)     { s.r.connected.Add(1) }
func (s *subscriber) Write(p []byte) (int, error) {
	now := time.Now().UnixNano()
	s.bytes += int64(len(p))
	// Each Write is one complete stream frame: u32 length, u8 type,
	// payload; a diff frame's payload leads with its u64 generation.
	if len(p) >= 13 && httpapi.StreamFrameType(p[4]) == httpapi.StreamFrameDiff {
		gen := binary.LittleEndian.Uint64(p[5:13])
		if gen != s.next {
			s.errs++
		}
		s.next = gen + 1
		if int(gen) < len(s.r.dueNs) {
			if due := s.r.dueNs[gen].Load(); due != 0 {
				s.lagsMs = append(s.lagsMs, msOf(now-due))
			}
		}
		s.reached.Store(gen)
	}
	return len(p), nil
}

// docSink captures one GET response.
type docSink struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (d *docSink) Header() http.Header         { return d.h }
func (d *docSink) WriteHeader(status int)      { d.status = status }
func (d *docSink) Write(p []byte) (int, error) { return d.body.Write(p) }
func (d *docSink) reset()                      { d.status = http.StatusOK; d.body.Reset() }

// docSet is the fixed 32-document read set: info, every station, five
// shells, five satellites and fifteen station-to-station paths. Path
// sources are flow sources only, so the reads never add a shortest-path
// tree the scenario's own traffic does not already keep cached — the run
// report stays a pure function of the seed.
func docSet(sc *scenario.Scenario) []string {
	docs := []string{"/v1/info"}
	var names []string
	for _, g := range sc.Config.GroundStations {
		names = append(names, g.Name)
		docs = append(docs, "/v1/gst/"+g.Name)
	}
	for i := 0; i < 5; i++ {
		docs = append(docs, fmt.Sprintf("/v1/shell/%d", i%len(sc.Config.Shells)))
	}
	for i := 0; i < 5; i++ {
		docs = append(docs, fmt.Sprintf("/v1/shell/0/%d", i*97))
	}
	var sources []string
	seen := map[string]bool{}
	for _, f := range sc.Flows {
		for _, n := range []string{f.Source, f.Target} {
			if (n == f.Source || f.Type == scenario.FlowRPC) && !seen[n] {
				seen[n] = true
				sources = append(sources, n)
			}
		}
	}
	for i := 0; len(docs) < 32; i++ {
		src := sources[i%len(sources)]
		dst := names[(i/len(sources)+1+indexOf(names, src))%len(names)]
		docs = append(docs, "/v1/path/"+src+"/"+dst)
	}
	return docs
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return 0
}

func attachReadpath(h *harness, sc *scenario.Scenario) (*readShape, error) {
	ctx, cancel := context.WithCancel(context.Background())
	r := &readShape{
		res: h.res, cancel: cancel, tr: h.tr, root: h.root, ticks: h.ticks,
		api:     httpapi.New(h.run.Coordinator()),
		client:  &http.Client{Transport: &http.Transport{}},
		pacer:   pacer{interval: paceInterval},
		dueNs:   make([]atomic.Int64, h.ticks+2),
		docs:    docSet(sc),
		jobs:    make(chan getJob, h.ticks), // one job per tick: the hook never blocks on the client
		getDone: make(chan struct{}),
	}
	r.upstream = httptest.NewServer(r.api)
	go r.getLoop(ctx)
	for i := 0; i < numReplicas; i++ {
		rp, err := readpath.New(readpath.Options{
			Upstream: r.upstream.URL, Client: r.client, ReconnectWait: 20 * time.Millisecond,
		})
		if err != nil {
			r.close()
			return nil, err
		}
		r.replicas = append(r.replicas, rp)
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			_ = rp.Run(ctx) // returns ctx.Err() on close
		}()
		for j := 0; j < subsPerReplica; j++ {
			s := &subscriber{r: r, h: make(http.Header), next: 1}
			r.subs = append(r.subs, s)
			req := httptest.NewRequest(http.MethodGet, "/v1/diff?since=0", nil).WithContext(ctx)
			req.Header.Set("Accept", httpapi.DiffContentType)
			r.wg.Add(1)
			go func() {
				defer r.wg.Done()
				rp.ServeHTTP(s, req)
			}()
		}
	}
	if !waitFor(10*time.Second, func() bool { return int(r.connected.Load()) == len(r.subs) }) {
		r.close()
		return nil, fmt.Errorf("only %d of %d subscribers connected", r.connected.Load(), len(r.subs))
	}
	return r, nil
}

// waitFor polls cond every 200 µs until it holds or the timeout passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

// drained reports whether every replica and subscriber holds generation
// gen.
func (r *readShape) drained(gen uint64) bool {
	for _, rp := range r.replicas {
		if rp.Generation() < gen {
			return false
		}
	}
	for _, s := range r.subs {
		if s.reached.Load() < gen {
			return false
		}
	}
	return true
}

// afterTick hands the freshly published generation to the GET client. At
// the end of warm-up it first waits for every follower to reach the head,
// so the measured window starts from a drained system.
func (r *readShape) afterTick(tick int) {
	gen := uint64(tick + 1) // the cold start produced generation 1
	if tick == warmupTicks && !waitFor(10*time.Second, func() bool { return r.drained(gen) }) {
		r.res.failf("followers did not reach generation %d by the end of warm-up", gen)
	}
	job := getJob{tick: tick, gen: gen}
	if due := r.dueNs[gen].Load(); due != 0 {
		job.due = time.Unix(0, due)
	}
	r.jobs <- job
}

// pacer is the open-loop tick schedule. It is fixed when it starts — the
// first tick is due at once, and each later tick one interval after the
// previous one was due, whatever that one took — so a slow tick eats into
// the next one's slack instead of shifting the whole schedule, and lag is
// always measured from when a tick should have started.
type pacer struct {
	interval time.Duration
	due      time.Time
	// paced counts scheduled ticks, late those whose due time had already
	// passed when the generator got to them.
	paced, late int
}

// next returns when the next tick is due and how long the generator has to
// wait for it; a wait that is not positive means it is running late and
// must start the tick immediately.
func (p *pacer) next(now time.Time) (due time.Time, wait time.Duration) {
	if p.paced == 0 {
		p.due = now
	} else {
		p.due = p.due.Add(p.interval)
	}
	p.paced++
	wait = p.due.Sub(now)
	if wait < 0 {
		p.late++
	}
	return p.due, wait
}

// pace holds the hook until the next measured tick is due, and publishes
// that due time for the subscribers to measure their lag from.
func (r *readShape) pace(tick int) {
	if tick < warmupTicks || tick >= r.ticks {
		return
	}
	due, wait := r.pacer.next(time.Now())
	r.dueNs[tick+2].Store(due.UnixNano()) // tick+1 publishes generation tick+2
	time.Sleep(wait)
}

// getLoop is the closed-loop GET client: for every published generation it
// waits until the replicas have followed to it, then reads the document
// set getPasses times, document i always from replica i mod numReplicas.
// Pass 1 refreshes what the tick invalidated; the later passes hit the
// replicas' caches.
func (r *readShape) getLoop(ctx context.Context) {
	defer close(r.getDone)
	reqs := make([]*http.Request, len(r.docs))
	for i, d := range r.docs {
		reqs[i] = httptest.NewRequest(http.MethodGet, d, nil)
	}
	sink := &docSink{h: make(http.Header)}
	for {
		var job getJob
		var ok bool
		select {
		case job, ok = <-r.jobs:
			if !ok {
				return
			}
		case <-ctx.Done():
			return
		}
		measured := !job.due.IsZero()
		for _, rp := range r.replicas {
			if err := rp.WaitSynced(ctx, job.gen); err != nil {
				return // closing
			}
		}
		if measured {
			r.followLagMs = append(r.followLagMs, msOf(int64(time.Since(job.due))))
		}
		for pass := 0; pass < getPasses; pass++ {
			sp := r.tr.begin(passNames[pass], r.root, job.tick)
			passStart := time.Now()
			for i, req := range reqs {
				start := time.Now()
				sink.reset()
				r.replicas[i%numReplicas].ServeHTTP(sink, req)
				r.gets++
				if sink.status != http.StatusOK {
					r.non200++
				}
				if measured && pass > 0 {
					r.hitUs = append(r.hitUs, float64(time.Since(start))/1e3)
				}
			}
			r.tr.end(sp)
			if measured && pass == 0 {
				r.refreshMs = append(r.refreshMs, msOf(int64(time.Since(passStart))))
			}
		}
	}
}

// finish drains the read path at the final generation and checks it: every
// subscriber saw every generation once and in order, every GET was a 200,
// and each document reads byte-identical from every replica and from the
// coordinator. It ends by closing the shape, so the subscribers' own
// records are read only after their goroutines have exited.
func (r *readShape) finish() {
	res := r.res
	close(r.jobs)
	<-r.getDone
	res.Attempted += r.gets
	res.Failed += r.non200
	res.FollowLagMs, res.GetRefreshMs, res.GetHitUs = r.followLagMs, r.refreshMs, r.hitUs
	if r.non200 > 0 {
		res.failf("%d of %d GETs answered non-200", r.non200, r.gets)
	}
	final := r.api.Source().Generation()
	r.finalGen = final
	if !waitFor(10*time.Second, func() bool { return r.drained(final) }) {
		res.failf("followers did not reach the final generation %d", final)
	}
	want, got := &docSink{h: make(http.Header)}, &docSink{h: make(http.Header)}
	for _, d := range r.docs {
		want.reset()
		r.api.ServeHTTP(want, httptest.NewRequest(http.MethodGet, d, nil))
		for i, rp := range r.replicas {
			got.reset()
			rp.ServeHTTP(got, httptest.NewRequest(http.MethodGet, d, nil))
			if got.status != want.status || !bytes.Equal(got.body.Bytes(), want.body.Bytes()) {
				res.failf("%s: replica %d serves %d bytes (status %d), coordinator %d bytes (status %d)",
					d, i, got.body.Len(), got.status, want.body.Len(), want.status)
			}
		}
	}
	r.close()
	broken, missing := 0, 0
	for _, s := range r.subs {
		res.Attempted += int(final)
		if m := int(final) - int(s.reached.Load()) + s.errs; m != 0 {
			broken++
			missing += m
		}
		res.SubLagMs = append(res.SubLagMs, s.lagsMs...)
	}
	if broken > 0 {
		res.Failed += missing
		res.failf("%d of %d subscribers missed or misordered frames (%d in all) up to generation %d", broken, len(r.subs), missing, final)
	}
}

// close stops the GET client, the replicas and the subscribers and joins
// every goroutine the shape started. Safe to call twice, and on a partly
// built shape.
func (r *readShape) close() {
	r.cancel()
	<-r.getDone
	r.wg.Wait()
	r.client.CloseIdleConnections()
	r.upstream.Close()
}
