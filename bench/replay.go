package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"celestial/internal/applyengine"
	"celestial/internal/constellation"
	"celestial/internal/geom"
	"celestial/internal/hostlink"
	"celestial/internal/httpapi"
	"celestial/internal/scenario"
	"celestial/internal/topo"
	"celestial/internal/vnet"
)

// layers collects the traced pass's per-layer metrics. Units come from the
// one metric table (metrics.go), so a metric cannot be reported under a
// name or unit BENCHMARK.json does not list.
type layers map[string]metric

func (l layers) set(name string, value float64, n int) {
	def, ok := lookupDef(perLayer, name)
	if !ok {
		panic("bench: per-layer metric " + name + " is not in the metric table")
	}
	l[name] = metric{Value: value, Unit: def.unit, N: n}
}

// setMedian reports the median of a timing sample.
func (l layers) setMedian(name string, xs []float64) {
	if len(xs) > 0 {
		l.set(name, median(xs), len(xs))
	}
}

// timeIt returns fn's wall time in the given unit (1e6 for ms, 1e3 for µs,
// 1 for ns).
func timeIt(unitNs float64, fn func()) float64 {
	start := time.Now()
	fn()
	return float64(time.Since(start)) / unitNs
}

// layerReplay attributes the inside of a tick. RunWith is one call and the
// coordinator's snapshot pool is private, so the traced pass cannot put
// spans inside a tick; instead it drives a second constellation and pool
// over the identical tick times — with the existing public stage-timer
// hook installed and the workload's own shortest-path queries issued — and
// pushes every tick's diff through each layer's public functions, timing
// them from outside. The replay's diff counters must equal the end-to-end
// run's, which proves it measured the same work.
func layerReplay(h *harness, sc *scenario.Scenario, rep *scenario.Report, memEnd *runtime.MemStats) error {
	L := layers{}
	h.res.Layer = L
	ticks, res := h.ticks, sc.Config.Resolution
	tickT := func(k int) float64 { return (time.Duration(k) * res).Seconds() }

	cons, err := constellation.New(sc.Config)
	if err != nil {
		return err
	}
	// The sources the scenario's traffic keeps in the path cache: every
	// flow queries its source's tree, and an rpc's response its target's.
	var queries [][2]int
	for _, f := range sc.Flows {
		a, errA := cons.GSTNodeByName(f.Source)
		b, errB := cons.GSTNodeByName(f.Target)
		if errA != nil || errB != nil {
			return fmt.Errorf("replay: flow %q does not run between ground stations", f.Name)
		}
		queries = append(queries, [2]int{a, b})
		if f.Type == scenario.FlowRPC {
			queries = append(queries, [2]int{b, a})
		}
	}
	query := func(st *constellation.State) error {
		for _, q := range queries {
			if _, err := st.Latency(q[0], q[1]); err != nil {
				return err
			}
		}
		return nil
	}

	pool := cons.NewSnapshotPool()
	stage := map[string][]float64{}
	measuring := false
	pool.SetStageTimer(func(name string, d time.Duration) {
		if measuring {
			stage[name] = append(stage[name], msOf(int64(d)))
		}
	})

	var (
		total                                    scenario.TickReport
		perTick                                  []constellation.DiffStats
		rec                                      constellation.DiffRecord
		wire                                     []byte
		recordUs, encUs, decUs, frameUs, wireLen []float64
		flipTicks                                int
		older, prev                              *constellation.State
	)
	for k := 0; k <= ticks; k++ {
		measuring = k > warmupTicks
		var st *constellation.State
		ms := timeIt(1e6, func() { st, err = pool.Snapshot(tickT(k)) })
		if err != nil {
			return err
		}
		if k == 0 {
			L.set("constellation.cold_snapshot_ms", ms, 1)
		}
		if err := query(st); err != nil {
			return err
		}
		d := st.Diff()
		ds := d.Stats()
		perTick = append(perTick, ds)
		addTick(&total, ds)
		if measuring {
			if ds.Activated+ds.Deactivated > 0 {
				flipTicks++
			}
			gen := uint64(k + 1)
			recordUs = append(recordUs, timeIt(1e3, func() { rec = d.AppendRecord(rec) }))
			encUs = append(encUs, timeIt(1e3, func() { wire = constellation.AppendRecordWire(wire[:0], gen, &rec) }))
			wireLen = append(wireLen, float64(len(wire)))
			decUs = append(decUs, timeIt(1e3, func() { _, _, err = constellation.DecodeRecordWire(wire) }))
			if err != nil {
				return err
			}
			frameUs = append(frameUs, timeIt(1e3, func() { _ = httpapi.BuildFrame(gen, &rec) }))
		}
		pool.Recycle(older)
		older, prev = prev, st
	}
	h.crossCheck(rep, total, perTick)

	L.setMedian("constellation.snapshot_ms", stage["snapshot"])
	L.setMedian("constellation.diff_ms", stage["diff"])
	L.setMedian("constellation.repair_ms", stage["repair"])
	L.setMedian("constellation.record_us", recordUs)
	L.setMedian("constellation.wire_encode_us", encUs)
	L.setMedian("constellation.wire_decode_us", decUs)
	L.setMedian("constellation.wire_bytes_per_tick", wireLen)
	L.setMedian("httpapi.frame_build_us", frameUs)

	// Exact counts, read from the end-to-end run's own report.
	t := rep.Ticks
	n := float64(t.Ticks)
	L.set("constellation.diff_links_per_tick", float64(t.LinksAdded+t.LinksRemoved+t.DelayChanged)/n, 0)
	L.set("constellation.patched_edges_per_tick", float64(t.PatchedEdges)/n, 0)
	L.set("constellation.repaired_paths_per_tick", float64(t.RepairedPaths)/n, 0)
	if tried := t.RepairedPaths + t.RepairFallbacks; tried > 0 {
		L.set("constellation.repair_fallback_frac", float64(t.RepairFallbacks)/float64(tried), 0)
	}
	L.set("constellation.empty_tick_frac", float64(t.EmptyDiffs)/n, 0)
	L.set("vnet.msgs_per_tick", float64(rep.Network.Delivered)/n, 0)
	if sent := rep.Network.Delivered + rep.Network.Dropped; sent > 0 {
		L.set("vnet.dropped_frac", float64(rep.Network.Dropped)/float64(sent), 0)
	}

	if err := replayOrbitTopo(L, cons, sc, tickT, ticks); err != nil {
		return err
	}
	if err := replayGraph(L, prev, queries); err != nil {
		return err
	}
	replayVnet(L)
	sweepMs, err := replayHosts(L, h)
	if err != nil {
		return err
	}
	replayDocs(L, h, sc)
	if h.agents != nil {
		if err := h.agents.layer(L, rep); err != nil {
			return err
		}
	}
	if h.read != nil {
		h.read.layer(L)
	}

	// Spans: set-up calls, the report, and what a tick spends outside the
	// layers the replay timed. A tick span's self time already excludes
	// its WaitRemotes child.
	spans := h.tr.snapshot()
	self := selfTimes(spans)
	var tickSelfMs, waitMs []float64
	for i, s := range spans {
		ms := msOf(s.End - s.Start)
		switch {
		case s.Name == "scenario.Parse":
			L.set("scenario.parse_ms", ms, 1)
		case s.Name == "scenario.NewRunner":
			L.set("scenario.new_runner_ms", ms, 1)
		case s.Name == "Report.JSON":
			L.set("scenario.report_ms", ms, 1)
		case s.Name == "tick" && s.Tick > warmupTicks:
			tickSelfMs = append(tickSelfMs, msOf(self[i]))
		case s.Name == "Fanout.WaitRemotes" && s.Tick > warmupTicks:
			waitMs = append(waitMs, ms)
		}
	}
	if len(tickSelfMs) > 0 {
		pipeline := median(stage["snapshot"]) + median(stage["diff"]) + median(stage["repair"])
		sweeps := sweepMs * float64(flipTicks) / float64(ticks-warmupTicks)
		L.set("coordinator.self_ms", median(tickSelfMs)-pipeline-sweeps, len(tickSelfMs))
	}
	if p99, ok := percentile(waitMs, 0.99); ok {
		L.set("hostlink.commit_wait_p99_ms", p99, len(waitMs))
	}

	mt := float64(ticks - warmupTicks)
	L.set("scenario.allocs_per_tick", float64(memEnd.Mallocs-h.memStart.Mallocs)/mt, 0)
	L.set("scenario.alloc_kb_per_tick", float64(memEnd.TotalAlloc-h.memStart.TotalAlloc)/1024/mt, 0)
	L.set("scenario.gc_pause_ms_total", msOf(int64(memEnd.PauseTotalNs-h.memStart.PauseTotalNs)), 0)
	return nil
}

// addTick folds one tick's diff into report-style totals, exactly as the
// scenario runner's observeTick does.
func addTick(t *scenario.TickReport, d constellation.DiffStats) {
	t.Ticks++
	switch {
	case d.Full:
		t.FullDiffs++
	case d.Empty:
		t.EmptyDiffs++
	}
	t.LinksAdded += d.Added
	t.LinksRemoved += d.Removed
	t.DelayChanged += d.DelayChanged
	t.Activated += d.Activated
	t.Deactivated += d.Deactivated
	if d.GraphPatched {
		t.PatchedTicks++
	}
	t.PatchedEdges += d.PatchedEdges
}

// crossCheck holds the replay against the end-to-end run. The topology
// counters must agree over the whole run. The path-cache counters are
// compared tick by tick from the end of warm-up: before that they depend
// on the tick in which each flow's first arrival happened to query its
// source, which is a property of the seed's arrival draw, not of the
// pipeline.
func (h *harness) crossCheck(rep *scenario.Report, total scenario.TickReport, perTick []constellation.DiffStats) {
	e := rep.Ticks
	got := [...]int{total.Ticks, total.FullDiffs, total.EmptyDiffs, total.LinksAdded, total.LinksRemoved,
		total.DelayChanged, total.Activated, total.Deactivated, total.PatchedTicks, total.PatchedEdges}
	want := [...]int{e.Ticks, e.FullDiffs, e.EmptyDiffs, e.LinksAdded, e.LinksRemoved,
		e.DelayChanged, e.Activated, e.Deactivated, e.PatchedTicks, e.PatchedEdges}
	if got != want {
		h.res.failf("layer replay diverged from the run: replay totals %v, report %v", got, want)
	}
	for k := warmupTicks + 1; k < len(perTick) && k-1 < len(h.diffs); k++ {
		r, e := perTick[k], h.diffs[k-1] // the hook saw tick k's diff as its k-th call
		if r.CarriedPaths != e.CarriedPaths || r.RepairedPaths != e.RepairedPaths || r.RepairFallbacks != e.RepairFallbacks {
			h.res.failf("layer replay diverged at tick %d: replay carried/repaired/fallback %d/%d/%d, run %d/%d/%d",
				k, r.CarriedPaths, r.RepairedPaths, r.RepairFallbacks, e.CarriedPaths, e.RepairedPaths, e.RepairFallbacks)
			return
		}
	}
}

// replayOrbitTopo times propagation and the visibility index on their own,
// over the measured ticks: every shell propagated, every index updated,
// every station queried against every shell.
func replayOrbitTopo(L layers, cons *constellation.Constellation, sc *scenario.Scenario, tickT func(int) float64, ticks int) error {
	shells := cons.Shells()
	workers := runtime.GOMAXPROCS(0)
	pos := make([][]geom.Vec3, len(shells))
	idx := make([]topo.VisIndex, len(shells))
	cell := make([]float64, len(shells))
	for si := range shells {
		cell[si] = topo.SuggestedCellDeg(sc.Config.Shells[si].AltitudeKm, sc.Config.Shells[si].Network.MinElevationDeg)
	}
	var stations []geom.Vec3
	for _, g := range cons.GroundStations() {
		stations = append(stations, geom.LatLon{LatDeg: g.Location.LatDeg, LonDeg: g.Location.LonDeg}.ECEF())
	}
	var propMs, updMs, visUs []float64
	var buf []topo.Uplink
	for k := warmupTicks; k <= ticks; k++ {
		var err error
		ms := timeIt(1e6, func() {
			for si, sh := range shells {
				if pos[si], err = sh.PositionsECEF(tickT(k), pos[si]); err != nil {
					return
				}
			}
		})
		if err != nil {
			return err
		}
		upd := timeIt(1e6, func() {
			for si := range shells {
				idx[si].Update(pos[si], cell[si], workers)
			}
		})
		if k == warmupTicks {
			continue // the first Update is a cold Build
		}
		propMs, updMs = append(propMs, ms), append(updMs, upd)
		if len(stations) > 0 {
			us := timeIt(1e3, func() {
				for _, s := range stations {
					for si := range shells {
						buf = idx[si].VisibleInto(s, sc.Config.Shells[si].Network.MinElevationDeg, buf[:0])
					}
				}
			})
			visUs = append(visUs, us/float64(len(stations)))
		}
	}
	L.setMedian("orbit.propagate_ms", propMs)
	L.setMedian("topo.visindex_update_ms", updMs)
	L.setMedian("topo.visible_us_per_gst", visUs)
	return nil
}

// replayGraph times a from-scratch Dijkstra and a cached-source query on
// the replay's final frozen graph.
func replayGraph(L layers, st *constellation.State, queries [][2]int) error {
	if len(queries) == 0 {
		return nil
	}
	src, dst := queries[0][0], queries[0][1]
	var full []float64
	for i := 0; i < 10; i++ {
		var err error
		full = append(full, timeIt(1e6, func() { _, err = st.Graph().Dijkstra(src) }))
		if err != nil {
			return err
		}
	}
	L.setMedian("graph.dijkstra_full_ms", full)
	const reads = 20000
	var err error
	us := timeIt(1e3, func() {
		for i := 0; i < reads && err == nil; i++ {
			_, err = st.Latency(src, dst)
		}
	})
	if err != nil {
		return err
	}
	L.set("graph.query_us", us/reads, reads)
	return nil
}

// replayVnet times the event queue and a message's trip through the
// network over a fixed two-node topology.
func replayVnet(L layers) {
	const events, batch = 200000, 1000
	epoch := time.Unix(0, 0)
	sim := vnet.NewSim(epoch)
	fired := 0
	ns := timeIt(1, func() {
		for i := 0; i < events; i += batch {
			for j := 0; j < batch; j++ {
				_ = sim.At(sim.Now().Add(time.Duration(j+1)), func() { fired++ }) // never in the past
			}
			for sim.Step() {
			}
		}
	})
	L.set("vnet.event_ns", ns/events, events)

	sim = vnet.NewSim(epoch)
	net := vnet.NewNetwork(sim, vnet.StaticTopology{
		Latency: map[int]map[int]float64{0: {1: 0.010}, 1: {0: 0.010}},
	}, 1)
	got := 0
	net.Handle(1, func(vnet.Message) { got++ })
	const msgs = 100000
	ns = timeIt(1, func() {
		for i := 0; i < msgs; i++ {
			_ = net.Send(0, 1, 256, nil) // both nodes are active and reachable
			sim.Step()
		}
	})
	if got == msgs {
		L.set("vnet.send_ns", ns/msgs, msgs)
	}
}

// replayHosts times one machine-activity sweep over every host of the
// finished run, against its final state: the steady-state sweep, which
// visits every machine and changes none.
func replayHosts(L layers, h *harness) (float64, error) {
	c := h.run.Coordinator()
	st := c.State()
	active := func(id int) bool { return st.Active[id] }
	var sweeps []float64
	for i := 0; i < 5; i++ {
		var err error
		sweeps = append(sweeps, timeIt(1e6, func() {
			for _, host := range c.Hosts() {
				if e := host.ApplyActivity(active); e != nil {
					err = e
				}
			}
		}))
		if err != nil {
			return 0, err
		}
	}
	L.setMedian("host.activity_sweep_ms", sweeps)
	return median(sweeps), nil
}

// replayDocs times the information service's document builders with no
// cache in front of them.
func replayDocs(L layers, h *harness, sc *scenario.Scenario) {
	src := httpapi.NewCoordinatorSource(h.run.Coordinator())
	const builds = 50
	each := func(name string, fn func() ([]byte, int)) {
		var us []float64
		for i := 0; i < builds; i++ {
			status := 0
			us = append(us, timeIt(1e3, func() { _, status = fn() }))
			if status != 200 {
				h.res.failf("%s: document builder answered %d", name, status)
				return
			}
		}
		L.setMedian(name, us)
	}
	each("httpapi.doc_info_us", src.InfoDoc)
	if g := sc.Config.GroundStations; len(g) > 0 {
		each("httpapi.doc_gst_us", func() ([]byte, int) { return src.GSTDoc(g[0].Name) })
	}
	if f := sc.Flows; len(f) > 0 {
		each("httpapi.doc_path_us", func() ([]byte, int) { return src.PathDoc(f[0].Source, f[0].Target) })
	}
}

// layer reports the host-agent transport: the agents' retained diff frames
// through the wire codec and the apply engine, and the commit protocol's
// counters.
func (a *agentsShape) layer(L layers, rep *scenario.Report) error {
	var encUs, decUs, applyUs []float64
	frameBytes := 0.0
	applies, mismatches, fallbacks := 0, 0, 0
	for i, ag := range a.agents {
		gen, _ := ag.Replica.Cursor()
		frames, _ := ag.Replica.Diffs(max(gen, 64) - 64)
		if len(frames) == 0 {
			frames, _ = ag.Replica.Diffs(1) // a short run: everything after the attach snapshot
		}
		engine := applyengine.New(applyengine.Config{Shard: i, Backend: &applyengine.ReplicaBackend{}})
		var buf, scratch []byte
		var wire bytes.Buffer
		shardBytes := 0
		for _, f := range frames {
			wire.Reset()
			var err error
			encUs = append(encUs, timeIt(1e3, func() { buf, err = hostlink.WriteFrame(&wire, buf, f) }))
			if err != nil {
				return err
			}
			shardBytes += wire.Len()
			decUs = append(decUs, timeIt(1e3, func() { _, scratch, err = hostlink.ReadFrame(&wire, scratch) }))
			if err != nil {
				return err
			}
			// What a Propose carries for a links-only generation.
			p := &hostlink.DiffFrame{Agent: f.Agent, Generation: f.Generation, Flags: hostlink.FlagInvalidate | hostlink.FlagNote}
			applyUs = append(applyUs, timeIt(1e3, func() { err = engine.ApplyDiff(p) }))
			if err != nil {
				return err
			}
		}
		if len(frames) > 0 {
			frameBytes += float64(shardBytes) / float64(len(frames))
		}
		st := ag.Stats()
		applies += st.Applies
		mismatches += st.CommitMismatches
		fallbacks += rep.Fanout.Shards[i].FallbackApplies
	}
	L.setMedian("hostlink.wire_encode_us", encUs)
	L.setMedian("hostlink.wire_decode_us", decUs)
	L.setMedian("applyengine.apply_us", applyUs)
	L.set("hostlink.frame_bytes_per_tick", frameBytes, 0)
	L.set("hostlink.proposals_per_tick", float64(applies)/float64(rep.Ticks.Ticks), 0)
	L.set("hostlink.fallback_applies", float64(fallbacks), 0)
	L.set("hostlink.commit_mismatches", float64(mismatches), 0)
	L.set("hostlink.reconnects", float64(a.reconnects.Load()), 0)
	return nil
}

// layer reports the read path's followers.
func (r *readShape) layer(L layers) {
	L.setMedian("readpath.follow_lag_p50_ms", r.followLagMs)
	if p99, ok := percentile(r.res.SubLagMs, 0.99); ok {
		L.set("readpath.sub_lag_p99_ms", p99, len(r.res.SubLagMs))
	}
	var bytes int64
	for _, s := range r.subs {
		bytes += s.bytes
	}
	if gens := r.finalGen; gens > 0 {
		L.set("readpath.bytes_per_sub_update", float64(bytes)/float64(len(r.subs))/float64(gens), 0)
	}
	var resyncs, reconnects uint64
	for _, rp := range r.replicas {
		st := rp.Stats()
		resyncs += st.Resyncs
		reconnects += st.Reconnects
	}
	L.set("readpath.resyncs", float64(resyncs), 0)
	L.set("readpath.reconnects", float64(reconnects), 0)
	if p := r.pacer; p.paced > 0 {
		L.set("readpath.tick_late_frac", float64(p.late)/float64(p.paced), p.paced)
	}
}
