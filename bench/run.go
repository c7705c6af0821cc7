package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"celestial/internal/constellation"
	"celestial/internal/scenario"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a timing (0 for counts and ratios).
	N int `json:"n,omitempty"`
}

// iterResult is everything one iteration measured. Timing samples travel
// raw so the parent can pool them over iterations before taking
// percentiles; Layer holds the traced pass's per-layer metrics, already
// reduced.
type iterResult struct {
	Config iterConfig `json:"config"`
	// Ticks is the measured (post-warm-up) tick count.
	Ticks  int     `json:"ticks"`
	SetupS float64 `json:"setup_s"`
	// WindowS is the wall time from the end of warm-up to the end of the
	// last tick, harness pauses (the open-loop pacing) included: what the
	// iteration contributes to -seconds.
	WindowS   float64 `json:"window_s"`
	VirtS     float64 `json:"virt_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`

	TickMs       []float64 `json:"tick_ms"`
	CommitMs     []float64 `json:"commit_ms,omitempty"`
	SubLagMs     []float64 `json:"sub_lag_ms,omitempty"`
	FollowLagMs  []float64 `json:"follow_lag_ms,omitempty"`
	GetRefreshMs []float64 `json:"get_refresh_ms,omitempty"`
	GetHitUs     []float64 `json:"get_hit_us,omitempty"`

	// Attempted and Failed count operations: ticks, proposals, GETs and
	// expected subscriber frames against tick errors, barrier timeouts,
	// fallback applies, non-200s and missing or out-of-order frames.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Failures lists the correctness checks that did not hold.
	Failures []string `json:"failures,omitempty"`

	// ReportSHA is the SHA-256 of Report.JSON(); Golden the simulated
	// statistics a speed-up must not move.
	ReportSHA string      `json:"report_sha256"`
	Golden    goldenStats `json:"golden"`

	Layer map[string]metric `json:"layer,omitempty"`
}

func (r *iterResult) failf(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// harness drives one scenario run from its tick hook. Everything it does
// between a tick's end and the next tick's start is harness time and is
// excluded from the tick samples.
type harness struct {
	cfg   iterConfig
	res   *iterResult
	tr    *tracer
	run   *scenario.Runner
	ticks int

	t0        time.Time // iteration start: set-up is measured from here
	window    time.Time // end of warm-up: the measured window starts here
	root      int       // the run span
	tickSpan  int
	tickStart time.Time

	agents *agentsShape
	read   *readShape

	// Traced pass only: per-tick diff statistics for the replay
	// cross-check, and the allocator's state at the end of warm-up.
	diffs    []constellation.DiffStats
	memStart runtime.MemStats
}

// runIteration executes one iteration in this process and joins every
// goroutine it started before returning.
func runIteration(cfg iterConfig) (*iterResult, error) {
	wl, err := lookupWorkload(cfg.Workload)
	if err != nil {
		return nil, err
	}
	text, err := files.ReadFile("workloads/" + wl.name + ".toml")
	if err != nil {
		return nil, err
	}
	res := &iterResult{Config: cfg}
	h := &harness{cfg: cfg, res: res, t0: time.Now()}
	if cfg.Traced {
		h.tr = newTracer()
	}
	h.root = h.tr.begin("run", 0, 0)

	sp := h.tr.begin("scenario.Parse", h.root, 0)
	sc, err := parseScenario(text)
	h.tr.end(sp)
	if err != nil {
		return nil, err
	}
	if h.ticks, err = prepare(sc, cfg); err != nil {
		return nil, err
	}
	res.Ticks = h.ticks - warmupTicks
	res.VirtS = float64(res.Ticks) * sc.Config.Resolution.Seconds()
	sp = h.tr.begin("scenario.NewRunner", h.root, 0)
	h.run, err = scenario.NewRunner(sc)
	h.tr.end(sp)
	if err != nil {
		return nil, err
	}

	switch wl.shape {
	case shapeAgents:
		if h.agents, err = attachAgents(h); err != nil {
			return nil, err
		}
		defer h.agents.close()
	case shapeReadpath:
		if h.read, err = attachReadpath(h, sc); err != nil {
			return nil, err
		}
		defer h.read.close()
	}

	// The first tick span also covers the cold start: RunWith performs
	// the first update before the tick loop and offers no hook between.
	h.tickSpan = h.tr.begin("tick", h.root, 1)
	h.tickStart = time.Now()
	rep, err := h.run.RunWith(scenario.RunOptions{TickHook: h.hook})
	h.tr.end(h.tickSpan)
	var memEnd runtime.MemStats
	if cfg.Traced {
		runtime.ReadMemStats(&memEnd)
	}
	if err != nil {
		// A tick error fails every tick not yet run.
		res.failf("RunWith: %v", err)
		res.Attempted += h.ticks
		res.Failed += h.ticks - len(res.TickMs)
		return res, nil
	}
	res.Attempted += rep.Ticks.Ticks
	if h.agents != nil {
		h.agents.finish(rep)
	}
	if h.read != nil {
		h.read.finish()
	}

	sp = h.tr.begin("Report.JSON", h.root, 0)
	data, err := rep.JSON()
	h.tr.end(sp)
	if err != nil {
		return nil, err
	}
	h.tr.end(h.root)
	sum := sha256.Sum256(data)
	res.ReportSHA = hex.EncodeToString(sum[:])
	res.Golden = goldenOf(rep)

	if cfg.Traced {
		if err := layerReplay(h, sc, rep, &memEnd); err != nil {
			return nil, err
		}
		if cfg.TraceFile != "" {
			if err := h.tr.writeFile(cfg.TraceFile); err != nil {
				return nil, err
			}
		}
	}
	res.PeakRSSMB = peakRSSMB()
	return res, nil
}

// hook runs at every tick boundary. The tick's wall time ends here (after
// the agents' barrier, where there is one) and the next tick's starts when
// the hook returns.
func (h *harness) hook(tick int) error {
	end := time.Now()
	if h.agents != nil {
		end = h.agents.barrier(h, tick, end)
	}
	h.tr.end(h.tickSpan)
	if tick > warmupTicks {
		h.res.TickMs = append(h.res.TickMs, msOf(int64(end.Sub(h.tickStart))))
	}
	if h.cfg.Traced {
		h.diffs = append(h.diffs, h.run.Coordinator().LastDiff())
	}
	if h.read != nil {
		h.read.afterTick(tick)
	}
	if tick == h.ticks {
		h.res.WindowS = end.Sub(h.window).Seconds()
	}
	if tick == warmupTicks {
		// Set-up is over: the cold start, the attach and the warm-up
		// ticks are behind us and every follower is at the head.
		h.res.SetupS = time.Since(h.t0).Seconds()
		if h.cfg.Traced {
			runtime.ReadMemStats(&h.memStart)
		}
		h.window = time.Now()
	}
	if h.read != nil {
		h.read.pace(tick)
	}
	name := "tick"
	if tick == h.ticks {
		name = "tail" // RunUntil(horizon), Converge and the report
	}
	h.tickSpan = h.tr.begin(name, h.root, tick+1)
	h.tickStart = time.Now()
	return nil
}

// peakRSSMB reads this process's resident-set high-water mark (VmHWM) in
// MiB; 0 where /proc is unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
