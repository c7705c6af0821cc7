package main

import (
	"bytes"
	"embed"
	"fmt"
	"strings"
	"time"

	"celestial/internal/scenario"
)

// The workload scenarios and the golden statistics are checked in and
// compiled into the binary, so `go run ./bench` works from any directory.
//
//go:embed workloads/*.toml golden/*.json
var files embed.FS

// shape is what the harness attaches around the scenario run.
type shape int

const (
	// shapePlain runs the scenario alone: one process, loopback fan-out.
	shapePlain shape = iota
	// shapeAgents attaches one in-process hostlink.Agent per shard over
	// loopback TCP and holds every tick at the CLI's WaitRemotes barrier.
	shapeAgents
	// shapeReadpath paces ticks open loop and hangs replicas, passive
	// /v1/diff subscribers and a GET client off the information service.
	shapeReadpath
)

// workload is one benchmark workload: a checked-in scenario plus the
// harness shape around it.
type workload struct {
	name  string
	shape shape
	// nominalS is the wall time of one full-size (scale 1) iteration on
	// the 2-core reference box, set-up and measured window together. It
	// only sizes the hang deadline; see deadline.
	nominalS float64
}

var workloads = []workload{
	{name: "gen2-steady", shape: shapePlain, nominalS: 25},
	{name: "p1-traffic", shape: shapePlain, nominalS: 20},
	{name: "p1-agents-tcp", shape: shapeAgents, nominalS: 12},
	{name: "p1-readpath", shape: shapeReadpath, nominalS: 17},
}

// parseScenario parses a workload file's text.
func parseScenario(text []byte) (*scenario.Scenario, error) {
	return scenario.Parse(bytes.NewReader(text))
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

const (
	// warmupTicks are excluded from every tick statistic: snapshot arenas,
	// the visibility index's slack buckets and the path cache are still
	// growing. Set-up time ends when the last of them does.
	warmupTicks = 10
	// defaultScale is the common factor applied to all four workloads'
	// nominal tick counts (600/400/3000/300) so that one measured
	// iteration takes 3-5 s and a whole run fits the acceptance
	// protocol's time cap. -scale 1 runs the nominal sizes.
	defaultScale = 0.25
	// smokeTicks and the smoke shell are the -smoke size: every shape end
	// to end in well under a second each, for `go test ./bench`.
	smokeTicks        = 20
	smokePlanes       = 24
	smokeSatsPerPlane = 22
	// paceInterval is p1-readpath's open-loop tick period: 20 ticks per
	// wall second.
	paceInterval = 50 * time.Millisecond
	// barrierTimeout is the per-tick WaitRemotes budget, the CLI's
	// -agents-barrier default.
	barrierTimeout = 2 * time.Second
)

// iterConfig selects one iteration: one fresh scenario run, from Parse to
// the report, in the calling process.
type iterConfig struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Scale    float64 `json:"scale"`
	Smoke    bool    `json:"smoke"`
	// Traced records spans and runs the layer replay after the scenario.
	Traced bool `json:"traced"`
	// TraceFile, when set on a traced iteration, receives the spans.
	TraceFile string `json:"trace_file,omitempty"`
}

// prepare sizes a parsed workload scenario for the iteration: the seed is
// replaced, the horizon truncated to scale × the file's nominal tick
// count (never below warm-up plus a window worth measuring), and -smoke
// additionally shrinks the constellation to one small shell. It returns
// the total tick count.
func prepare(sc *scenario.Scenario, cfg iterConfig) (int, error) {
	sc.Seed = cfg.Seed
	res := sc.Config.Resolution
	nominal := int(sc.Horizon / res)
	ticks := int(float64(nominal)*cfg.Scale + 0.5)
	if cfg.Smoke {
		ticks = smokeTicks
		sh := sc.Config.Shells[0]
		sh.Planes, sh.SatsPerPlane = smokePlanes, smokeSatsPerPlane
		sc.Config.Shells = sc.Config.Shells[:1]
		sc.Config.Shells[0] = sh
	}
	ticks = min(max(ticks, 2*warmupTicks), nominal)
	if err := sc.Truncate(time.Duration(ticks) * res); err != nil {
		return 0, err
	}
	return ticks, nil
}

// deadline is how long an iteration may run before the parent declares it
// hung: four times its nominal time at this scale, plus a fixed allowance
// for process start that does not shrink with the scale. The traced
// iteration replays the tick sequence a second time and runs the per-layer
// loops, hence its factor.
func (w workload) deadline(cfg iterConfig) time.Duration {
	s := w.nominalS * cfg.Scale
	if cfg.Smoke {
		s = 1
	}
	if cfg.Traced {
		s *= 2.2
	}
	return time.Duration((4*s + 10) * float64(time.Second))
}
