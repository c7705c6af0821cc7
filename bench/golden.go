package main

import (
	"encoding/json"
	"fmt"

	"celestial/internal/scenario"
)

// goldenStats are the simulated statistics of a run that no speed-up may
// move: how many ticks ran, what every flow sent and got back, and the
// digest chain every fan-out shard ended on (which folds every link and
// activity delta of every generation). Deliberately not the whole report,
// so a later report field does not break the benchmark.
type goldenStats struct {
	Ticks        int          `json:"ticks"`
	Flows        []goldenFlow `json:"flows"`
	ShardDigests []string     `json:"shard_digests"`
}

type goldenFlow struct {
	Name       string `json:"name"`
	Sent       int64  `json:"sent"`
	Delivered  int64  `json:"delivered"`
	Timeouts   int64  `json:"timeouts"`
	SendErrors int64  `json:"send_errors"`
}

// goldenFile is a checked-in golden/<workload>.json: the statistics for
// one seed at one scale. Other seeds and scales have no golden and are
// covered by the run-to-run identity check alone.
type goldenFile struct {
	Seed   int64       `json:"seed"`
	Scale  float64     `json:"scale"`
	Golden goldenStats `json:"golden"`
}

func goldenOf(rep *scenario.Report) goldenStats {
	g := goldenStats{Ticks: rep.Ticks.Ticks, Flows: []goldenFlow{}, ShardDigests: []string{}}
	for _, f := range rep.Flows {
		g.Flows = append(g.Flows, goldenFlow{
			Name: f.Name, Sent: f.Sent, Delivered: f.Delivered,
			Timeouts: f.Timeouts, SendErrors: f.SendErrors,
		})
	}
	for _, s := range rep.Fanout.Shards {
		g.ShardDigests = append(g.ShardDigests, s.Digest)
	}
	return g
}

// loadGolden returns the checked-in golden statistics applying to cfg, or
// ok=false when none do (another seed or scale, or the smoke size).
func loadGolden(cfg iterConfig) (goldenStats, bool, error) {
	if cfg.Smoke {
		return goldenStats{}, false, nil
	}
	data, err := files.ReadFile("golden/" + cfg.Workload + ".json")
	if err != nil {
		return goldenStats{}, false, nil // no golden recorded yet
	}
	var gf goldenFile
	if err := json.Unmarshal(data, &gf); err != nil {
		return goldenStats{}, false, fmt.Errorf("golden/%s.json: %w", cfg.Workload, err)
	}
	if gf.Seed != cfg.Seed || gf.Scale != cfg.Scale {
		return goldenStats{}, false, nil
	}
	return gf.Golden, true, nil
}

// compareGolden lists every way got departs from want; empty means equal.
func compareGolden(want, got goldenStats) []string {
	var diffs []string
	if want.Ticks != got.Ticks {
		diffs = append(diffs, fmt.Sprintf("ticks: golden %d, run %d", want.Ticks, got.Ticks))
	}
	if len(want.Flows) != len(got.Flows) {
		diffs = append(diffs, fmt.Sprintf("flows: golden has %d, run %d", len(want.Flows), len(got.Flows)))
	}
	for i := 0; i < min(len(want.Flows), len(got.Flows)); i++ {
		if w, g := want.Flows[i], got.Flows[i]; w != g {
			diffs = append(diffs, fmt.Sprintf("flow %d: golden %+v, run %+v", i, w, g))
		}
	}
	if len(want.ShardDigests) != len(got.ShardDigests) {
		diffs = append(diffs, fmt.Sprintf("shards: golden has %d, run %d", len(want.ShardDigests), len(got.ShardDigests)))
	}
	for i := 0; i < min(len(want.ShardDigests), len(got.ShardDigests)); i++ {
		if w, g := want.ShardDigests[i], got.ShardDigests[i]; w != g {
			diffs = append(diffs, fmt.Sprintf("shard %d digest: golden %s, run %s", i, w, g))
		}
	}
	return diffs
}
