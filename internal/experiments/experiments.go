// Package experiments regenerates every table and figure of the paper's
// evaluation (§4 and §5). Each experiment function is self-contained,
// deterministic, and returns a Report with the measured values, so the
// same code backs the cmd/experiments binary and this package's tests,
// which run each experiment in quick mode and check its claim.
//
// The experiments use shortened default durations so the full suite runs
// in minutes; pass Full to reproduce the paper's 10–15 minute runs.
package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"celestial/internal/apps/dart"
	"celestial/internal/apps/meetup"
	"celestial/internal/config"
	"celestial/internal/constellation"
	"celestial/internal/core"
	"celestial/internal/geom"
	"celestial/internal/orbit"
	"celestial/internal/stats"
	"celestial/internal/viz"
)

// Report is one experiment's outcome.
type Report struct {
	// ID is the experiment identifier cmd/experiments -only selects it by
	// (e.g. "F4").
	ID string
	// Title names the paper artifact.
	Title string
	// Lines are the regenerated rows/series of the artifact.
	Lines []string
	// Artifacts are files written (SVG figures, CSV series).
	Artifacts []string
	// Pass reports whether the paper's qualitative claim held.
	Pass bool
}

// Options tune experiment scale.
type Options struct {
	// Full runs the paper's durations (10–15 min); otherwise shortened
	// runs with identical structure are used.
	Full bool
	// OutDir receives figure/series artifacts; empty disables writing.
	OutDir string
}

// model is the orbit propagator: SGP4 in Full mode, Kepler otherwise.
func (o Options) model() orbit.Model {
	if o.Full {
		return orbit.ModelSGP4
	}
	return orbit.ModelKepler
}

func (o Options) meetupParams(d meetup.Deployment) meetup.Params {
	p := meetup.DefaultParams(d)
	p.Model = o.model()
	if !o.Full {
		p.Duration = 2 * time.Minute
		p.Shells = 1
		p.PacketInterval = 250 * time.Millisecond
	}
	return p
}

func (o Options) dartParams(d dart.Deployment) dart.Params {
	p := dart.DefaultParams(d)
	p.Model = o.model()
	if !o.Full {
		p.Duration = 90 * time.Second
		p.Warmup = 30 * time.Second
	}
	return p
}

// write stores an artifact when OutDir is set.
func (o Options) write(name, content string, rep *Report) error {
	if o.OutDir == "" {
		return nil
	}
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.OutDir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		return err
	}
	rep.Artifacts = append(rep.Artifacts, path)
	return nil
}

// Fig1 regenerates the constellation overview: the planned phase I
// Starlink constellation with five shells, rendered like Fig. 1.
func Fig1(o Options) (Report, error) {
	rep := Report{ID: "F1", Title: "Fig. 1: Starlink phase I constellation overview"}
	shells := orbit.StarlinkPhase1(o.model())
	m := viz.NewMap(1440, 720)
	m.AddGraticule(30)
	epoch := config.DefaultEpoch
	jd := geom.JulianDate(epoch.Year(), int(epoch.Month()), epoch.Day(), epoch.Hour(), 0, 0)
	total := 0
	for si, cfg := range shells {
		sh, err := orbit.NewShell(cfg, jd)
		if err != nil {
			return rep, err
		}
		pos, err := sh.PositionsECEF(0, nil)
		if err != nil {
			return rep, err
		}
		for _, p := range pos {
			m.AddSatellite(geom.ToGeodetic(p), viz.ShellColor(si), 1.2)
		}
		total += len(pos)
		rep.Lines = append(rep.Lines, fmt.Sprintf(
			"shell %d (%s): %d sats at %.0f km, %.1f° inclination, %d planes × %d",
			si+1, cfg.Name, cfg.Size(), cfg.AltitudeKm, cfg.InclinationDeg,
			cfg.Planes, cfg.SatsPerPlane))
	}
	rep.Lines = append(rep.Lines, fmt.Sprintf("total satellites: %d (paper: 4,409)", total))
	rep.Pass = total == 4409
	if err := o.write("fig1_starlink.svg", m.SVG(), &rep); err != nil {
		return rep, err
	}
	return rep, nil
}

// Fig3 reproduces the scenario claim of Fig. 3: a satellite meetup server
// reduces the worst client's RTT from ≈46 ms (Johannesburg cloud) to
// ≈16 ms.
func Fig3(o Options) (Report, error) {
	rep := Report{ID: "F3", Title: "Fig. 3: 16 ms vs 46 ms worst-client RTT"}
	p := o.meetupParams(meetup.DeploymentSatellite)
	cfg, err := meetup.Scenario(p)
	if err != nil {
		return rep, err
	}
	tb, err := core.NewTestbed(cfg)
	if err != nil {
		return rep, err
	}
	if err := tb.Start(); err != nil {
		return rep, err
	}
	clients := []string{"accra", "abuja", "yaounde"}
	var ids []int
	for _, c := range clients {
		id, err := tb.NodeByName(c)
		if err != nil {
			return rep, err
		}
		ids = append(ids, id)
	}
	cloudID, err := tb.NodeByName("johannesburg")
	if err != nil {
		return rep, err
	}

	// Sample the worst-client RTT over several update intervals.
	var satRTTs, cloudRTTs []float64
	for i := 0; i < 10; i++ {
		st := tb.State()
		_, worstSat, err := st.BestMeetingPoint(ids)
		if err != nil {
			return rep, err
		}
		satRTTs = append(satRTTs, 2*worstSat*1000)
		worstCloud := 0.0
		for _, id := range ids {
			l, err := st.Latency(id, cloudID)
			if err != nil {
				return rep, err
			}
			if l > worstCloud {
				worstCloud = l
			}
		}
		cloudRTTs = append(cloudRTTs, 2*worstCloud*1000)
		if err := tb.Run(10 * time.Second); err != nil {
			return rep, err
		}
	}
	sat := stats.Mean(satRTTs)
	cloud := stats.Mean(cloudRTTs)
	rep.Lines = append(rep.Lines,
		fmt.Sprintf("worst-client RTT via best satellite: %.1f ms (paper: 16 ms)", sat),
		fmt.Sprintf("worst-client RTT via Johannesburg:   %.1f ms (paper: 46 ms)", cloud))
	rep.Pass = sat < 25 && cloud > 30 && sat < cloud/1.8

	// Render the scenario map.
	m := viz.NewMap(1440, 720)
	m.AddGraticule(30)
	m.AddBox(cfg.BoundingBox, "#2e8b57")
	st := tb.State()
	for id, node := range tb.Constellation().Nodes() {
		if node.Kind == constellation.KindSatellite && st.Active[id] {
			m.AddSatellite(geom.ToGeodetic(st.Positions[id]), viz.ShellColor(node.Shell), 1.5)
		}
	}
	for _, g := range cfg.GroundStations {
		m.AddGroundStation(g.Location, "#d22", g.Name)
	}
	if err := o.write("fig3_scenario.svg", m.SVG(), &rep); err != nil {
		return rep, err
	}
	return rep, nil
}

// Fig4 regenerates the latency CDFs of Fig. 4: per client pair, the
// distribution of end-to-end latency with a satellite bridge vs the cloud
// bridge.
func Fig4(o Options) (Report, error) {
	rep := Report{ID: "F4", Title: "Fig. 4: end-to-end latency CDFs, satellite vs cloud bridge"}
	sat, err := meetup.Run(o.meetupParams(meetup.DeploymentSatellite))
	if err != nil {
		return rep, err
	}
	cloud, err := meetup.Run(o.meetupParams(meetup.DeploymentCloud))
	if err != nil {
		return rep, err
	}
	pass := true
	var csv string
	for _, pair := range sat.Pairs() {
		sLat := sat.Latencies(pair)
		cLat := cloud.Latencies(pair)
		s16 := stats.FractionBelow(sLat, 16)
		c46 := stats.FractionBelow(cLat, 46)
		rep.Lines = append(rep.Lines, fmt.Sprintf(
			"%-18s satellite: median %5.1f ms, %3.0f%% ≤ 16 ms | cloud: median %5.1f ms, %3.0f%% ≤ 46 ms",
			pair, stats.Quantile(sLat, 0.5), 100*s16, stats.Quantile(cLat, 0.5), 100*c46))
		// The paper's claim: at least 80% of the duration below the
		// respective bound and satellite clearly better.
		if s16 < 0.8 || c46 < 0.8 || stats.Quantile(sLat, 0.5) >= stats.Quantile(cLat, 0.5) {
			pass = false
		}
		for _, pt := range stats.CDF(sLat) {
			csv += fmt.Sprintf("%s,satellite,%.3f,%.4f\n", pair, pt.Value, pt.Fraction)
		}
		for _, pt := range stats.CDF(cLat) {
			csv += fmt.Sprintf("%s,cloud,%.3f,%.4f\n", pair, pt.Value, pt.Fraction)
		}
	}
	// Shell-selection observation: only the two lowest/densest shells
	// are ever selected.
	if len(sat.BridgeShells) > 0 {
		var shells []int
		for s := range sat.BridgeShells {
			shells = append(shells, s)
		}
		sort.Ints(shells)
		rep.Lines = append(rep.Lines, fmt.Sprintf(
			"bridge satellites came from shells %v (paper: only the two lowest/densest)", shells))
		for _, s := range shells {
			if s > 1 {
				pass = false
			}
		}
	}
	rep.Pass = pass
	if err := o.write("fig4_cdfs.csv", "pair,deployment,latency_ms,fraction\n"+csv, &rep); err != nil {
		return rep, err
	}
	return rep, nil
}

// Fig5 regenerates the measured-vs-expected comparison of Fig. 5 for the
// Abuja → Accra pair via the cloud bridge, as 1-second rolling medians.
func Fig5(o Options) (Report, error) {
	rep := Report{ID: "F5", Title: "Fig. 5: measured vs expected latency (Abuja→Accra, cloud)"}
	res, err := meetup.Run(o.meetupParams(meetup.DeploymentCloud))
	if err != nil {
		return rep, err
	}
	pair := meetup.Pair("abuja", "accra")
	measured := make([]stats.TimePoint, 0, len(res.Measurements[pair]))
	for _, s := range res.Measurements[pair] {
		measured = append(measured, stats.TimePoint{T: s.T, Value: s.LatencyMs})
	}
	smoothed, err := stats.RollingMedian(measured, 1)
	if err != nil {
		return rep, err
	}
	expected := res.Expected[pair]

	// Compare the two curves: align each expected sample with the
	// nearest smoothed measurement.
	var deviations []float64
	csv := "t_s,kind,latency_ms\n"
	for _, e := range expected {
		csv += fmt.Sprintf("%.1f,expected,%.3f\n", e.T, e.LatencyMs)
		best := math.Inf(1)
		var at float64
		for _, mpt := range smoothed {
			if d := math.Abs(mpt.T - e.T); d < best {
				best = d
				at = mpt.Value
			}
		}
		if !math.IsInf(best, 1) {
			deviations = append(deviations, math.Abs(at-e.LatencyMs))
		}
	}
	for _, mpt := range smoothed {
		csv += fmt.Sprintf("%.1f,measured,%.3f\n", mpt.T, mpt.Value)
	}
	dev := stats.Summarize(deviations)
	rep.Lines = append(rep.Lines,
		fmt.Sprintf("expected samples: %d, measured samples: %d", len(expected), len(measured)),
		fmt.Sprintf("median |measured−expected| = %.2f ms (curves follow the same trend)", dev.Median))
	// Accurate emulation: the rolling-median measurement deviates from
	// the calculated network latency by low single-digit ms.
	rep.Pass = dev.Median < 3
	if err := o.write("fig5_measured_vs_expected.csv", csv, &rep); err != nil {
		return rep, err
	}
	return rep, nil
}

// Fig6 regenerates the reproducibility experiment of Fig. 6: three
// repetitions of the Yaoundé → Abuja cloud measurement.
func Fig6(o Options) (Report, error) {
	rep := Report{ID: "F6", Title: "Fig. 6: reproducibility across three repetitions (Yaoundé→Abuja, cloud)"}
	pair := meetup.Pair("yaounde", "abuja")
	var runs [][]meetup.Sample
	for rep := 0; rep < 3; rep++ {
		p := o.meetupParams(meetup.DeploymentCloud)
		res, err := meetup.Run(p)
		if err != nil {
			return Report{}, err
		}
		runs = append(runs, res.Measurements[pair])
	}
	// With a fixed starting point the network component is identical;
	// only the seeded jitter differs between reality and the model, and
	// we use the same seed, so the runs must agree exactly.
	n := len(runs[0])
	identical := n > 0 && len(runs[1]) == n && len(runs[2]) == n
	maxDelta := 0.0
	if identical {
		for i := 0; i < n; i++ {
			d := math.Max(math.Abs(runs[0][i].LatencyMs-runs[1][i].LatencyMs),
				math.Abs(runs[0][i].LatencyMs-runs[2][i].LatencyMs))
			if d > maxDelta {
				maxDelta = d
			}
		}
	}
	rep.Lines = append(rep.Lines,
		fmt.Sprintf("3 repetitions × %d samples", n),
		fmt.Sprintf("max |run_i − run_1| = %.4f ms (paper: trends and spikes reproduce)", maxDelta))
	rep.Pass = identical && maxDelta == 0
	csv := "t_s,run,latency_ms\n"
	for ri, run := range runs {
		for _, s := range run {
			csv += fmt.Sprintf("%.2f,%d,%.3f\n", s.T, ri+1, s.LatencyMs)
		}
	}
	if err := o.write("fig6_repetitions.csv", csv, &rep); err != nil {
		return rep, err
	}
	return rep, nil
}
