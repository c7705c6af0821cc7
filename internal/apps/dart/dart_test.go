package dart

import (
	"math"
	"testing"
	"time"

	"celestial/internal/geom"
	"celestial/internal/orbit"
)

// quickParams shortens the run: 1 minute measured, 30 s warmup, Kepler.
func quickParams(d Deployment) Params {
	p := DefaultParams(d)
	p.Duration = time.Minute
	p.Warmup = 30 * time.Second
	p.Model = orbit.ModelKepler
	return p
}

func TestScenarioShape(t *testing.T) {
	cfg, buoys, sinks, err := Scenario(DefaultParams(DeploymentCentral))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.TotalSatellites() != 66 {
		t.Errorf("satellites = %d", cfg.TotalSatellites())
	}
	if len(cfg.GroundStations) != 1+NumBuoys+NumSinks {
		t.Errorf("ground stations = %d", len(cfg.GroundStations))
	}
	if len(buoys) != NumBuoys || len(sinks) != NumSinks {
		t.Errorf("locations = %d, %d", len(buoys), len(sinks))
	}
	// All locations are in the Pacific box.
	for _, l := range append(append([]Location{}, buoys...), sinks...) {
		if l.LatDeg < -35 || l.LatDeg > 45 {
			t.Errorf("%s latitude %v outside Pacific band", l.Name, l.LatDeg)
		}
		lon := geom.NormalizeLonDeg(l.LonDeg)
		if lon > -125 && lon < 145 {
			t.Errorf("%s longitude %v outside Pacific band", l.Name, lon)
		}
	}
	// Hawaii gets 8 cores, sensors 1 core.
	if cfg.GroundStations[0].Compute.VCPUs != 8 {
		t.Errorf("hawaii compute = %+v", cfg.GroundStations[0].Compute)
	}
	if cfg.GroundStations[1].Compute.VCPUs != 1 || cfg.GroundStations[1].Compute.MemMiB != 1024 {
		t.Errorf("buoy compute = %+v", cfg.GroundStations[1].Compute)
	}
	// Deterministic placement for a fixed seed.
	_, buoys2, _, err := Scenario(DefaultParams(DeploymentCentral))
	if err != nil {
		t.Fatal(err)
	}
	if buoys[0] != buoys2[0] {
		t.Error("buoy placement not deterministic")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Params{}); err == nil {
		t.Error("accepted zero params")
	}
}

func TestCentralDeployment(t *testing.T) {
	res, err := Run(quickParams(DeploymentCentral))
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary()
	if s.Count < 1000 {
		t.Fatalf("samples = %d", s.Count)
	}
	// §5.2: central deployment end-to-end latency between ≈22 and
	// ≈183 ms. Allow slack for our synthetic buoy placement, but the
	// bulk must be in the tens-to-hundreds of ms.
	if s.Median < 20 || s.Median > 300 {
		t.Errorf("central median = %.1f ms", s.Median)
	}
	if s.Min < 5 {
		t.Errorf("central min = %.1f ms", s.Min)
	}
	// Inference takes ≈2 ms.
	infSummary := meanOf(res.InferenceMs)
	if infSummary < 1 || infSummary > 4 {
		t.Errorf("inference mean = %.2f ms", infSummary)
	}
}

func TestSatelliteDeploymentBeatsCentral(t *testing.T) {
	central, err := Run(quickParams(DeploymentCentral))
	if err != nil {
		t.Fatal(err)
	}
	sat, err := Run(quickParams(DeploymentSatellite))
	if err != nil {
		t.Fatal(err)
	}
	cs, ss := central.Summary(), sat.Summary()
	if ss.Count < 1000 {
		t.Fatalf("satellite samples = %d", ss.Count)
	}
	// §5.2: the satellite deployment reduces end-to-end latency
	// (≈22–183 ms down to ≈13–90 ms): both mean and median improve.
	if ss.Median >= cs.Median {
		t.Errorf("satellite median %.1f ms >= central %.1f ms", ss.Median, cs.Median)
	}
	if ss.Mean >= cs.Mean {
		t.Errorf("satellite mean %.1f ms >= central %.1f ms", ss.Mean, cs.Mean)
	}
	// The reduction is substantial (paper: roughly halved).
	if ss.Mean > 0.8*cs.Mean {
		t.Errorf("satellite mean %.1f ms not clearly below central %.1f ms", ss.Mean, cs.Mean)
	}
}

func TestPerSinkLatencies(t *testing.T) {
	res, err := Run(quickParams(DeploymentSatellite))
	if err != nil {
		t.Fatal(err)
	}
	withData := 0
	for i := range res.Sinks {
		if len(res.SinkLatenciesMs[i]) > 0 {
			withData++
			if m := res.MeanLatencyMs(i); m <= 0 || m > 1000 {
				t.Errorf("sink %d mean = %v", i, m)
			}
		}
	}
	// Every sink subscribes to its nearest buoy; the vast majority
	// must receive results.
	if withData < NumSinks*8/10 {
		t.Errorf("only %d of %d sinks received data", withData, NumSinks)
	}
	// Unserved sinks report NaN.
	empty := Result{SinkLatenciesMs: make([][]float64, 1), Sinks: []Location{{}}}
	if !math.IsNaN(empty.MeanLatencyMs(0)) {
		t.Error("empty sink mean not NaN")
	}
}

func TestWarmupExcluded(t *testing.T) {
	res, err := Run(quickParams(DeploymentCentral))
	if err != nil {
		t.Fatal(err)
	}
	// Measured sample count is bounded by the measured phase only:
	// 60 s × 100 buoys × ~2 sinks/buoy = ≈12,000 max; the warmup's
	// extra 30 s of readings must not inflate it beyond the ceiling.
	if n := res.Summary().Count; n > 13000 {
		t.Errorf("samples = %d, warmup leaked into measurement", n)
	}
}

func TestDeploymentString(t *testing.T) {
	if DeploymentCentral.String() != "central" || DeploymentSatellite.String() != "satellite" {
		t.Error("deployment strings")
	}
	if Deployment(7).String() != "deployment(7)" {
		t.Error("unknown string")
	}
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
