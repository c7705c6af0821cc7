package meetup

import (
	"testing"
	"time"

	"celestial/internal/orbit"
	"celestial/internal/stats"
)

// quickParams runs a shortened experiment: 1 shell, Kepler, 1 minute.
func quickParams(d Deployment) Params {
	p := DefaultParams(d)
	p.Duration = time.Minute
	p.Model = orbit.ModelKepler
	p.Shells = 1
	p.PacketInterval = 500 * time.Millisecond
	return p
}

func TestScenarioShape(t *testing.T) {
	cfg, err := Scenario(DefaultParams(DeploymentSatellite))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Shells) != 5 {
		t.Errorf("shells = %d", len(cfg.Shells))
	}
	if cfg.TotalSatellites() != 4409 {
		t.Errorf("satellites = %d", cfg.TotalSatellites())
	}
	if len(cfg.GroundStations) != 4 {
		t.Errorf("ground stations = %d", len(cfg.GroundStations))
	}
	// Clients get 4 cores / 4 GB; satellite servers 2 cores / 512 MB.
	if cfg.GroundStations[0].Compute.VCPUs != 4 || cfg.GroundStations[0].Compute.MemMiB != 4096 {
		t.Errorf("client compute = %+v", cfg.GroundStations[0].Compute)
	}
	if cfg.Shells[0].Compute.VCPUs != 2 || cfg.Shells[0].Compute.MemMiB != 512 {
		t.Errorf("sat compute = %+v", cfg.Shells[0].Compute)
	}
	if cfg.Network.BandwidthKbps != 10_000_000 {
		t.Errorf("bandwidth = %v", cfg.Network.BandwidthKbps)
	}
	// Shell limiting.
	p := DefaultParams(DeploymentSatellite)
	p.Shells = 2
	cfg2, err := Scenario(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg2.Shells) != 2 {
		t.Errorf("limited shells = %d", len(cfg2.Shells))
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Params{}); err == nil {
		t.Error("accepted zero params")
	}
	p := quickParams(DeploymentCloud)
	p.PacketInterval = 0
	if _, err := Run(p); err == nil {
		t.Error("accepted zero packet interval")
	}
}

func TestCloudDeployment(t *testing.T) {
	res, err := Run(quickParams(DeploymentCloud))
	if err != nil {
		t.Fatal(err)
	}
	pairs := res.Pairs()
	if len(pairs) != 6 {
		t.Fatalf("pairs = %v", pairs)
	}
	for _, pair := range pairs {
		s := stats.Summarize(res.Latencies(pair))
		if s.Count < 50 {
			t.Errorf("%s: only %d samples", pair, s.Count)
		}
		// Through Johannesburg every pair takes ≈40-50 ms network
		// latency; with jitter stay within a broad sane band.
		if s.Median < 20 || s.Median > 80 {
			t.Errorf("%s: median = %.1f ms", pair, s.Median)
		}
	}
	// The cloud bridge never moves.
	for _, b := range res.BridgeNodes {
		if b != res.BridgeNodes[0] {
			t.Error("cloud bridge changed nodes")
		}
	}
	if len(res.BridgeShells) != 0 {
		t.Errorf("cloud run recorded bridge shells: %v", res.BridgeShells)
	}
}

func TestSatelliteDeployment(t *testing.T) {
	res, err := Run(quickParams(DeploymentSatellite))
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range res.Pairs() {
		s := stats.Summarize(res.Latencies(pair))
		if s.Count < 50 {
			t.Errorf("%s: only %d samples", pair, s.Count)
		}
		// Satellite bridge: ≈10-16 ms expected.
		if s.Median < 3 || s.Median > 40 {
			t.Errorf("%s: median = %.1f ms", pair, s.Median)
		}
	}
	if len(res.BridgeShells) == 0 {
		t.Error("no bridge shells recorded")
	}
}

func TestSatelliteBeatsCloud(t *testing.T) {
	sat, err := Run(quickParams(DeploymentSatellite))
	if err != nil {
		t.Fatal(err)
	}
	cloud, err := Run(quickParams(DeploymentCloud))
	if err != nil {
		t.Fatal(err)
	}
	// The headline result: the satellite bridge gives a considerable
	// QoS improvement for every client pair.
	for _, pair := range sat.Pairs() {
		sm := stats.Summarize(sat.Latencies(pair)).Median
		cm := stats.Summarize(cloud.Latencies(pair)).Median
		if sm >= cm {
			t.Errorf("%s: satellite median %.1f ms >= cloud %.1f ms", pair, sm, cm)
		}
	}
	// And the CDF claim: ≥80%% of cloud samples under 46 ms, ≥80%% of
	// satellite samples under 16 ms (the paper's Fig. 4 bounds).
	for _, pair := range sat.Pairs() {
		if f := stats.FractionBelow(sat.Latencies(pair), 16); f < 0.5 {
			t.Errorf("%s: only %.0f%%%% of satellite samples under 16 ms", pair, 100*f)
		}
		if f := stats.FractionBelow(cloud.Latencies(pair), 46); f < 0.5 {
			t.Errorf("%s: only %.0f%%%% of cloud samples under 46 ms", pair, 100*f)
		}
	}
}

func TestExpectedTracksMeasured(t *testing.T) {
	res, err := Run(quickParams(DeploymentCloud))
	if err != nil {
		t.Fatal(err)
	}
	pair := Pair("abuja", "accra")
	expected := res.Expected[pair]
	if len(expected) < 5 {
		t.Fatalf("expected samples = %d", len(expected))
	}
	// The mean expected and mean measured latency agree within a few
	// ms (jitter pulls the measured mean up, Fig. 5).
	var em, mm float64
	for _, s := range expected {
		em += s.LatencyMs
	}
	em /= float64(len(expected))
	meas := res.Latencies(pair)
	for _, v := range meas {
		mm += v
	}
	mm /= float64(len(meas))
	if diff := mm - em; diff < -3 || diff > 8 {
		t.Errorf("measured mean %.2f vs expected mean %.2f", mm, em)
	}
}

func TestReproducibility(t *testing.T) {
	a, err := Run(quickParams(DeploymentSatellite))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickParams(DeploymentSatellite))
	if err != nil {
		t.Fatal(err)
	}
	pair := Pair("yaounde", "abuja")
	la, lb := a.Latencies(pair), b.Latencies(pair)
	if len(la) == 0 || len(la) != len(lb) {
		t.Fatalf("lengths: %d vs %d", len(la), len(lb))
	}
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("runs diverged at sample %d: %v vs %v", i, la[i], lb[i])
		}
	}
}

func TestDeploymentString(t *testing.T) {
	if DeploymentSatellite.String() != "satellite" || DeploymentCloud.String() != "cloud" {
		t.Error("deployment strings")
	}
	if Deployment(9).String() != "deployment(9)" {
		t.Error("unknown deployment string")
	}
}
