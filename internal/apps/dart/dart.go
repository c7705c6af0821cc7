// Package dart implements the paper's case study (§5): real-time ocean
// environment alerts with remote sensors, inspired by NOAA's Deep-ocean
// Assessment and Reporting of Tsunamis (DART) project.
//
// 100 data buoys in the Pacific Ocean transmit sensor readings over the
// Iridium satellite network at a one-second interval. The readings are
// used to predict weather and environmental events with a stacked LSTM
// neural network, and results are distributed to ships and islands in the
// vicinity of each sensor (200 sink locations in total).
//
// Two deployments of the inference service are compared: a central ground
// station at the Pacific Tsunami Warning Center on Ford Island, Hawaii
// (8 cores), and on-satellite deployment on each of the 66 Iridium
// satellites (1 core each), enabling device-to-device communication.
package dart

import (
	"fmt"
	"time"

	"celestial/internal/config"
	"celestial/internal/constellation"
	"celestial/internal/core"
	"celestial/internal/geom"
	"celestial/internal/lstm"
	"celestial/internal/orbit"
	"celestial/internal/rng"
	"celestial/internal/stats"
	"celestial/internal/vnet"
)

// Deployment selects where the inference service runs.
type Deployment int

const (
	// DeploymentCentral processes all readings at the Pacific Tsunami
	// Warning Center ground station on Ford Island, Hawaii.
	DeploymentCentral Deployment = iota + 1
	// DeploymentSatellite runs the inference service on every Iridium
	// satellite, processing readings on the communication path.
	DeploymentSatellite
)

// String implements fmt.Stringer.
func (d Deployment) String() string {
	switch d {
	case DeploymentCentral:
		return "central"
	case DeploymentSatellite:
		return "satellite"
	default:
		return fmt.Sprintf("deployment(%d)", int(d))
	}
}

// Experiment constants from §5.1.
const (
	// updateInterval is the coordinator resolution.
	updateInterval = 5 * time.Second
	// sensorInterval is the reading period.
	sensorInterval = time.Second
	// seed drives buoy/sink placement (sub-stream 0), the sensor readings
	// (1) and the model weights (2).
	seed = 1
	// NumBuoys is the number of Pacific data buoys.
	NumBuoys = 100
	// NumSinks is the number of ship/island result consumers.
	NumSinks = 200
	// SensorBandwidthKbps is the Iridium Certus 100 rate recommended
	// for remote sensing (88 Kb/s).
	SensorBandwidthKbps = 88
	// BackboneBandwidthKbps is the ISL / processing-ground-station
	// rate (100 Mb/s).
	BackboneBandwidthKbps = 100_000
	// readingBytes sizes one grouped sensor reading message.
	readingBytes = 256
	// resultBytes sizes one inference result message.
	resultBytes = 128
	// seqLen is the LSTM input window (timesteps per inference).
	seqLen = 8
	// featureCount is the sensor feature count per timestep.
	featureCount = 4
	// inferencePerCoreFLOPS calibrates compute time: the default
	// {32, 16}-hidden model runs ≈123 kFLOPs per inference, so an
	// effective per-core throughput of 61.5 MFLOPS (a small embedded
	// CPU running TensorFlow with interpreter overhead) yields the
	// ≈2 ms per-inference latency the paper observes ("processing
	// latency is similar between both deployments, at an average of
	// 2ms").
	inferencePerCoreFLOPS = 61.5e6
)

// Hawaii is the Pacific Tsunami Warning Center location (Ford Island).
var Hawaii = config.GroundStation{
	Name:     "hawaii",
	Location: geom.LatLon{LatDeg: 21.3656, LonDeg: -157.9623},
	Compute:  config.ComputeParams{VCPUs: 8, MemMiB: 8192},
}

// Params configure one run.
type Params struct {
	Deployment Deployment
	// Duration of the measured phase (§5.1: 15 minutes).
	Duration time.Duration
	// Warmup is the stabilization phase before measurement (§5.1: 5
	// minutes).
	Warmup time.Duration
	// Model selects the orbit propagator.
	Model orbit.Model
}

// DefaultParams returns the §5.1 setup.
func DefaultParams(d Deployment) Params {
	return Params{
		Deployment: d,
		Duration:   15 * time.Minute,
		Warmup:     5 * time.Minute,
		Model:      orbit.ModelSGP4,
	}
}

// Location is a named Pacific coordinate with its measured latencies.
type Location struct {
	Name string
	geom.LatLon
}

// Result collects one run's outcome.
type Result struct {
	Buoys []Location
	Sinks []Location
	// SinkLatenciesMs collects the end-to-end sensor-to-sink latencies
	// per sink index (Fig. 11's per-location mean is derived from it).
	SinkLatenciesMs [][]float64
	// InferenceMs collects per-inference compute latencies.
	InferenceMs []float64
	// SendFailures counts messages dropped for lack of a path.
	SendFailures int
}

// MeanLatencyMs returns the mean end-to-end latency of one sink, or NaN
// when it received nothing.
func (r *Result) MeanLatencyMs(sink int) float64 {
	return stats.Mean(r.SinkLatenciesMs[sink])
}

// AllLatenciesMs flattens every sink's samples.
func (r *Result) AllLatenciesMs() []float64 {
	var out []float64
	for _, l := range r.SinkLatenciesMs {
		out = append(out, l...)
	}
	return out
}

// Summary summarizes all end-to-end latencies in milliseconds.
func (r *Result) Summary() stats.Summary {
	return stats.Summarize(r.AllLatenciesMs())
}

// pacificLocations draws deterministic buoy and sink locations in the
// Pacific basin (latitudes −35°…45°, longitudes 145°E…125°W across the
// antimeridian), the region of Fig. 10.
func pacificLocations(rnd *rng.Stream, prefix string, n int) []Location {
	out := make([]Location, n)
	for i := range out {
		lat := -35 + rnd.Float64()*80
		lon := 145 + rnd.Float64()*90 // 145..235 => wraps to -125
		out[i] = Location{
			Name:   fmt.Sprintf("%s-%d", prefix, i),
			LatLon: geom.LatLon{LatDeg: lat, LonDeg: geom.NormalizeLonDeg(lon)},
		}
	}
	return out
}

// Scenario builds the §5.1 testbed configuration plus the generated buoy
// and sink locations.
func Scenario(p Params) (*config.Config, []Location, []Location, error) {
	rnd := rng.New(rng.Derive(seed, 0))
	buoys := pacificLocations(rnd, "buoy", NumBuoys)
	sinks := pacificLocations(rnd, "sink", NumSinks)

	cfg := &config.Config{
		Name:       "dart-pacific",
		Duration:   p.Warmup + p.Duration,
		Resolution: updateInterval,
		Hosts:      4,
	}
	cfg.Shells = []config.Shell{{ShellConfig: orbit.Iridium(p.Model)}}
	// Iridium serves low-elevation terminals; 10° keeps the polar
	// constellation's global coverage.
	cfg.Network.MinElevationDeg = 10
	cfg.Network.BandwidthKbps = BackboneBandwidthKbps
	// Sensor and sink terminals use the 88 Kb/s Iridium link; satellite
	// servers and the Hawaii ground station use the backbone rate. The
	// per-terminal rate is modeled on the GSL of the terminal's shell
	// network parameters.
	cfg.Network.GSTBandwidthKbps = SensorBandwidthKbps
	// Sensors and data sinks get one core and 1024 MB (§5.1); satellite
	// servers also have 1 core / 1024 MB in the satellite deployment.
	cfg.Compute.VCPUs = 1
	cfg.Compute.MemMiB = 1024

	cfg.GroundStations = append(cfg.GroundStations, Hawaii)
	for _, b := range buoys {
		cfg.GroundStations = append(cfg.GroundStations, config.GroundStation{
			Name: b.Name, Location: b.LatLon,
		})
	}
	for _, s := range sinks {
		cfg.GroundStations = append(cfg.GroundStations, config.GroundStation{
			Name: s.Name, Location: s.LatLon,
		})
	}
	if err := config.Finalize(cfg); err != nil {
		return nil, nil, nil, err
	}
	return cfg, buoys, sinks, nil
}

// reading is a grouped sensor message.
type reading struct {
	buoy    int
	sentAt  time.Time
	samples [][]float64
}

// result is an inference output routed to sinks.
type resultMsg struct {
	buoy   int
	sentAt time.Time // original sensor send time
}

// Run executes one experiment.
func Run(p Params) (*Result, error) {
	if p.Deployment != DeploymentCentral && p.Deployment != DeploymentSatellite {
		return nil, fmt.Errorf("dart: unknown deployment %v", p.Deployment)
	}
	if p.Duration <= 0 {
		return nil, fmt.Errorf("dart: duration must be positive")
	}
	cfg, buoys, sinks, err := Scenario(p)
	if err != nil {
		return nil, err
	}
	tb, err := core.NewTestbed(cfg)
	if err != nil {
		return nil, err
	}
	if err := tb.Start(); err != nil {
		return nil, err
	}

	res := &Result{
		Buoys: buoys, Sinks: sinks,
		SinkLatenciesMs: make([][]float64, len(sinks)),
	}
	rnd := rng.New(rng.Derive(seed, 1))
	net := tb.Network()
	cons := tb.Constellation()
	start := tb.Sim().Now()
	measureFrom := start.Add(p.Warmup)

	model, err := lstm.New(lstm.Config{
		InputSize:   featureCount,
		HiddenSizes: []int{32, 16},
		OutputSize:  1,
		Seed:        rng.Derive(seed, 2),
	})
	if err != nil {
		return nil, err
	}
	// One inference request runs on one core; extra cores help concurrent
	// requests, not single-request latency, so the per-request time
	// matches across deployments ("processing latency is similar between
	// both deployments").
	inferenceSecs := float64(model.FLOPs(seqLen)) / inferencePerCoreFLOPS
	inferenceDelay := time.Duration(inferenceSecs * float64(time.Second))

	// Node IDs.
	hawaiiID, err := tb.NodeByName(Hawaii.Name)
	if err != nil {
		return nil, err
	}
	buoyIDs := make([]int, len(buoys))
	for i, b := range buoys {
		if buoyIDs[i], err = tb.NodeByName(b.Name); err != nil {
			return nil, err
		}
	}
	sinkIDs := make([]int, len(sinks))
	for i, s := range sinks {
		if sinkIDs[i], err = tb.NodeByName(s.Name); err != nil {
			return nil, err
		}
	}

	// Sinks subscribe to their nearest buoy ("results are distributed
	// to ships and islands in the vicinity of the sensor").
	subscribers := make([][]int, len(buoys))
	for si, s := range sinks {
		best, bestDist := 0, geom.GreatCircleKm(s.LatLon, buoys[0].LatLon)
		for bi := 1; bi < len(buoys); bi++ {
			if d := geom.GreatCircleKm(s.LatLon, buoys[bi].LatLon); d < bestDist {
				best, bestDist = bi, d
			}
		}
		subscribers[best] = append(subscribers[best], si)
	}

	// distribute sends an inference result from processor to all
	// subscribed sinks.
	distribute := func(processor int, msg resultMsg) {
		for _, si := range subscribers[msg.buoy] {
			if err := net.Send(processor, sinkIDs[si], resultBytes, struct {
				sink int
				resultMsg
			}{si, msg}); err != nil {
				res.SendFailures++
			}
		}
	}

	// infer runs the model (for real) and returns after accounting its
	// compute latency.
	infer := func(samples [][]float64) time.Duration {
		if _, err := model.Infer(samples); err != nil {
			// The generated windows are always well-formed.
			panic(fmt.Sprintf("dart: inference: %v", err))
		}
		res.InferenceMs = append(res.InferenceMs, inferenceDelay.Seconds()*1000)
		return inferenceDelay
	}

	// Sink handler: record end-to-end latency (sensor send to result
	// arrival) after warmup.
	for i := range sinks {
		si := i
		net.Handle(sinkIDs[si], func(m vnet.Message) {
			pkt, ok := m.Payload.(struct {
				sink int
				resultMsg
			})
			if !ok {
				return
			}
			if m.DeliveredAt.Before(measureFrom) {
				return
			}
			lat := m.DeliveredAt.Sub(pkt.sentAt).Seconds() * 1000
			res.SinkLatenciesMs[si] = append(res.SinkLatenciesMs[si], lat)
		})
	}

	switch p.Deployment {
	case DeploymentCentral:
		// Hawaii receives readings, infers, and distributes.
		net.Handle(hawaiiID, func(m vnet.Message) {
			r, ok := m.Payload.(reading)
			if !ok {
				return
			}
			d := infer(r.samples)
			if err := tb.Sim().After(d, func() {
				distribute(hawaiiID, resultMsg{buoy: r.buoy, sentAt: r.sentAt})
			}); err != nil {
				res.SendFailures++
			}
		})
	case DeploymentSatellite:
		// Every satellite runs the inference service.
		for _, node := range cons.Nodes() {
			if node.Kind != constellation.KindSatellite {
				continue
			}
			self := node.ID
			net.Handle(self, func(m vnet.Message) {
				r, ok := m.Payload.(reading)
				if !ok {
					return
				}
				d := infer(r.samples)
				if err := tb.Sim().After(d, func() {
					distribute(self, resultMsg{buoy: r.buoy, sentAt: r.sentAt})
				}); err != nil {
					res.SendFailures++
				}
			})
		}
	}

	// Buoys send readings every sensor interval. In the central
	// deployment the destination is Hawaii; in the satellite deployment
	// it is the buoy's current uplink satellite.
	sense := func() bool {
		st := tb.State()
		for bi, id := range buoyIDs {
			// Each reading owns its sample window: the message is
			// only processed after delivery.
			window := make([][]float64, seqLen)
			for i := range window {
				window[i] = make([]float64, featureCount)
				for j := range window[i] {
					window[i][j] = rnd.NormFloat64()
				}
			}
			r := reading{buoy: bi, sentAt: tb.Sim().Now(), samples: window}
			var dst int
			switch p.Deployment {
			case DeploymentCentral:
				dst = hawaiiID
			case DeploymentSatellite:
				// gst index: hawaii is 0, buoys follow.
				ups, err := st.Uplinks(1+bi, 0)
				if err != nil || len(ups) == 0 {
					res.SendFailures++
					continue
				}
				sat, err := cons.SatNode(0, ups[0].Sat)
				if err != nil {
					res.SendFailures++
					continue
				}
				dst = sat
			}
			if err := net.Send(id, dst, readingBytes, r); err != nil {
				res.SendFailures++
			}
		}
		return tb.Sim().Now().Sub(start) < p.Warmup+p.Duration
	}
	if err := tb.Sim().Every(start.Add(sensorInterval), sensorInterval, sense); err != nil {
		return nil, err
	}

	if err := tb.RunToEnd(); err != nil {
		return nil, err
	}
	return res, nil
}
