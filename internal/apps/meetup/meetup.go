// Package meetup implements the latency-sensitive edge application of §4
// of the paper: a multi-user video conference between three users in West
// Africa (Accra, Ghana; Abuja, Nigeria; Yaoundé, Cameroon) who need a
// common meetup server. Each participant sends a constant-bitrate
// high-definition video stream at 2.6 Mb/s; an intermediary bridge server
// duplicates each user's stream for all other users.
//
// Two deployments are compared. In the cloud deployment, the bridge runs
// in the nearest cloud data center (Johannesburg, South Africa), which is
// assumed to have a satellite network antenna. In the satellite
// deployment, a tracking service in that data center periodically checks
// the satellites in reach of the clients and instructs them to use the
// optimal satellite server — the one minimizing the combined latency — as
// the video bridge. The bridge is stateless, so no migration cost applies.
package meetup

import (
	"fmt"
	"time"

	"celestial/internal/bbox"
	"celestial/internal/clock"
	"celestial/internal/config"
	"celestial/internal/constellation"
	"celestial/internal/core"
	"celestial/internal/faults"
	"celestial/internal/geom"
	"celestial/internal/machine"
	"celestial/internal/netem"
	"celestial/internal/orbit"
	"celestial/internal/rng"
	"celestial/internal/vnet"
)

// Deployment selects where the video bridge runs.
type Deployment int

const (
	// DeploymentSatellite runs the bridge on the tracking-selected
	// optimal satellite server.
	DeploymentSatellite Deployment = iota + 1
	// DeploymentCloud runs the bridge in the Johannesburg data center.
	DeploymentCloud
)

// String implements fmt.Stringer.
func (d Deployment) String() string {
	switch d {
	case DeploymentSatellite:
		return "satellite"
	case DeploymentCloud:
		return "cloud"
	default:
		return fmt.Sprintf("deployment(%d)", int(d))
	}
}

// Client cities of the experiment (Fig. 3 of the paper).
var (
	Accra    = config.GroundStation{Name: "accra", Location: geom.LatLon{LatDeg: 5.6037, LonDeg: -0.1870}}
	Abuja    = config.GroundStation{Name: "abuja", Location: geom.LatLon{LatDeg: 9.0765, LonDeg: 7.3986}}
	Yaounde  = config.GroundStation{Name: "yaounde", Location: geom.LatLon{LatDeg: 3.8480, LonDeg: 11.5021}}
	Cloud    = config.GroundStation{Name: "johannesburg", Location: geom.LatLon{LatDeg: -26.2041, LonDeg: 28.0473}}
	clients  = []string{"accra", "abuja", "yaounde"}
	boxNorth = bbox.Box{LatMinDeg: -10, LonMinDeg: -20, LatMaxDeg: 30, LonMaxDeg: 30}
)

// Experiment constants from §4.1.
const (
	// updateInterval is the coordinator resolution.
	updateInterval = 2 * time.Second
	// trackingInterval is how often the tracking service re-selects the
	// bridge satellite.
	trackingInterval = 5 * time.Second
	// seed drives fault injection (sub-stream 0) and the processing-delay
	// jitter model (sub-stream 1).
	seed = 1
)

// Params configure one experiment run.
type Params struct {
	// Deployment selects cloud or satellite bridge.
	Deployment Deployment
	// Duration of the measured run (§4.1: 10 minutes).
	Duration time.Duration
	// PacketInterval is the spacing of measured stream packets. The
	// real stream sends a packet every few ms; for experiment speed the
	// default probes every 100 ms, which samples the same latency
	// process.
	PacketInterval time.Duration
	// Model selects the orbit propagator (the paper uses SGP4).
	Model orbit.Model
	// Shells limits the constellation to the first N Starlink shells
	// (0 = all five). The paper's observation that only the two lowest,
	// densest shells are ever selected motivates the ablation.
	Shells int
	// Impairments adds tc-netem-style link impairments (loss,
	// duplication, corruption, reordering, jitter) on top of the
	// topology-driven delays — the advanced features §3.1 and §6.5 of
	// the paper describe as easy extensions.
	Impairments netem.Params
	// Faults, when non-nil, enables radiation fault injection on every
	// satellite machine for the run.
	Faults *faults.SEUModel
}

// DefaultParams returns the §4.1 setup.
func DefaultParams(d Deployment) Params {
	return Params{
		Deployment:     d,
		Duration:       10 * time.Minute,
		PacketInterval: 100 * time.Millisecond,
		Model:          orbit.ModelSGP4,
		Shells:         0,
	}
}

// streamBytesPerPacket sizes stream packets: 2.6 Mb/s split into packets
// at the packet interval would be large; what matters for latency is the
// per-packet path, so a fixed HD-video-like packet size is used.
const streamBytesPerPacket = 1300

// PairKey identifies an ordered client pair, e.g. "accra→abuja".
type PairKey string

// Pair builds a PairKey.
func Pair(from, to string) PairKey { return PairKey(from + "→" + to) }

// Sample is one end-to-end latency measurement between a client pair.
type Sample struct {
	// T is the send offset since experiment start in seconds.
	T float64
	// LatencyMs is the measured end-to-end latency, including modeled
	// processing delay.
	LatencyMs float64
}

// Result collects one run's measurements.
type Result struct {
	// Measurements per ordered client pair.
	Measurements map[PairKey][]Sample
	// Expected is the tracking server's calculated network latency per
	// pair (network distance plus median processing delay), sampled at
	// every tracking interval — the "expected" curve of Fig. 5.
	Expected map[PairKey][]Sample
	// BridgeNodes is the sequence of node IDs used as the bridge, one
	// entry per tracking interval.
	BridgeNodes []int
	// BridgeShells counts how often each shell hosted the bridge
	// (satellite deployment only).
	BridgeShells map[int]int
	// SendFailures counts stream packets that could not be sent (no
	// current path).
	SendFailures int
	// Crashes counts machine crash transitions over the run (radiation
	// fault injection shutdowns).
	Crashes int
}

// Latencies flattens the measurements of a pair into milliseconds.
func (r *Result) Latencies(pair PairKey) []float64 {
	samples := r.Measurements[pair]
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.LatencyMs
	}
	return out
}

// Pairs lists the ordered pairs with measurements in a stable order.
func (r *Result) Pairs() []PairKey {
	var keys []PairKey
	for _, a := range clients {
		for _, b := range clients {
			if a == b {
				continue
			}
			if _, ok := r.Measurements[Pair(a, b)]; ok {
				keys = append(keys, Pair(a, b))
			}
		}
	}
	return keys
}

// Scenario builds the §4.1 testbed configuration.
func Scenario(p Params) (*config.Config, error) {
	shells := orbit.StarlinkPhase1(p.Model)
	if p.Shells > 0 && p.Shells < len(shells) {
		shells = shells[:p.Shells]
	}
	cfg := &config.Config{
		Name:       "meetup-west-africa",
		Duration:   p.Duration,
		Resolution: updateInterval,
		Hosts:      3,
		// Bounding box over North/West Africa (Fig. 3), where the
		// clients are located, to save resources.
		BoundingBox: boxNorth,
	}
	cfg.Network.BandwidthKbps = 10_000_000 // 10 Gb/s ISLs and radio links
	// The paper does not state the minimum uplink elevation; 25° (the
	// common Starlink assumption) reproduces the 16 ms / 46 ms RTT
	// geometry of Fig. 3, while 40° inflates paths past those bounds.
	cfg.Network.MinElevationDeg = 25
	cfg.Compute.VCPUs = 2 // satellite servers and the cloud bridge
	cfg.Compute.MemMiB = 512
	for _, s := range shells {
		cfg.Shells = append(cfg.Shells, config.Shell{ShellConfig: s})
	}
	four := config.ComputeParams{VCPUs: 4, MemMiB: 4096}
	accra, abuja, yaounde, cloud := Accra, Abuja, Yaounde, Cloud
	accra.Compute = four
	abuja.Compute = four
	yaounde.Compute = four // clients and tracking service get 4 cores
	cfg.GroundStations = []config.GroundStation{accra, abuja, yaounde, cloud}
	if err := config.Finalize(cfg); err != nil {
		return nil, err
	}
	return cfg, nil
}

// Run executes one experiment and returns its measurements.
func Run(p Params) (*Result, error) {
	if p.Deployment != DeploymentSatellite && p.Deployment != DeploymentCloud {
		return nil, fmt.Errorf("meetup: unknown deployment %v", p.Deployment)
	}
	if p.PacketInterval <= 0 || p.Duration <= 0 {
		return nil, fmt.Errorf("meetup: packet interval and duration must be positive")
	}
	cfg, err := Scenario(p)
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
	if err := tb.Network().SetImpairments(p.Impairments); err != nil {
		return nil, err
	}
	if p.Faults != nil {
		if err := tb.InjectFaults(*p.Faults, rng.Derive(seed, 0)); err != nil {
			return nil, err
		}
	}

	res := &Result{
		Measurements: map[PairKey][]Sample{},
		Expected:     map[PairKey][]Sample{},
		BridgeShells: map[int]int{},
	}
	rnd := rng.New(rng.Derive(seed, 1))
	procDelay := clock.DefaultProcessingDelay()
	start := tb.Sim().Now()
	net := tb.Network()
	cons := tb.Constellation()

	clientIDs := make(map[string]int, len(clients))
	var clientList []int
	for _, name := range clients {
		id, err := tb.NodeByName(name)
		if err != nil {
			return nil, err
		}
		clientIDs[name] = id
		clientList = append(clientList, id)
	}
	cloudID, err := tb.NodeByName(Cloud.Name)
	if err != nil {
		return nil, err
	}

	// The current bridge node; the tracking service updates it.
	bridge := cloudID

	// streamPacket is the payload of a client's stream packet.
	type streamPacket struct {
		origin string
		sentAt time.Time
	}

	// The bridge handler duplicates each incoming stream packet to all
	// other participants. It is registered for every possible bridge
	// node (cloud and all satellites the tracking service may pick);
	// forwarding only happens on the currently selected bridge.
	bridgeHandler := func(self int) vnet.Handler {
		return func(m vnet.Message) {
			if self != bridge {
				return // stale packet to a previous bridge
			}
			pkt, ok := m.Payload.(streamPacket)
			if !ok {
				return
			}
			for _, name := range clients {
				if name == pkt.origin {
					continue
				}
				if err := net.Send(self, clientIDs[name], streamBytesPerPacket, pkt); err != nil {
					res.SendFailures++
				}
			}
		}
	}
	net.Handle(cloudID, bridgeHandler(cloudID))
	for _, node := range cons.Nodes() {
		if node.Kind == constellation.KindSatellite {
			net.Handle(node.ID, bridgeHandler(node.ID))
		}
	}

	// Clients measure the end-to-end latency of received packets,
	// adding the modeled processing delay of the measurement pipeline.
	for _, name := range clients {
		id := clientIDs[name]
		net.Handle(id, func(m vnet.Message) {
			pkt, ok := m.Payload.(streamPacket)
			if !ok || pkt.origin == name {
				return
			}
			lat := m.DeliveredAt.Sub(pkt.sentAt) + procDelay.Sample(rnd)
			res.Measurements[Pair(pkt.origin, name)] = append(
				res.Measurements[Pair(pkt.origin, name)], Sample{
					T:         pkt.sentAt.Sub(start).Seconds(),
					LatencyMs: lat.Seconds() * 1000,
				})
		})
	}

	// Tracking service: every tracking interval, select the bridge and
	// record the expected per-pair latency from the constellation
	// database (network distance + median processing delay).
	medianProc := procDelay.Median.Seconds() * 1000
	track := func() bool {
		st := tb.State()
		if st == nil {
			return true
		}
		if p.Deployment == DeploymentSatellite {
			sat, _, err := st.BestMeetingPoint(clientList)
			if err == nil {
				bridge = sat
				node, err := cons.Node(sat)
				if err == nil {
					res.BridgeShells[node.Shell]++
				}
			}
			// When no satellite is reachable the previous bridge
			// stays in use, like a real tracking service.
		}
		res.BridgeNodes = append(res.BridgeNodes, bridge)
		t := tb.Sim().Now().Sub(start).Seconds()
		for _, a := range clients {
			for _, b := range clients {
				if a == b {
					continue
				}
				l1, err1 := st.Latency(clientIDs[a], bridge)
				l2, err2 := st.Latency(bridge, clientIDs[b])
				if err1 != nil || err2 != nil {
					continue
				}
				res.Expected[Pair(a, b)] = append(res.Expected[Pair(a, b)], Sample{
					T:         t,
					LatencyMs: (l1+l2)*1000 + medianProc,
				})
			}
		}
		return tb.Sim().Now().Sub(start) < p.Duration
	}
	if err := tb.Sim().Every(start, trackingInterval, track); err != nil {
		return nil, err
	}

	// Clients stream: every PacketInterval each client sends one packet
	// to the current bridge.
	stream := func() bool {
		for _, name := range clients {
			pkt := streamPacket{origin: name, sentAt: tb.Sim().Now()}
			if err := net.Send(clientIDs[name], bridge, streamBytesPerPacket, pkt); err != nil {
				res.SendFailures++
			}
		}
		return tb.Sim().Now().Sub(start) < p.Duration
	}
	if err := tb.Sim().Every(start.Add(p.PacketInterval), p.PacketInterval, stream); err != nil {
		return nil, err
	}

	if err := tb.RunToEnd(); err != nil {
		return nil, err
	}
	for _, h := range tb.Hosts() {
		for _, m := range h.Machines() {
			for _, tr := range m.Transitions() {
				if tr.To == machine.Failed {
					res.Crashes++
				}
			}
		}
	}
	return res, nil
}
