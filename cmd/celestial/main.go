// Command celestial runs a testbed from a TOML configuration file, like
// the original Celestial coordinator binary: it builds the constellation,
// boots the machines, runs the update loop for the configured duration,
// and optionally serves the testbed DNS and the HTTP information API on
// real sockets for interactive exploration.
//
// Usage:
//
//	celestial -config testbed.toml [-progress 30s] [-dns :5353] [-http :8080] [-wall]
//	celestial -scenario run.toml [-horizon 10s] [-report out.json] [-http :8080]
//	celestial ... -http :8080 [-http-auth token] [-http-rate rps[:burst]] [-http-log]
//	celestial -scenario run.toml -checkpoint run.ckpt [-checkpoint-every 5] [-resume]
//	celestial -scenario run.toml -agents-listen :7700 -agents 4 [-agents-barrier 2s]
//	celestial ... -agents-listen :7700 [-agents-token T] [-agents-cert crt.pem -agents-key key.pem]
//
// Without -wall the emulation runs in virtual time (a 10-minute experiment
// finishes in seconds); with -wall it advances in real time so external
// clients can interact with the DNS and HTTP endpoints while satellites
// move.
//
// The HTTP information API serves its routes under /v1 (with unversioned
// aliases) and can be wrapped in deployment middleware: -http-auth
// requires a bearer token, -http-rate applies a per-client token-bucket
// rate limit, and -http-log emits access logs. Scale the read path with
// cmd/celestial-read replicas following this process's /v1/diff stream.
//
// With -scenario, a declarative scenario file (see internal/scenario) is
// executed instead: the testbed, seeded traffic workloads and scripted
// timeline events it describes run to the horizon in virtual time, and the
// machine-readable run report is written to -report (default stdout). Two
// runs of the same scenario produce byte-identical reports. -http also
// works in scenario mode: the information service (including the
// GET /diff server-sent event stream) serves concurrently with the run,
// so external tools can watch link and activity deltas as the scenario
// executes.
//
// -agents-listen serves the host-agent wire protocol (see
// internal/hostlink and cmd/celestial-agent): remote agent processes
// attach as digest-verified replica followers of their shard's topology
// feed, with -agents holding the start until a fleet has attached and
// -agents-barrier bounding how long each tick waits for acks. Agents
// that attach with -apply additionally run the authoritative commit
// protocol: the coordinator proposes each generation's apply, the agent
// executes it through the shared apply engine, and the result digests
// are compared before the generation is committed. Remote agents never
// touch virtual state, so the run report stays byte-identical to a
// single-process run; at the end of the run every attached agent's final
// ack is verified against the coordinator's digest chain and any
// divergence fails the process. -agents-token demands a bearer token in
// every agent's Hello frame and -agents-cert/-agents-key serve the
// listener over TLS; both default off so loopback and CI runs stay
// plaintext.
//
// -checkpoint persists a crash-safe snapshot of the run state at tick
// boundaries (atomic write: temp file, fsync, rename). After a crash — or
// a scripted one via -crash-after-ticks — rerunning with -resume replays
// the run deterministically from the epoch, verifies the replayed report so
// far and flow state against the checkpoint, and continues to the horizon;
// the resumed report is byte-identical to an uninterrupted run's.
package main

import (
	"crypto/tls"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"celestial"
	"celestial/internal/bbox"
	"celestial/internal/httpapi"
	"celestial/internal/httpapi/middleware"
	"celestial/internal/scenario"
)

// apiChain composes the deployment's HTTP policy middleware around the
// information API: panic recovery always, then (innermost-first as
// configured) access logging, bearer-token auth and per-client rate
// limiting. The same chain wraps the coordinator here and the read
// replicas in celestial-read.
func apiChain(h http.Handler, auth, rateSpec string, accessLog bool) http.Handler {
	rate, burst, err := middleware.ParseRate(rateSpec)
	if err != nil {
		log.Fatalf("celestial: -http-rate: %v", err)
	}
	mw := []middleware.Middleware{middleware.Recover(log.Printf)}
	if accessLog {
		mw = append(mw, middleware.AccessLog(log.Printf))
	}
	mw = append(mw, middleware.TokenAuth(auth), middleware.RateLimit(rate, burst))
	return middleware.Chain(h, mw...)
}

func main() {
	configPath := flag.String("config", "", "path to the TOML testbed configuration")
	scenarioPath := flag.String("scenario", "", "path to a TOML scenario file (overrides -config mode)")
	horizon := flag.Duration("horizon", 0, "truncate the scenario horizon (scenario mode only; a no-op when the scenario is already shorter)")
	reportPath := flag.String("report", "", "write the scenario run report to this file (default stdout)")
	checkpointPath := flag.String("checkpoint", "", "persist a crash-safe run checkpoint to this file at tick boundaries (scenario mode only)")
	checkpointEvery := flag.Int("checkpoint-every", 1, "checkpoint period in ticks")
	resume := flag.Bool("resume", false, "resume a killed run from the -checkpoint file: replay deterministically, verify against the checkpoint, continue")
	crashAfter := flag.Int("crash-after-ticks", 0, "exit hard after this many ticks, after checkpoint persistence (crash/resume testing)")
	progress := flag.Duration("progress", 30*time.Second, "virtual-time interval between progress reports")
	dnsAddr := flag.String("dns", "", "UDP address to serve testbed DNS on (e.g. :5353)")
	httpAddr := flag.String("http", "", "TCP address to serve the HTTP info API on (e.g. :8080)")
	httpAuth := flag.String("http-auth", "", "bearer token required on info API requests (empty disables auth)")
	httpRate := flag.String("http-rate", "", "per-client info API rate limit, \"<rps>\" or \"<rps>:<burst>\" (empty disables)")
	httpLog := flag.Bool("http-log", false, "log one line per info API request")
	agentsListen := flag.String("agents-listen", "", "TCP address to serve the host-agent wire protocol on (e.g. :7700; scenario mode only)")
	agentsWait := flag.Int("agents", 0, "wait for this many celestial-agent connections before starting the run (requires -agents-listen)")
	agentsBarrier := flag.Duration("agents-barrier", 2*time.Second, "per-tick wall-clock budget for attached agents to ack the new generation")
	agentsCert := flag.String("agents-cert", "", "serve the agent listener over TLS with this certificate (requires -agents-key)")
	agentsKey := flag.String("agents-key", "", "private key for -agents-cert")
	agentsToken := flag.String("agents-token", "", "bearer token agents must present in their Hello frame (empty disables auth; plaintext loopback runs stay allowed)")
	wall := flag.Bool("wall", false, "advance in wall-clock time instead of virtual time")
	flag.Parse()

	if *scenarioPath != "" {
		runScenario(scenarioOpts{
			path:            *scenarioPath,
			horizon:         *horizon,
			reportPath:      *reportPath,
			httpAddr:        *httpAddr,
			httpAuth:        *httpAuth,
			httpRate:        *httpRate,
			httpLog:         *httpLog,
			checkpointPath:  *checkpointPath,
			checkpointEvery: *checkpointEvery,
			resume:          *resume,
			crashAfter:      *crashAfter,
			agentsListen:    *agentsListen,
			agentsWait:      *agentsWait,
			agentsBarrier:   *agentsBarrier,
			agentsCert:      *agentsCert,
			agentsKey:       *agentsKey,
			agentsToken:     *agentsToken,
		})
		return
	}
	if *agentsListen != "" || *agentsWait > 0 {
		log.Fatal("celestial: -agents-listen/-agents require -scenario mode")
	}
	if *configPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	cfg, err := celestial.ParseConfigFile(*configPath)
	if err != nil {
		log.Fatalf("celestial: %v", err)
	}
	tb, err := celestial.New(cfg)
	if err != nil {
		log.Fatalf("celestial: %v", err)
	}

	if *dnsAddr != "" {
		conn, err := net.ListenPacket("udp", *dnsAddr)
		if err != nil {
			log.Fatalf("celestial: dns listener: %v", err)
		}
		defer conn.Close()
		go func() {
			if err := tb.ServeDNS(conn); err != nil {
				log.Printf("celestial: dns server: %v", err)
			}
		}()
		log.Printf("serving testbed DNS on %s (try: dig @%s 0.0.celestial)",
			conn.LocalAddr(), conn.LocalAddr())
	}
	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			log.Fatalf("celestial: http listener: %v", err)
		}
		defer ln.Close()
		h := apiChain(tb.API(), *httpAuth, *httpRate, *httpLog)
		go func() {
			if err := http.Serve(ln, h); err != nil {
				log.Printf("celestial: http server: %v", err)
			}
		}()
		log.Printf("serving info API on http://%s/v1/info", ln.Addr())
	}

	if err := tb.Start(); err != nil {
		log.Fatalf("celestial: %v", err)
	}
	log.Printf("testbed %q: %d satellites in %d shell(s), %d ground stations, %d host(s)",
		cfg.Name, cfg.TotalSatellites(), len(cfg.Shells), len(cfg.GroundStations), cfg.Hosts)
	log.Printf("epoch %s, duration %v, update resolution %v",
		cfg.Epoch.Format(time.RFC3339), cfg.Duration, cfg.Resolution)

	// Resource estimation, the §3.3 helper: Celestial "helps the user
	// configure their bounding box in a manner that makes sure that
	// available resources meet the demand from the emulation".
	if cfg.BoundingBox != celestial.WholeEarth {
		sat := bbox.MachineSize{VCPUs: cfg.Compute.VCPUs, MemoryMiB: cfg.Compute.MemMiB}
		gst := sat
		est := bbox.EstimateResources(cfg.BoundingBox, cfg.TotalSatellites(),
			sat, len(cfg.GroundStations), gst)
		log.Printf("bounding box %v covers %.1f%% of Earth: expect ≈%d active satellites, plan for %d vCPUs / %d MiB",
			cfg.BoundingBox, 100*cfg.BoundingBox.AreaFraction(),
			est.ExpectedActive, est.VCPUs, est.MemoryMiB)
	}

	report := func() {
		st := tb.State()
		if st == nil {
			return
		}
		active := st.ActiveCount()
		delivered, dropped := tb.Network().Stats()
		fmt.Printf("t=%6.0fs  active=%5d/%d  links=%6d  delivered=%d dropped=%d\n",
			tb.ElapsedSeconds(), active, len(st.Active), len(st.Links), delivered, dropped)
	}

	report()
	step := *progress
	if step <= 0 || step > cfg.Duration {
		step = cfg.Duration
	}
	for tb.ElapsedSeconds() < cfg.Duration.Seconds() {
		if *wall {
			time.Sleep(step)
		}
		remaining := cfg.Duration - time.Duration(tb.ElapsedSeconds()*float64(time.Second))
		if step > remaining {
			step = remaining
		}
		if err := tb.Run(step); err != nil {
			log.Fatalf("celestial: %v", err)
		}
		report()
	}
	log.Printf("experiment complete at t=%.0fs", tb.ElapsedSeconds())
}

// scenarioOpts bundles the scenario-mode flags.
type scenarioOpts struct {
	path            string
	horizon         time.Duration
	reportPath      string
	httpAddr        string
	httpAuth        string
	httpRate        string
	httpLog         bool
	checkpointPath  string
	checkpointEvery int
	resume          bool
	crashAfter      int
	agentsListen    string
	agentsWait      int
	agentsBarrier   time.Duration
	agentsCert      string
	agentsKey       string
	agentsToken     string
}

// runScenario executes a declarative scenario file and writes its run
// report, optionally serving the information service alongside the run,
// checkpointing the run state at tick boundaries, and resuming a killed
// run from its checkpoint.
func runScenario(o scenarioOpts) {
	sc, err := scenario.ParseFile(o.path)
	if err != nil {
		log.Fatalf("celestial: %v", err)
	}
	if o.horizon > 0 && o.horizon < sc.Horizon {
		if err := sc.Truncate(o.horizon); err != nil {
			log.Fatalf("celestial: %v", err)
		}
	}
	r, err := scenario.NewRunner(sc)
	if err != nil {
		log.Fatalf("celestial: %v", err)
	}
	if o.agentsToken != "" {
		// The token is a deployment secret, not a scenario property:
		// layer it over the scenario's hosts configuration by rebuilding
		// the fan-out tier before anything serves it.
		opts := r.Coordinator().FanoutOptions()
		opts.Token = o.agentsToken
		if err := r.Coordinator().ConfigureFanout(opts); err != nil {
			log.Fatalf("celestial: %v", err)
		}
	}
	if o.httpAddr != "" {
		ln, err := net.Listen("tcp", o.httpAddr)
		if err != nil {
			log.Fatalf("celestial: http listener: %v", err)
		}
		defer ln.Close()
		h := apiChain(httpapi.New(r.Coordinator()), o.httpAuth, o.httpRate, o.httpLog)
		go func() {
			if err := http.Serve(ln, h); err != nil {
				log.Printf("celestial: http server: %v", err)
			}
		}()
		log.Printf("serving info API on http://%s/v1/info (diff stream: /v1/diff?since=0)", ln.Addr())
	}
	// Multi-host mode: serve the host-agent wire protocol, optionally wait
	// for a fleet of celestial-agent processes to attach, and hold each
	// tick until attached agents ack it. None of this touches virtual
	// state — remote agents are digest-verified followers — so the run
	// report stays byte-identical to a single-process run.
	var barrierHook func(tick int) error
	fo := r.Coordinator().Fanout()
	if o.agentsListen != "" {
		ln, err := net.Listen("tcp", o.agentsListen)
		if err != nil {
			log.Fatalf("celestial: agent listener: %v", err)
		}
		defer ln.Close()
		if o.agentsCert != "" || o.agentsKey != "" {
			cert, err := tls.LoadX509KeyPair(o.agentsCert, o.agentsKey)
			if err != nil {
				log.Fatalf("celestial: -agents-cert/-agents-key: %v", err)
			}
			ln = tls.NewListener(ln, &tls.Config{Certificates: []tls.Certificate{cert}})
			log.Printf("agent listener speaks TLS (cert %s)", o.agentsCert)
		}
		go func() {
			if err := fo.Serve(ln); err != nil {
				log.Printf("celestial: agent server: %v", err)
			}
		}()
		log.Printf("serving host-agent protocol on %s (%d shards)", ln.Addr(), fo.Shards())
		if o.agentsWait > 0 {
			log.Printf("waiting for %d agent(s) to attach", o.agentsWait)
			for fo.ConnectedAgents() < o.agentsWait {
				time.Sleep(50 * time.Millisecond)
			}
			log.Printf("%d agent(s) attached", fo.ConnectedAgents())
		}
		barrierHook = func(int) error {
			// Detached agents never stall the run; they resync from the
			// retention ring (or a snapshot) when they return.
			fo.WaitRemotes(o.agentsBarrier)
			return nil
		}
		defer fo.Close()
	} else if o.agentsWait > 0 {
		log.Fatal("celestial: -agents requires -agents-listen")
	}

	cfg := sc.Config
	log.Printf("scenario %q (seed %d): %d satellites in %d shell(s), %d ground stations, %d flow(s), %d event(s)",
		sc.Name, sc.Seed, cfg.TotalSatellites(), len(cfg.Shells), len(cfg.GroundStations),
		len(sc.Flows), len(sc.Events))
	log.Printf("horizon %v, update resolution %v", sc.Horizon, cfg.Resolution)

	runOpts := scenario.RunOptions{
		CheckpointPath:  o.checkpointPath,
		CheckpointEvery: o.checkpointEvery,
	}
	if o.resume {
		if o.checkpointPath == "" {
			log.Fatal("celestial: -resume requires -checkpoint")
		}
		cp, err := scenario.LoadCheckpoint(o.checkpointPath)
		if err != nil {
			log.Fatalf("celestial: %v", err)
		}
		runOpts.Resume = cp
		log.Printf("resuming from checkpoint at tick %d (t=%vs): replaying prefix and verifying", cp.Tick, cp.SimS)
	}
	runOpts.TickHook = barrierHook
	if o.crashAfter > 0 {
		if o.checkpointPath == "" {
			log.Fatal("celestial: -crash-after-ticks requires -checkpoint")
		}
		runOpts.TickHook = func(tick int) error {
			if barrierHook != nil {
				_ = barrierHook(tick)
			}
			if tick >= o.crashAfter {
				// A hard exit, not a clean unwind: the checkpoint on
				// disk must carry the resume on its own.
				log.Printf("crashing at tick %d as requested", tick)
				os.Exit(3)
			}
			return nil
		}
	}
	rep, err := r.RunWith(runOpts)
	if err != nil {
		log.Fatalf("celestial: %v", err)
	}
	if o.agentsListen != "" {
		// The distributed run's proof of equivalence: every attached agent
		// must have acked the final generation with the coordinator's own
		// chain digest. A divergent replica is a hard failure, not a log
		// line — the CI multihost job relies on this exit code.
		fo.WaitRemotes(o.agentsBarrier)
		if err := fo.VerifyRemotes(); err != nil {
			log.Fatalf("celestial: remote verification failed: %v", err)
		}
		log.Printf("verified %d attached agent(s) against the digest chain", fo.ConnectedAgents())
	}
	log.Printf("run complete: %d ticks, %d/%d messages delivered/dropped, %d active satellites at end",
		rep.Ticks.Ticks, rep.Network.Delivered, rep.Network.Dropped, r.ActiveSatellites())
	out := os.Stdout
	if o.reportPath != "" {
		f, err := os.Create(o.reportPath)
		if err != nil {
			log.Fatalf("celestial: %v", err)
		}
		defer f.Close()
		out = f
	}
	if err := rep.WriteJSON(out); err != nil {
		log.Fatalf("celestial: %v", err)
	}
}
