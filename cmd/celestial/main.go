// Command celestial runs one emulation and writes its machine-readable
// run report. The run is described by a declarative scenario file (see
// internal/scenario): the testbed, seeded traffic workloads and scripted
// timeline events, run to the horizon in virtual time (a 10-minute
// experiment finishes in seconds). -config names a bare testbed
// configuration instead and runs it as the scenario `config = "file"`: no
// flows, no events, the testbed's duration as the horizon. Two runs of the
// same file produce byte-identical reports.
//
// Usage:
//
//	celestial (-scenario run.toml | -config testbed.toml) [-horizon 10s] [-report out.json]
//	          [-progress 30s] [-wall] [-dns :5353]
//	          [-http :8080 [-http-auth token] [-http-rate rps[:burst]] [-http-log]]
//	          [-checkpoint run.ckpt [-checkpoint-every 5] [-resume | -crash-after-ticks K]]
//	          [-agents-listen :7700 [-agents 4] [-agents-barrier 2s] [-agents-token T]
//	                                [-agents-cert crt.pem -agents-key key.pem]]
//
// The report goes to -report (default stdout), logs to stderr. -horizon
// truncates the run; -progress logs the active satellites, links and
// delivered and dropped messages once per interval of virtual time. -wall
// holds the end of tick k until k update resolutions after the start, so
// external clients can use the DNS and HTTP endpoints while satellites
// move.
//
// -dns serves the testbed DNS on a UDP socket. -http serves the HTTP
// information API under /v1 (with unversioned aliases), including the
// GET /v1/diff stream of link and activity deltas, concurrently with the
// run; -http-auth requires a bearer token, -http-rate applies a per-client
// token-bucket rate limit, and -http-log emits access logs. Scale the read
// path with cmd/celestial-read replicas following this process's /v1/diff
// stream.
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
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"celestial"
	"celestial/internal/bbox"
	"celestial/internal/coordinator"
	"celestial/internal/dns"
	"celestial/internal/httpapi"
	"celestial/internal/httpapi/middleware"
	"celestial/internal/scenario"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one command line and returns its exit status: 0 when the
// report is written, 1 when the run fails and 2 for flags no run can
// honour. -crash-after-ticks alone exits on its own, with status 3.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("celestial", flag.ContinueOnError)
	fs.SetOutput(stderr)
	configPath := fs.String("config", "", "path to a TOML testbed configuration, run as the scenario config = \"file\"")
	scenarioPath := fs.String("scenario", "", "path to a TOML scenario file")
	horizon := fs.Duration("horizon", 0, "truncate the run's horizon (a no-op when the run is already shorter)")
	reportPath := fs.String("report", "", "write the run report to this file (default stdout)")
	checkpointPath := fs.String("checkpoint", "", "persist a crash-safe run checkpoint to this file at tick boundaries")
	checkpointEvery := fs.Int("checkpoint-every", 1, "checkpoint period in ticks")
	resume := fs.Bool("resume", false, "resume a killed run from the -checkpoint file: replay deterministically, verify against the checkpoint, continue")
	crashAfter := fs.Int("crash-after-ticks", 0, "exit hard after this many ticks, after checkpoint persistence (crash/resume testing)")
	progress := fs.Duration("progress", 30*time.Second, "virtual-time interval between progress lines on stderr")
	dnsAddr := fs.String("dns", "", "UDP address to serve testbed DNS on (e.g. :5353)")
	httpAddr := fs.String("http", "", "TCP address to serve the HTTP info API on (e.g. :8080)")
	httpAuth := fs.String("http-auth", "", "bearer token required on info API requests (empty disables auth)")
	httpRate := fs.String("http-rate", "", "per-client info API rate limit, \"<rps>\" or \"<rps>:<burst>\" (empty disables)")
	httpLog := fs.Bool("http-log", false, "log one line per info API request")
	agentsListen := fs.String("agents-listen", "", "TCP address to serve the host-agent wire protocol on (e.g. :7700)")
	agentsWait := fs.Int("agents", 0, "wait for this many celestial-agent connections before starting the run (requires -agents-listen)")
	agentsBarrier := fs.Duration("agents-barrier", 2*time.Second, "per-tick wall-clock budget for attached agents to ack the new generation")
	agentsCert := fs.String("agents-cert", "", "serve the agent listener over TLS with this certificate (requires -agents-key)")
	agentsKey := fs.String("agents-key", "", "private key for -agents-cert")
	agentsToken := fs.String("agents-token", "", "bearer token agents must present in their Hello frame (empty disables auth; plaintext loopback runs stay allowed)")
	wall := fs.Bool("wall", false, "pace the ticks in wall-clock time instead of running in virtual time")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := checkFlags(*configPath, *scenarioPath, *horizon, *agentsBarrier, *checkpointEvery); err != nil {
		fmt.Fprintf(stderr, "celestial: %v\n", err)
		return 2
	}
	lg := log.New(stderr, "", log.LstdFlags)
	fail := func(format string, args ...any) int {
		lg.Printf("celestial: "+format, args...)
		return 1
	}

	sc, err := load(*configPath, *scenarioPath)
	if err != nil {
		return fail("%v", err)
	}
	if *horizon > 0 && *horizon < sc.Horizon {
		if err := sc.Truncate(*horizon); err != nil {
			return fail("%v", err)
		}
	}
	// The agent token is a deployment secret, not a scenario property: it
	// rides along in the hosts configuration without changing the run.
	sc.Hosts.Token = *agentsToken
	r, err := scenario.NewRunner(sc)
	if err != nil {
		return fail("%v", err)
	}
	coord := r.Coordinator()
	if *dnsAddr != "" {
		conn, err := net.ListenPacket("udp", *dnsAddr)
		if err != nil {
			return fail("dns listener: %v", err)
		}
		defer conn.Close()
		srv := dns.NewServer(dns.NewResolver(coord.Constellation()))
		go func() {
			if err := srv.Serve(conn); err != nil {
				lg.Printf("celestial: dns server: %v", err)
			}
		}()
		lg.Printf("serving testbed DNS on %s (try: dig @%s 0.0.celestial)", conn.LocalAddr(), conn.LocalAddr())
	}
	if *httpAddr != "" {
		h, err := middleware.Deploy(httpapi.New(coord), *httpAuth, *httpRate, *httpLog, lg.Printf)
		if err != nil {
			return fail("-http-rate: %v", err)
		}
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return fail("http listener: %v", err)
		}
		defer ln.Close()
		go func() {
			if err := http.Serve(ln, h); err != nil && !errors.Is(err, net.ErrClosed) {
				lg.Printf("celestial: http server: %v", err)
			}
		}()
		lg.Printf("serving info API on http://%s/v1/info (diff stream: /v1/diff?since=0)", ln.Addr())
	}
	// Multi-host mode: serve the host-agent wire protocol, optionally wait
	// for a fleet of celestial-agent processes to attach, and hold each
	// tick until attached agents ack it. None of this touches virtual
	// state — remote agents are digest-verified followers — so the run
	// report stays byte-identical to a single-process run.
	fo := coord.Fanout()
	if *agentsListen != "" {
		ln, err := net.Listen("tcp", *agentsListen)
		if err != nil {
			return fail("agent listener: %v", err)
		}
		defer ln.Close()
		if *agentsCert != "" || *agentsKey != "" {
			cert, err := tls.LoadX509KeyPair(*agentsCert, *agentsKey)
			if err != nil {
				return fail("-agents-cert/-agents-key: %v", err)
			}
			ln = tls.NewListener(ln, &tls.Config{Certificates: []tls.Certificate{cert}})
			lg.Printf("agent listener speaks TLS (cert %s)", *agentsCert)
		}
		go func() {
			if err := fo.Serve(ln); err != nil {
				lg.Printf("celestial: agent server: %v", err)
			}
		}()
		defer fo.Close()
		lg.Printf("serving host-agent protocol on %s (%d shards)", ln.Addr(), fo.Shards())
		if *agentsWait > 0 {
			lg.Printf("waiting for %d agent(s) to attach", *agentsWait)
			for fo.ConnectedAgents() < *agentsWait {
				time.Sleep(50 * time.Millisecond)
			}
			lg.Printf("%d agent(s) attached", fo.ConnectedAgents())
		}
	} else if *agentsWait > 0 {
		return fail("-agents requires -agents-listen")
	}

	cfg := sc.Config
	lg.Printf("scenario %q (seed %d): %d satellites in %d shell(s), %d ground stations, %d flow(s), %d event(s)",
		sc.Name, sc.Seed, cfg.TotalSatellites(), len(cfg.Shells), len(cfg.GroundStations),
		len(sc.Flows), len(sc.Events))
	lg.Printf("horizon %v, update resolution %v", sc.Horizon, cfg.Resolution)
	// Resource estimation, the §3.3 helper: Celestial "helps the user
	// configure their bounding box in a manner that makes sure that
	// available resources meet the demand from the emulation".
	machine := bbox.MachineSize{VCPUs: cfg.Compute.VCPUs, MemoryMiB: cfg.Compute.MemMiB}
	est := bbox.EstimateResources(cfg.BoundingBox, cfg.TotalSatellites(), machine, len(cfg.GroundStations), machine)
	lg.Printf("bounding box %v covers %.1f%% of Earth: expect ≈%d active satellites, plan for %d vCPUs / %d MiB",
		cfg.BoundingBox, 100*cfg.BoundingBox.AreaFraction(), est.ExpectedActive, est.VCPUs, est.MemoryMiB)

	opts := scenario.RunOptions{CheckpointPath: *checkpointPath, CheckpointEvery: *checkpointEvery}
	if *resume {
		if *checkpointPath == "" {
			return fail("-resume requires -checkpoint")
		}
		cp, err := scenario.LoadCheckpoint(*checkpointPath)
		if err != nil {
			return fail("%v", err)
		}
		opts.Resume = cp
		lg.Printf("resuming from checkpoint at tick %d (t=%vs): replaying prefix and verifying", cp.Tick, cp.SimS)
	}
	if *crashAfter > 0 && *checkpointPath == "" {
		return fail("-crash-after-ticks requires -checkpoint")
	}
	start := time.Now()
	var shown time.Duration // progress intervals logged so far
	opts.TickHook = func(tick int) error {
		if *agentsListen != "" {
			// Detached agents never stall the run; they resync from the
			// retention ring (or a snapshot) when they return.
			fo.WaitRemotes(*agentsBarrier)
		}
		if *crashAfter > 0 && tick >= *crashAfter {
			// A hard exit, not a clean unwind: the checkpoint on disk
			// must carry the resume on its own.
			lg.Printf("crashing at tick %d as requested", tick)
			os.Exit(3)
		}
		at := time.Duration(tick) * cfg.Resolution
		if *wall {
			time.Sleep(time.Until(start.Add(at)))
		}
		if *progress > 0 && at / *progress > shown {
			shown = at / *progress
			logProgress(lg, coord)
		}
		return nil
	}
	rep, err := r.RunWith(opts)
	if err != nil {
		return fail("%v", err)
	}
	if *agentsListen != "" {
		// The distributed run's proof of equivalence: every attached agent
		// must have acked the final generation with the coordinator's own
		// chain digest. A divergent replica is a hard failure, not a log
		// line — the CI multihost job relies on this exit code.
		fo.WaitRemotes(*agentsBarrier)
		if err := fo.VerifyRemotes(); err != nil {
			return fail("remote verification failed: %v", err)
		}
		lg.Printf("verified %d attached agent(s) against the digest chain", fo.ConnectedAgents())
	}
	lg.Printf("run complete: %d ticks, %d/%d messages delivered/dropped, %d active satellites at end",
		rep.Ticks.Ticks, rep.Network.Delivered, rep.Network.Dropped, r.ActiveSatellites())
	if err := writeReport(rep, *reportPath, stdout); err != nil {
		return fail("%v", err)
	}
	return 0
}

// writeReport writes the run report to the file at path, or to stdout when
// path is empty.
func writeReport(rep *scenario.Report, path string, stdout io.Writer) error {
	if path == "" {
		return rep.WriteJSON(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkFlags refuses flag values no run can honour or would silently
// drop. A run is described by exactly one file. A negative horizon
// truncates nothing. A barrier that is not positive arms a timer that has
// already expired, so every tick — and the final wait before the remote
// digests are verified — gives up before the agents ack, and a distributed
// run fails verification. A checkpoint period below one tick names no
// period at all.
func checkFlags(configPath, scenarioPath string, horizon, agentsBarrier time.Duration, checkpointEvery int) error {
	switch {
	case configPath != "" && scenarioPath != "":
		return fmt.Errorf("-config %s with -scenario %s: give one (a scenario names its testbed with config = \"file\")", configPath, scenarioPath)
	case configPath == "" && scenarioPath == "":
		return errors.New("want -scenario or -config")
	case horizon < 0:
		return fmt.Errorf("-horizon %v: want a positive duration", horizon)
	case agentsBarrier <= 0:
		return fmt.Errorf("-agents-barrier %v: want a positive duration", agentsBarrier)
	case checkpointEvery < 1:
		return fmt.Errorf("-checkpoint-every %d: want at least 1 tick", checkpointEvery)
	}
	return nil
}

// load reads the run's description: a scenario file, or a testbed
// configuration as the scenario that references it.
func load(configPath, scenarioPath string) (*scenario.Scenario, error) {
	if scenarioPath != "" {
		return scenario.ParseFile(scenarioPath)
	}
	cfg, err := celestial.ParseConfigFile(configPath)
	if err != nil {
		return nil, err
	}
	return scenario.FromConfig(cfg)
}

// logProgress logs one line of the run's state at a tick boundary.
func logProgress(lg *log.Logger, coord *coordinator.Coordinator) {
	st := coord.State()
	delivered, dropped := coord.Network().Stats()
	lg.Printf("t=%6.0fs  active=%5d/%d  links=%6d  delivered=%d dropped=%d",
		coord.ElapsedSeconds(), st.ActiveCount(), len(st.Active), st.LinkCount(), delivered, dropped)
}
