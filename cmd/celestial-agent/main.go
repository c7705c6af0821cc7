// Command celestial-agent is the standalone host agent for distributed
// runs: it dials the coordinator's -agents-listen socket, claims one
// shard, follows the versioned frame stream (snapshots, diffs,
// heartbeats) into a local replica, and acks every applied generation
// with its digest chain so the coordinator can prove byte-exact
// convergence. Killed agents can simply be restarted: the agent redials
// with its replica cursor and the coordinator resyncs it from the diff
// retention ring, or with a full snapshot when the ring has moved on.
// The agent follows and applies; it serves no information API. Machines
// on a host read /v1 from a celestial-read replica of the coordinator.
//
// Usage:
//
//	celestial-agent -coordinator host:port -agent N
//	celestial-agent ... -apply [-token T] [-tls-ca ca.pem | -tls-insecure]
//
// With -apply the agent requests authoritative remote apply: the
// coordinator sends a Propose frame per generation, the agent executes
// it through the same apply engine the coordinator's loopback path uses
// (internal/applyengine, seeded from the Welcome frame), and answers
// with the result digest so the coordinator can verify the remote apply
// before committing the generation. -token presents a bearer token in
// the Hello frame; -tls-ca (or -tls-insecure, for tests) dials the
// coordinator over TLS.
//
// The process exits 0 when the coordinator ends the run with a clean
// Bye, and non-zero on a refused handshake (bad shard id, version skew,
// bad token).
package main

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"flag"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"celestial/internal/applyengine"
	"celestial/internal/hostlink"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one command line and returns its exit status: 0 after a
// clean Bye or an interrupt, 1 when the run fails and 2 for flags no run
// can honour. -crash-after-gens exits on its own, with status 3. It takes
// stdout like every command's run, but the agent writes only log lines,
// all to stderr.
func run(args []string, _, stderr io.Writer) int {
	fs := flag.NewFlagSet("celestial-agent", flag.ContinueOnError)
	fs.SetOutput(stderr)
	coordinator := fs.String("coordinator", "", "coordinator agent-listener address (host:port)")
	agent := fs.Int("agent", -1, "shard id this agent owns")
	reconnect := fs.Duration("reconnect", 500*time.Millisecond, "wait between redial attempts")
	crashAfter := fs.Uint64("crash-after-gens", 0, "exit hard (status 3, no Bye) once the replica has applied this generation — agent-loss testing; a restarted agent resyncs and rejoins")
	apply := fs.Bool("apply", false, "request authoritative remote apply: answer the coordinator's Propose frames through the shared apply engine")
	token := fs.String("token", "", "bearer token presented in the Hello frame (required when the coordinator runs with -agents-token)")
	tlsCA := fs.String("tls-ca", "", "dial the coordinator over TLS, trusting the PEM roots in this file")
	tlsInsecure := fs.Bool("tls-insecure", false, "dial the coordinator over TLS without verifying its certificate (tests only)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *coordinator == "" || *agent < 0 {
		fs.Usage()
		return 2
	}
	lg := log.New(stderr, "", log.LstdFlags)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	a := &hostlink.Agent{
		ID:            *agent,
		Addr:          *coordinator,
		Replica:       hostlink.NewReplica(),
		ReconnectWait: *reconnect,
		Token:         *token,
		Logf:          lg.Printf,
	}
	if *apply {
		// The engine construction is the same one the coordinator's
		// loopback path uses — only the Backend differs — so both
		// executions of a generation produce the same commit digest.
		a.Apply = true
		a.NewApplier = func(shard int, seed int64) hostlink.ResultApplier {
			return applyengine.New(applyengine.Config{
				Shard:   shard,
				Backend: &applyengine.ReplicaBackend{},
				Seed:    seed,
			})
		}
	}
	switch {
	case *tlsCA != "":
		pem, err := os.ReadFile(*tlsCA)
		if err != nil {
			lg.Printf("celestial-agent %d: -tls-ca: %v", *agent, err)
			return 1
		}
		roots := x509.NewCertPool()
		if !roots.AppendCertsFromPEM(pem) {
			lg.Printf("celestial-agent %d: -tls-ca: no certificates in %s", *agent, *tlsCA)
			return 1
		}
		host, _, err := net.SplitHostPort(*coordinator)
		if err != nil {
			host = *coordinator
		}
		a.TLS = &tls.Config{RootCAs: roots, ServerName: host}
	case *tlsInsecure:
		a.TLS = &tls.Config{InsecureSkipVerify: true}
	}

	if *crashAfter > 0 {
		// The kill is keyed on applied generations, not wall clock, so the
		// CI kill/rejoin leg lands at the same run point every time.
		go func() {
			for {
				if gen, _ := a.Replica.Cursor(); gen >= *crashAfter {
					lg.Printf("celestial-agent %d: crashing at generation %d as requested", *agent, gen)
					os.Exit(3)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}()
	}
	if err := a.Run(ctx); err != nil {
		if ctx.Err() != nil {
			lg.Printf("celestial-agent %d: interrupted", *agent)
			return 0
		}
		lg.Printf("celestial-agent %d: %v", *agent, err)
		return 1
	}
	active, inactive, links, frames, snapshots := a.Replica.Counts()
	gen, digest := a.Replica.Cursor()
	st := a.Stats()
	lg.Printf("celestial-agent %d: run complete at generation %d (digest %016x): %d active, %d inactive, %d links via %d frames + %d snapshots; %d applies (%d errors), %d commits (%d mismatches), %d reassigns",
		*agent, gen, digest, active, inactive, links, frames, snapshots,
		st.Applies, st.ApplyErrors, st.Commits, st.CommitMismatches, st.Reassigns)
	return 0
}
