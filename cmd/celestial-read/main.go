// Command celestial-read runs read replicas of the information service:
// read-only servers that follow a coordinator's (or another replica's)
// /diff stream and serve the identical /v1 route table from their own
// cache, so read capacity scales horizontally with zero added coordinator
// load.
//
// Usage:
//
//	celestial-read -upstream http://coordinator:8080 -listen :8090
//	celestial-read -upstream http://coordinator:8080 -listen :8090 -replicas 3
//	celestial-read -upstream ... -listen :8090 -http-auth secret -http-rate 100:200
//
// With -replicas N, N in-process replicas are served on consecutive ports
// starting at -listen, or each on its own ephemeral port when -listen's
// port is 0 (an in-process multi-replica smoke deployment; real
// deployments run one process per host). Each replica follows the
// upstream independently over the compact binary diff framing, reconnects
// with backoff when the stream drops, and resyncs from the upstream's
// head when its cursor falls off the upstream's retention ring — replica
// responses are byte-identical to the upstream's at every generation.
//
// The same HTTP policy middleware as the coordinator's server wraps every
// replica: -http-auth and -http-rate guard the replica's own clients, and
// -upstream-auth presents a bearer token to a guarded upstream.
package main

import (
	"context"
	"errors"
	"flag"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"time"

	"celestial/internal/httpapi/middleware"
	"celestial/internal/readpath"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one command line and returns its exit status: 0 after an
// interrupt, 1 when a listener cannot be opened and 2 for flags no run can
// honour (readpath.New refuses only a malformed -upstream URL). It takes
// stdout like every command's run, but the replicas write only log lines,
// all to stderr. On return every replica's listener is closed and its
// goroutines have exited.
func run(args []string, _, stderr io.Writer) int {
	fs := flag.NewFlagSet("celestial-read", flag.ContinueOnError)
	fs.SetOutput(stderr)
	upstream := fs.String("upstream", "", "base URL of the upstream information server (e.g. http://127.0.0.1:8080)")
	listen := fs.String("listen", ":8090", "TCP address the first replica serves on; replica i serves on port+i, or on its own ephemeral port when the port is 0")
	replicas := fs.Int("replicas", 1, "number of in-process replicas (consecutive ports from -listen)")
	upstreamAuth := fs.String("upstream-auth", "", "bearer token presented on upstream requests")
	httpAuth := fs.String("http-auth", "", "bearer token required on this replica's requests (empty disables auth)")
	httpRate := fs.String("http-rate", "", "per-client rate limit, \"<rps>\" or \"<rps>:<burst>\" (empty disables)")
	httpLog := fs.Bool("http-log", false, "log one line per request")
	retention := fs.Int("retention", 0, "generations of diff frames retained for this replica's own /diff subscribers (0: hostlink.DefaultRetention, 64)")
	reconnect := fs.Duration("reconnect", time.Second, "wait between upstream reconnect attempts")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *upstream == "" {
		fs.Usage()
		return 2
	}
	lg := log.New(stderr, "", log.LstdFlags)
	if *replicas < 1 {
		lg.Printf("celestial-read: -replicas %d: want at least 1", *replicas)
		return 2
	}
	host, portStr, err := net.SplitHostPort(*listen)
	if err != nil {
		lg.Printf("celestial-read: -listen %q: %v", *listen, err)
		return 2
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		lg.Printf("celestial-read: -listen %q: non-numeric port", *listen)
		return 2
	}

	// Deferred in this order so that on return the listeners close
	// first, then the follow loops are cancelled, then both are waited
	// for.
	var wg sync.WaitGroup
	defer wg.Wait()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	for i := 0; i < *replicas; i++ {
		r, err := readpath.New(readpath.Options{
			Upstream:      *upstream,
			UpstreamAuth:  *upstreamAuth,
			Retention:     *retention,
			ReconnectWait: *reconnect,
			Logf:          lg.Printf,
		})
		if err != nil {
			lg.Printf("celestial-read: %v", err)
			return 2
		}
		h, err := middleware.Deploy(r, *httpAuth, *httpRate, *httpLog, lg.Printf)
		if err != nil {
			lg.Printf("celestial-read: -http-rate: %v", err)
			return 2
		}
		addr := replicaAddr(host, port, i)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			lg.Printf("celestial-read: listener %s: %v", addr, err)
			return 1
		}
		defer ln.Close()
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := http.Serve(ln, h); err != nil && !errors.Is(err, net.ErrClosed) {
				lg.Printf("celestial-read: http server %s: %v", addr, err)
			}
		}()
		go func(i int) {
			defer wg.Done()
			if err := r.Run(ctx); err != nil && ctx.Err() == nil {
				lg.Printf("celestial-read: replica %d follow loop: %v", i, err)
			}
		}(i)
		lg.Printf("replica %d: serving http://%s/v1/info, following %s", i, ln.Addr(), *upstream)
	}

	<-ctx.Done()
	lg.Printf("celestial-read: shutting down")
	return 0
}

// replicaAddr is the listen address of replica i when the first listens on
// host:port. Port 0 asks the kernel for an ephemeral port, so every replica
// asks again instead of taking port i.
func replicaAddr(host string, port, i int) string {
	if port == 0 {
		return net.JoinHostPort(host, "0")
	}
	return net.JoinHostPort(host, strconv.Itoa(port+i))
}
