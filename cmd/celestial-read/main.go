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
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"celestial/internal/httpapi/middleware"
	"celestial/internal/readpath"
)

func main() {
	upstream := flag.String("upstream", "", "base URL of the upstream information server (e.g. http://127.0.0.1:8080)")
	listen := flag.String("listen", ":8090", "TCP address the first replica serves on; replica i serves on port+i, or on its own ephemeral port when the port is 0")
	replicas := flag.Int("replicas", 1, "number of in-process replicas (consecutive ports from -listen)")
	upstreamAuth := flag.String("upstream-auth", "", "bearer token presented on upstream requests")
	httpAuth := flag.String("http-auth", "", "bearer token required on this replica's requests (empty disables auth)")
	httpRate := flag.String("http-rate", "", "per-client rate limit, \"<rps>\" or \"<rps>:<burst>\" (empty disables)")
	httpLog := flag.Bool("http-log", false, "log one line per request")
	retention := flag.Int("retention", 0, "generations of diff frames retained for this replica's own /diff subscribers (0: hostlink.DefaultRetention, 64)")
	reconnect := flag.Duration("reconnect", time.Second, "wait between upstream reconnect attempts")
	flag.Parse()

	if *upstream == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *replicas < 1 {
		log.Fatalf("celestial-read: -replicas %d: want at least 1", *replicas)
	}
	host, portStr, err := net.SplitHostPort(*listen)
	if err != nil {
		log.Fatalf("celestial-read: -listen %q: %v", *listen, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		log.Fatalf("celestial-read: -listen %q: non-numeric port", *listen)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	for i := 0; i < *replicas; i++ {
		r, err := readpath.New(readpath.Options{
			Upstream:      *upstream,
			UpstreamAuth:  *upstreamAuth,
			Retention:     *retention,
			ReconnectWait: *reconnect,
			Logf:          log.Printf,
		})
		if err != nil {
			log.Fatalf("celestial-read: %v", err)
		}
		addr := replicaAddr(host, port, i)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			log.Fatalf("celestial-read: listener %s: %v", addr, err)
		}
		defer ln.Close()
		h, err := middleware.Deploy(r, *httpAuth, *httpRate, *httpLog, log.Printf)
		if err != nil {
			log.Fatalf("celestial-read: -http-rate: %v", err)
		}
		go func() {
			if err := http.Serve(ln, h); err != nil && ctx.Err() == nil {
				log.Printf("celestial-read: http server %s: %v", addr, err)
			}
		}()
		go func(i int) {
			if err := r.Run(ctx); err != nil && ctx.Err() == nil {
				log.Printf("celestial-read: replica %d follow loop: %v", i, err)
			}
		}(i)
		log.Printf("replica %d: serving http://%s/v1/info, following %s", i, ln.Addr(), *upstream)
	}

	<-ctx.Done()
	fmt.Fprintln(os.Stderr, "celestial-read: shutting down")
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
