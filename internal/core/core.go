// Package core assembles the complete Celestial testbed: the coordinator
// (constellation calculation, hosts, machines, virtual network), the
// per-host DNS service and the HTTP information API, behind a single
// Testbed type. The root celestial package re-exports this as the public
// entry point.
package core

import (
	"net"
	"net/http"
	"time"

	"celestial/internal/config"
	"celestial/internal/constellation"
	"celestial/internal/coordinator"
	"celestial/internal/dns"
	"celestial/internal/faults"
	"celestial/internal/host"
	"celestial/internal/httpapi"
	"celestial/internal/machine"
	"celestial/internal/vnet"
)

// Testbed is one fully wired Celestial emulation.
type Testbed struct {
	coord    *coordinator.Coordinator
	resolver *dns.Resolver
	dnsSrv   *dns.Server
	api      *httpapi.Server
}

// NewTestbed builds a testbed from a finalized configuration. Call Start
// to boot machines and begin the update loop.
func NewTestbed(cfg *config.Config) (*Testbed, error) {
	coord, err := coordinator.New(cfg, coordinator.Options{})
	if err != nil {
		return nil, err
	}
	resolver := dns.NewResolver(coord.Constellation())
	return &Testbed{
		coord:    coord,
		resolver: resolver,
		dnsSrv:   dns.NewServer(resolver),
		api:      httpapi.New(coord),
	}, nil
}

// Coordinator exposes the underlying coordinator.
func (t *Testbed) Coordinator() *coordinator.Coordinator { return t.coord }

// Constellation exposes the constellation.
func (t *Testbed) Constellation() *constellation.Constellation {
	return t.coord.Constellation()
}

// Config returns the testbed configuration.
func (t *Testbed) Config() *config.Config { return t.coord.Config() }

// Sim returns the simulation engine driving the testbed.
func (t *Testbed) Sim() *vnet.Sim { return t.coord.Sim() }

// Network returns the virtual network between machines.
func (t *Testbed) Network() *vnet.Network { return t.coord.Network() }

// Hosts returns the emulated hosts.
func (t *Testbed) Hosts() []*host.Host { return t.coord.Hosts() }

// Resolver returns the testbed DNS resolver.
func (t *Testbed) Resolver() *dns.Resolver { return t.resolver }

// Machine returns the machine emulating a node.
func (t *Testbed) Machine(node int) (*machine.Machine, error) {
	return t.coord.Machine(node)
}

// State returns the latest constellation state (nil before Start). The
// snapshot pool reuses a state's buffers as soon as an update replaces it
// and no lease holds it: the returned value is valid within the current
// simulation callback or between Run calls, but must not be retained
// across further Run progress or read from another goroutine — use
// LeaseState for that.
func (t *Testbed) State() *constellation.State { return t.coord.State() }

// LeaseState returns the latest constellation state (nil before Start)
// with a hold on it in the snapshot pool, plus a release function that
// drops the hold: call it once when done (further calls do nothing). Use
// this to read the state from another goroutine or to keep it while the
// emulation advances.
func (t *Testbed) LeaseState() (*constellation.State, func()) {
	st, _, release := t.coord.LeaseState()
	return st, release
}

// Start boots all machines, performs the first constellation update, and
// begins the periodic update loop.
func (t *Testbed) Start() error { return t.coord.Start() }

// Run advances the emulation by d in virtual time.
func (t *Testbed) Run(d time.Duration) error { return t.coord.Run(d) }

// RunToEnd advances the emulation to the configured experiment duration.
func (t *Testbed) RunToEnd() error {
	remaining := t.Config().Duration - time.Duration(t.coord.ElapsedSeconds()*float64(time.Second))
	if remaining <= 0 {
		return nil
	}
	return t.coord.Run(remaining)
}

// ElapsedSeconds returns the virtual time since the epoch.
func (t *Testbed) ElapsedSeconds() float64 { return t.coord.ElapsedSeconds() }

// InjectFaults schedules radiation fault injection on all satellite
// machines for the remaining experiment time.
func (t *Testbed) InjectFaults(model faults.SEUModel, seed int64) error {
	return t.coord.InjectFaults(model, seed)
}

// NodeByName resolves a node reference: a ground-station name ("accra"),
// a satellite "SAT.SHELL" pair ("878.0"), or their DNS forms
// ("878.0.celestial", "accra.gst.celestial").
func (t *Testbed) NodeByName(name string) (int, error) {
	cons := t.coord.Constellation()
	id, err := cons.NodeByRef(name)
	if err == nil {
		return id, nil
	}
	if shell, sat, gst, dnsErr := vnet.ParseName(name); dnsErr == nil {
		if gst != "" {
			return cons.GSTNodeByName(gst)
		}
		return cons.SatNode(shell, sat)
	}
	return 0, err
}

// ServeDNS answers testbed DNS queries on a UDP socket until it is closed.
// Run it in its own goroutine for interactive use.
func (t *Testbed) ServeDNS(conn net.PacketConn) error {
	return t.dnsSrv.Serve(conn)
}

// DNSServer returns the wire-format DNS server (for custom transports).
func (t *Testbed) DNSServer() *dns.Server { return t.dnsSrv }

// API returns the HTTP information service handler ("/info", "/shell/...",
// "/gst/...", "/path/...", plus the "/diff" topology-delta feed), ready to
// mount on any HTTP server.
func (t *Testbed) API() http.Handler { return t.api }

// RPC attaches request/response semantics to a node's network endpoint
// (see vnet.RPC). The node must not also register a plain handler.
func (t *Testbed) RPC(node int) *vnet.RPC {
	return vnet.NewRPC(t.Network(), t.Sim(), node)
}
