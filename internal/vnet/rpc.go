package vnet

import (
	"errors"
	"fmt"
	"time"
)

// RPC layers request/response semantics over the datagram Network:
// requests carry correlation IDs, responses are routed back to per-request
// callbacks, and outstanding requests fail with ErrTimeout when no
// response arrives in time. Application services like the §4 tracking
// service ("periodically checks the satellites in reach of our clients and
// instructs them") are naturally request/response; this helper removes the
// correlation boilerplate from every application.
type RPC struct {
	net  *Network
	sim  *Sim
	node int

	nextID   uint64
	pending  map[uint64]func(Response)
	handler  func(Request) (any, int)
	respSize int
}

// Request is an incoming RPC request.
type Request struct {
	From    int
	Payload any
	// id correlates the response.
	id uint64
}

// Response is the outcome of an RPC.
type Response struct {
	// Err is non-nil on timeout or send failure.
	Err     error
	From    int
	Payload any
	// RTT is the request/response round-trip time.
	RTT time.Duration
}

// ErrTimeout is reported when no response arrives within the deadline.
var ErrTimeout = errors.New("vnet: rpc timeout")

// rpcEnvelope is the wire payload.
type rpcEnvelope struct {
	id         uint64
	isResponse bool
	payload    any
}

// NewRPC attaches RPC semantics to a node. It registers the node's message
// handler on the network; a node using RPC must not also call
// Network.Handle directly.
func NewRPC(network *Network, sim *Sim, node int) *RPC {
	r := &RPC{
		net: network, sim: sim, node: node,
		pending: map[uint64]func(Response){},
	}
	network.Handle(node, r.onMessage)
	return r
}

// HandleRequests installs the server-side handler: fn returns the response
// payload and its size in bytes.
func (r *RPC) HandleRequests(fn func(Request) (payload any, sizeBytes int)) {
	r.handler = fn
}

// Call sends a request of the given size. When it returns nil, done is
// invoked exactly once: with the response, or with ErrTimeout after the
// deadline. When the timeout is not positive or the send fails, Call
// returns the error and done is never invoked; nothing stays outstanding.
// Must be called from the simulation goroutine.
func (r *RPC) Call(to int, sizeBytes int, payload any, timeout time.Duration, done func(Response)) error {
	if timeout <= 0 {
		return fmt.Errorf("vnet: rpc timeout must be positive, have %v", timeout)
	}
	r.nextID++
	id := r.nextID
	sent := r.sim.Now()

	if err := r.net.Send(r.node, to, sizeBytes, rpcEnvelope{id: id, payload: payload}); err != nil {
		return err
	}
	r.pending[id] = func(resp Response) {
		resp.RTT = r.sim.Now().Sub(sent)
		done(resp)
	}
	return r.sim.After(timeout, func() {
		cb, ok := r.pending[id]
		if !ok {
			return // already answered
		}
		delete(r.pending, id)
		cb(Response{Err: fmt.Errorf("%w: request %d to node %d after %v", ErrTimeout, id, to, timeout)})
	})
}

// Pending returns the number of outstanding requests.
func (r *RPC) Pending() int { return len(r.pending) }

// onMessage dispatches incoming envelopes.
func (r *RPC) onMessage(m Message) {
	env, ok := m.Payload.(rpcEnvelope)
	if !ok {
		return // non-RPC traffic is ignored
	}
	if env.isResponse {
		cb, ok := r.pending[env.id]
		if !ok {
			return // response after timeout
		}
		delete(r.pending, env.id)
		cb(Response{From: m.From, Payload: env.payload})
		return
	}
	if r.handler == nil {
		return // no server installed: request is dropped
	}
	respPayload, size := r.handler(Request{From: m.From, Payload: env.payload, id: env.id})
	// Response delivery failures behave like network loss.
	_ = r.net.Send(r.node, m.From, size, rpcEnvelope{id: env.id, isResponse: true, payload: respPayload})
}
