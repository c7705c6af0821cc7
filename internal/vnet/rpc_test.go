package vnet

import (
	"errors"
	"testing"
	"time"

	"celestial/internal/netem"
)

func rpcPair(t *testing.T, latencyS float64) (*Sim, *RPC, *RPC) {
	t.Helper()
	s := NewSim(simStart)
	n := NewNetwork(s, twoNodeTopo(latencyS, 0), 1)
	return s, NewRPC(n, s, 0), NewRPC(n, s, 1)
}

func TestRPCRoundTrip(t *testing.T) {
	s, client, server := rpcPair(t, 0.005)
	server.HandleRequests(func(req Request) (any, int) {
		if req.Payload != "ping" || req.From != 0 {
			t.Errorf("request = %+v", req)
		}
		return "pong", 100
	})
	var got Response
	called := 0
	err := client.Call(1, 100, "ping", time.Second, func(r Response) {
		got = r
		called++
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(simStart.Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if called != 1 {
		t.Fatalf("callback invoked %d times", called)
	}
	if got.Err != nil || got.Payload != "pong" || got.From != 1 {
		t.Errorf("response = %+v", got)
	}
	// RTT is two 5 ms legs.
	if got.RTT != 10*time.Millisecond {
		t.Errorf("rtt = %v", got.RTT)
	}
	if client.Pending() != 0 {
		t.Errorf("pending = %d", client.Pending())
	}
}

func TestRPCTimeout(t *testing.T) {
	s, client, server := rpcPair(t, 0.005)
	// Server installed but the response is lost: make the network fully
	// lossy after the request is delivered by never installing a
	// handler at all.
	_ = server // no HandleRequests: requests are dropped
	var got Response
	err := client.Call(1, 100, "ping", 100*time.Millisecond, func(r Response) { got = r })
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(simStart.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(got.Err, ErrTimeout) {
		t.Errorf("err = %v", got.Err)
	}
	if client.Pending() != 0 {
		t.Errorf("pending = %d", client.Pending())
	}
}

func TestRPCLateResponseIgnored(t *testing.T) {
	// Latency 80 ms per leg, timeout 100 ms: the response arrives at
	// 160 ms, after the timeout fired. The callback must run exactly
	// once (with the timeout).
	s, client, server := rpcPair(t, 0.080)
	server.HandleRequests(func(Request) (any, int) { return "late", 10 })
	calls := 0
	var last Response
	err := client.Call(1, 10, "ping", 100*time.Millisecond, func(r Response) {
		calls++
		last = r
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(simStart.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("callback ran %d times", calls)
	}
	if !errors.Is(last.Err, ErrTimeout) {
		t.Errorf("err = %v", last.Err)
	}
}

func TestRPCConcurrentRequestsCorrelate(t *testing.T) {
	s, client, server := rpcPair(t, 0.010)
	server.HandleRequests(func(req Request) (any, int) {
		return req.Payload.(int) * 2, 50
	})
	results := map[int]int{}
	for i := 1; i <= 5; i++ {
		i := i
		if err := client.Call(1, 50, i, time.Second, func(r Response) {
			if r.Err != nil {
				t.Errorf("request %d: %v", i, r.Err)
				return
			}
			results[i] = r.Payload.(int)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RunUntil(simStart.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if results[i] != 2*i {
			t.Errorf("results[%d] = %d", i, results[i])
		}
	}
}

func TestRPCSendErrorSurfacesImmediately(t *testing.T) {
	s := NewSim(simStart)
	n := NewNetwork(s, StaticTopology{Latency: map[int]map[int]float64{}}, 1)
	client := NewRPC(n, s, 0)
	NewRPC(n, s, 1)
	called := 0
	done := func(Response) { called++ }
	if err := client.Call(1, 10, "x", time.Second, done); !errors.Is(err, ErrUnreachable) {
		t.Errorf("err = %v", err)
	}
	if err := client.Call(1, 10, "x", 0, done); err == nil {
		t.Error("accepted zero timeout")
	}
	// A failed Call is reported by its return value alone: nothing is
	// left outstanding and no timeout is armed, so done never runs.
	if client.Pending() != 0 || s.pq.Len() != 0 {
		t.Errorf("after failed calls: %d requests outstanding, %d events queued", client.Pending(), s.pq.Len())
	}
	drain(s)
	if called != 0 {
		t.Errorf("done ran %d times for calls that returned an error", called)
	}
}

func TestRPCRequestLostInNetwork(t *testing.T) {
	s := NewSim(simStart)
	n := NewNetwork(s, twoNodeTopo(0.001, 0), 1)
	if err := n.SetImpairments(netem.Params{LossProb: 1}); err != nil {
		t.Fatal(err)
	}
	client := NewRPC(n, s, 0)
	srv := NewRPC(n, s, 1)
	srv.HandleRequests(func(Request) (any, int) { return "ok", 10 })
	var got Response
	if err := client.Call(1, 10, "x", 50*time.Millisecond, func(r Response) { got = r }); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(simStart.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(got.Err, ErrTimeout) {
		t.Errorf("err = %v", got.Err)
	}
}

func TestRPCIgnoresForeignTraffic(t *testing.T) {
	s := NewSim(simStart)
	n := NewNetwork(s, twoNodeTopo(0.001, 0), 1)
	server := NewRPC(n, s, 1)
	server.HandleRequests(func(Request) (any, int) {
		t.Error("handler ran for non-RPC message")
		return nil, 0
	})
	n.Handle(0, func(Message) {})
	if err := n.Send(0, 1, 10, "plain datagram"); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(simStart.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
}
