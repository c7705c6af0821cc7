package dns

import (
	"errors"
	"net"
	"testing"
	"time"
)

// fakeDir is a Directory with one 2-shell constellation and two ground
// stations.
type fakeDir struct{}

func (fakeDir) SatExists(shell, sat int) bool {
	switch shell {
	case 0:
		return sat >= 0 && sat < 1584
	case 1:
		return sat >= 0 && sat < 66
	default:
		return false
	}
}

func (fakeDir) GSTIndex(name string) (int, bool) {
	switch name {
	case "accra":
		return 0, true
	case "johannesburg":
		return 1, true
	default:
		return 0, false
	}
}

func TestResolve(t *testing.T) {
	r := NewResolver(fakeDir{})
	ip, err := r.Resolve("878.0.celestial")
	if err != nil {
		t.Fatal(err)
	}
	if !ip.Equal(net.IPv4(10, 1, 3, 110)) {
		t.Errorf("ip = %v", ip)
	}
	gip, err := r.Resolve("accra.gst.celestial")
	if err != nil {
		t.Fatal(err)
	}
	if !gip.Equal(net.IPv4(10, 0, 0, 0)) {
		t.Errorf("gst ip = %v", gip)
	}
	if _, err := r.Resolve("9999.0.celestial"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing sat error = %v", err)
	}
	if _, err := r.Resolve("0.7.celestial"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing shell error = %v", err)
	}
	if _, err := r.Resolve("atlantis.gst.celestial"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing gst error = %v", err)
	}
	if _, err := r.Resolve("not-a-name"); err == nil {
		t.Error("accepted junk name")
	}
}

func TestQueryResponseRoundTrip(t *testing.T) {
	srv := NewServer(NewResolver(fakeDir{}))
	query, err := BuildQuery(42, "878.0.celestial")
	if err != nil {
		t.Fatal(err)
	}
	resp := srv.HandleQuery(query)
	if resp == nil {
		t.Fatal("no response")
	}
	rcode, ips, err := ParseResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	if rcode != rcodeNoError {
		t.Fatalf("rcode = %d", rcode)
	}
	if len(ips) != 1 || !ips[0].Equal(net.IPv4(10, 1, 3, 110)) {
		t.Errorf("ips = %v", ips)
	}
}

func TestNXDomain(t *testing.T) {
	srv := NewServer(NewResolver(fakeDir{}))
	query, err := BuildQuery(1, "12345.0.celestial")
	if err != nil {
		t.Fatal(err)
	}
	rcode, ips, err := ParseResponse(srv.HandleQuery(query))
	if err != nil {
		t.Fatal(err)
	}
	if rcode != rcodeNXDomain || len(ips) != 0 {
		t.Errorf("rcode = %d, ips = %v", rcode, ips)
	}
}

func TestMalformedQueries(t *testing.T) {
	srv := NewServer(NewResolver(fakeDir{}))
	if resp := srv.HandleQuery([]byte{1, 2, 3}); resp != nil {
		t.Error("responded to truncated packet")
	}
	// A response packet must not be answered (loop prevention).
	query, _ := BuildQuery(7, "1.0.celestial")
	resp := srv.HandleQuery(query)
	if again := srv.HandleQuery(resp); again != nil {
		t.Error("responded to a response")
	}
	// Zero questions -> FORMERR.
	bad := make([]byte, 12)
	rcode, _, err := ParseResponse(srv.HandleQuery(bad))
	if err != nil || rcode != rcodeFormErr {
		t.Errorf("formerr rcode = %d, %v", rcode, err)
	}
}

func TestNonAQueryType(t *testing.T) {
	srv := NewServer(NewResolver(fakeDir{}))
	query, err := BuildQuery(9, "878.0.celestial")
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite QTYPE to AAAA (28).
	query[len(query)-3] = 28
	rcode, ips, err := ParseResponse(srv.HandleQuery(query))
	if err != nil {
		t.Fatal(err)
	}
	if rcode != rcodeNoError || len(ips) != 0 {
		t.Errorf("AAAA rcode = %d, ips = %v", rcode, ips)
	}
}

func TestBuildQueryValidation(t *testing.T) {
	if _, err := BuildQuery(1, "a..b"); err == nil {
		t.Error("accepted empty label")
	}
}

func TestServeOverUDP(t *testing.T) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(NewResolver(fakeDir{}))
	done := make(chan error, 1)
	go func() { done <- srv.Serve(conn) }()

	client, err := net.Dial("udp", conn.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	query, err := BuildQuery(99, "accra.gst.celestial")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write(query); err != nil {
		t.Fatal(err)
	}
	if err := client.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	n, err := client.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	rcode, ips, err := ParseResponse(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if rcode != rcodeNoError || len(ips) != 1 || !ips[0].Equal(net.IPv4(10, 0, 0, 0)) {
		t.Errorf("rcode = %d, ips = %v", rcode, ips)
	}

	// Closing the listener shuts the server down cleanly.
	conn.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Serve returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Error("Serve did not return after close")
	}
}

func TestParseResponseErrors(t *testing.T) {
	if _, _, err := ParseResponse([]byte{1}); err == nil {
		t.Error("accepted short response")
	}
	query, _ := BuildQuery(1, "1.0.celestial")
	if _, _, err := ParseResponse(query); err == nil {
		t.Error("accepted a query as response")
	}
}

func BenchmarkHandleQuery(b *testing.B) {
	srv := NewServer(NewResolver(fakeDir{}))
	query, err := BuildQuery(1, "878.0.celestial")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if srv.HandleQuery(query) == nil {
			b.Fatal("no response")
		}
	}
}

// FuzzHandleQuery feeds the server arbitrary packets. It must not panic;
// a packet it answers gets a response of at least a header that echoes the
// query's ID with QR set, and a NOERROR response parses.
func FuzzHandleQuery(f *testing.F) {
	for i, name := range []string{"878.0.celestial", "accra.gst.celestial", "12345.0.celestial"} {
		q, err := BuildQuery(uint16(i), name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(q)
	}
	aaaa, _ := BuildQuery(9, "878.0.celestial")
	aaaa[len(aaaa)-3] = 28
	f.Add(aaaa)
	f.Add(make([]byte, headerLen))
	f.Add([]byte{1, 2, 3})
	srv := NewServer(NewResolver(fakeDir{}))
	f.Fuzz(func(t *testing.T, query []byte) {
		resp := srv.HandleQuery(query)
		if resp == nil {
			return
		}
		if len(resp) < headerLen {
			t.Fatalf("%d-byte response", len(resp))
		}
		if resp[0] != query[0] || resp[1] != query[1] {
			t.Fatalf("response ID %x, query ID %x", resp[:2], query[:2])
		}
		if resp[2]&0x80 == 0 {
			t.Fatal("response without QR")
		}
		if resp[3]&0xf == rcodeNoError {
			if _, _, err := ParseResponse(resp); err != nil {
				t.Fatalf("NOERROR response does not parse: %v", err)
			}
		}
	})
}

// FuzzParseResponse feeds the client's response parser arbitrary packets,
// seeded with the server's own answers. It must not panic, and every
// address it returns is a 4-byte IPv4 address.
func FuzzParseResponse(f *testing.F) {
	srv := NewServer(NewResolver(fakeDir{}))
	for i, name := range []string{"878.0.celestial", "accra.gst.celestial", "12345.0.celestial"} {
		q, err := BuildQuery(uint16(i), name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(srv.HandleQuery(q))
	}
	aaaa, _ := BuildQuery(9, "878.0.celestial")
	aaaa[len(aaaa)-3] = 28
	f.Add(srv.HandleQuery(aaaa))
	f.Add(make([]byte, headerLen))
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, resp []byte) {
		_, ips, err := ParseResponse(resp)
		if err != nil && ips != nil {
			t.Fatalf("error %v with addresses %v", err, ips)
		}
		for _, ip := range ips {
			if len(ip) != 4 {
				t.Fatalf("%d-byte address %v", len(ip), ip)
			}
		}
	})
}
