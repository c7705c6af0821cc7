package vnet

import (
	"fmt"
	"net"
	"strconv"
	"strings"
)

// Addressing scheme. Celestial computes virtual interface addresses from
// the satellite identity so that applications never need to manage an IP
// plan; this package uses the analogous scheme:
//
//	satellites:      10.(shell+1).(sat / 256).(sat % 256)
//	ground stations: 10.0.(gst / 256).(gst % 256)
//
// and DNS names (resolved by the dns package):
//
//	satellites:      <sat>.<shell>.celestial        e.g. 878.0.celestial
//	ground stations: <name>.gst.celestial           e.g. accra.gst.celestial
//
// The paper's example — "applications can simply query the A records for,
// e.g., 878.0.celestial to get the network addresses of satellite 878 in
// the first shell" — works verbatim against this scheme.

// DNSZone is the pseudo-TLD of the testbed.
const DNSZone = "celestial"

// maxPerShell is the largest satellite index the scheme can encode.
const maxPerShell = 65536

// SatIP returns the virtual IP of a satellite.
func SatIP(shell, sat int) (net.IP, error) {
	if shell < 0 || shell > 254 {
		return nil, fmt.Errorf("vnet: shell %d outside [0, 254]", shell)
	}
	if sat < 0 || sat >= maxPerShell {
		return nil, fmt.Errorf("vnet: satellite %d outside [0, %d)", sat, maxPerShell)
	}
	return net.IPv4(10, byte(shell+1), byte(sat/256), byte(sat%256)), nil
}

// GSTIP returns the virtual IP of a ground station by index.
func GSTIP(gst int) (net.IP, error) {
	if gst < 0 || gst >= maxPerShell {
		return nil, fmt.Errorf("vnet: ground station %d outside [0, %d)", gst, maxPerShell)
	}
	return net.IPv4(10, 0, byte(gst/256), byte(gst%256)), nil
}

// SatName returns the DNS name of a satellite, e.g. "878.0.celestial".
func SatName(shell, sat int) string {
	return fmt.Sprintf("%d.%d.%s", sat, shell, DNSZone)
}

// ParseSatRef parses the short "<sat>.<shell>" satellite reference (e.g.
// "878.0") used by scenario files, the HTTP information service and
// Testbed.NodeByName (all through constellation.NodeByRef). Both fields
// must be bare non-negative decimal integers: no sign, no whitespace, no
// trailing junk — "3.2junk", "878.0.5" or "-1.0" do not parse.
func ParseSatRef(ref string) (sat, shell int, ok bool) {
	satStr, shellStr, found := strings.Cut(ref, ".")
	if !found {
		return 0, 0, false
	}
	if sat, ok = ParseIndex(satStr); !ok {
		return 0, 0, false
	}
	shell, ok = ParseIndex(shellStr)
	return sat, shell, ok
}

// ParseIndex parses a bare non-negative decimal integer — the strict form
// of a lone shell or satellite index in node references and API paths (no
// sign, no whitespace; strconv.Atoi would accept "+5" and "-5"). Leading
// zeros are rejected too ("007" is not "7"): every index has exactly one
// valid spelling, so response caches keyed on reference strings cannot be
// flooded with alias spellings of the same node.
func ParseIndex(s string) (int, bool) {
	if s == "" || (len(s) > 1 && s[0] == '0') {
		return 0, false
	}
	for _, r := range s {
		if r < '0' || r > '9' {
			return 0, false
		}
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, false // overflow
	}
	return n, true
}

// ParseName decodes a testbed DNS name. It returns (shell, sat, "") for
// satellite names and (-1, 0, gstName) for ground-station names. Trailing
// dots are accepted.
func ParseName(name string) (shell, sat int, gst string, err error) {
	name = strings.TrimSuffix(strings.ToLower(name), ".")
	parts := strings.Split(name, ".")
	if len(parts) != 3 || parts[2] != DNSZone {
		return 0, 0, "", fmt.Errorf("vnet: %q is not a <x>.<y>.%s name", name, DNSZone)
	}
	if parts[1] == "gst" {
		if parts[0] == "" {
			return 0, 0, "", fmt.Errorf("vnet: empty ground station name in %q", name)
		}
		return -1, 0, parts[0], nil
	}
	sat, err = strconv.Atoi(parts[0])
	if err != nil {
		return 0, 0, "", fmt.Errorf("vnet: bad satellite index in %q: %w", name, err)
	}
	shell, err = strconv.Atoi(parts[1])
	if err != nil {
		return 0, 0, "", fmt.Errorf("vnet: bad shell index in %q: %w", name, err)
	}
	if shell < 0 || sat < 0 {
		return 0, 0, "", fmt.Errorf("vnet: negative indices in %q", name)
	}
	return shell, sat, "", nil
}
