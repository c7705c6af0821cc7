package config

import (
	"os"
	"strings"
	"testing"
	"time"

	"celestial/internal/bbox"
	"celestial/internal/orbit"
)

// paperConfig is a full configuration close to the §4.1 experiment setup.
const paperConfig = `
name = "meetup-west-africa"
duration = 600          # 10 minutes
resolution = 2          # coordinator update interval, seconds
hosts = 3
epoch = "2022-04-14T12:00:00Z"
bbox = [-5.0, -20.0, 25.0, 25.0]

[network_params]
bandwidth_kbits = 10_000_000  # 10 Gb/s ISLs and radio links
min_elevation = 40

[compute_params]
vcpu_count = 2
mem_size_mib = 512
boot_delay = 0.8

[[shell]]
name = "starlink-1"
planes = 72
sats = 22
altitude_km = 550
inclination = 53.0
arc_of_ascending_nodes = 360.0
model = "sgp4"

[[ground_station]]
name = "accra"
lat = 5.6037
long = -0.1870
[ground_station.compute_params]
vcpu_count = 4
mem_size_mib = 4096

[[ground_station]]
name = "abuja"
lat = 9.0765
long = 7.3986

[[ground_station]]
name = "johannesburg"
lat = -26.2041
long = 28.0473
`

func TestParsePaperConfig(t *testing.T) {
	cfg, err := Parse(strings.NewReader(paperConfig))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "meetup-west-africa" {
		t.Errorf("name = %q", cfg.Name)
	}
	if cfg.Duration != 10*time.Minute {
		t.Errorf("duration = %v", cfg.Duration)
	}
	if cfg.Resolution != 2*time.Second {
		t.Errorf("resolution = %v", cfg.Resolution)
	}
	if cfg.Hosts != 3 {
		t.Errorf("hosts = %d", cfg.Hosts)
	}
	if cfg.Epoch.Year() != 2022 || cfg.Epoch.Month() != 4 {
		t.Errorf("epoch = %v", cfg.Epoch)
	}
	if cfg.BoundingBox != (bbox.Box{LatMinDeg: -5, LonMinDeg: -20, LatMaxDeg: 25, LonMaxDeg: 25}) {
		t.Errorf("bbox = %v", cfg.BoundingBox)
	}
	if cfg.Network.BandwidthKbps != 10_000_000 {
		t.Errorf("bandwidth = %v", cfg.Network.BandwidthKbps)
	}
	if cfg.Network.MinElevationDeg != 40 {
		t.Errorf("min elevation = %v", cfg.Network.MinElevationDeg)
	}
	if len(cfg.Shells) != 1 {
		t.Fatalf("shells = %d", len(cfg.Shells))
	}
	s := cfg.Shells[0]
	if s.Planes != 72 || s.SatsPerPlane != 22 || s.AltitudeKm != 550 {
		t.Errorf("shell = %+v", s.ShellConfig)
	}
	if s.Model != orbit.ModelSGP4 {
		t.Errorf("model = %v", s.Model)
	}
	// Shell inherits global params.
	if s.Network.BandwidthKbps != 10_000_000 || s.Compute.VCPUs != 2 {
		t.Errorf("shell inherited params wrong: %+v %+v", s.Network, s.Compute)
	}
	if s.Compute.BootDelay != 800*time.Millisecond {
		t.Errorf("boot delay = %v", s.Compute.BootDelay)
	}
	if len(cfg.GroundStations) != 3 {
		t.Fatalf("ground stations = %d", len(cfg.GroundStations))
	}
	// Accra overrides compute; Abuja inherits.
	if cfg.GroundStations[0].Compute.VCPUs != 4 || cfg.GroundStations[0].Compute.MemMiB != 4096 {
		t.Errorf("accra compute = %+v", cfg.GroundStations[0].Compute)
	}
	if cfg.GroundStations[1].Compute.VCPUs != 2 {
		t.Errorf("abuja compute = %+v", cfg.GroundStations[1].Compute)
	}
	if cfg.TotalSatellites() != 1584 {
		t.Errorf("total satellites = %d", cfg.TotalSatellites())
	}
}

func TestParseMinimalConfigAppliesDefaults(t *testing.T) {
	cfg, err := Parse(strings.NewReader(`
[[shell]]
planes = 6
sats = 11
altitude_km = 780
inclination = 90
`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Duration != DefaultDuration {
		t.Errorf("duration = %v", cfg.Duration)
	}
	if cfg.Resolution != DefaultResolution {
		t.Errorf("resolution = %v", cfg.Resolution)
	}
	if cfg.BoundingBox != bbox.WholeEarth {
		t.Errorf("bbox = %v", cfg.BoundingBox)
	}
	if cfg.Hosts != 1 {
		t.Errorf("hosts = %d", cfg.Hosts)
	}
	if cfg.Epoch != DefaultEpoch {
		t.Errorf("epoch = %v", cfg.Epoch)
	}
	if cfg.Network.BandwidthKbps != DefaultBandwidthKbps {
		t.Errorf("bandwidth = %v", cfg.Network.BandwidthKbps)
	}
	if cfg.Network.GSTBandwidthKbps != DefaultBandwidthKbps {
		t.Errorf("gst bandwidth = %v", cfg.Network.GSTBandwidthKbps)
	}
	if cfg.Shells[0].Name != "shell-0" {
		t.Errorf("default shell name = %q", cfg.Shells[0].Name)
	}
	if cfg.Shells[0].Compute.VCPUs != DefaultVCPUs {
		t.Errorf("default vcpus = %d", cfg.Shells[0].Compute.VCPUs)
	}
}

func TestValidateRejections(t *testing.T) {
	base := func() *Config {
		return &Config{
			Shells: []Shell{{ShellConfig: orbit.ShellConfig{
				Planes: 6, SatsPerPlane: 11, AltitudeKm: 780, InclinationDeg: 90,
			}}},
		}
	}
	tests := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"no shells", func(c *Config) { c.Shells = nil }, "at least one shell"},
		{"bad shell", func(c *Config) { c.Shells[0].Planes = 0 }, "planes"},
		{"negative duration", func(c *Config) { c.Duration = -time.Second }, "duration"},
		{"resolution > duration", func(c *Config) { c.Resolution = time.Hour }, "resolution"},
		{"bad bbox", func(c *Config) { c.BoundingBox = bbox.Box{LatMinDeg: 50, LatMaxDeg: 10, LonMinDeg: 0, LonMaxDeg: 10} }, "latitude"},
		{"duplicate shells", func(c *Config) {
			c.Shells = append(c.Shells, c.Shells[0])
			c.Shells[0].Name = "x"
			c.Shells[1].Name = "x"
		}, "duplicate shell"},
		{"unnamed gst", func(c *Config) {
			c.GroundStations = []GroundStation{{}}
		}, "no name"},
		{"duplicate gst", func(c *Config) {
			c.GroundStations = []GroundStation{
				{Name: "a"}, {Name: "a"},
			}
		}, "duplicate ground station"},
		{"bad gst lat", func(c *Config) {
			c.GroundStations = []GroundStation{{Name: "a"}}
			c.GroundStations[0].Location.LatDeg = 120
		}, "latitude"},
		{"bad min elevation", func(c *Config) { c.Shells[0].Network.MinElevationDeg = 95 }, "elevation"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := base()
			tt.mutate(c)
			err := Finalize(c)
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Errorf("Finalize = %v, want error mentioning %q", err, tt.want)
			}
		})
	}
}

func TestGSTConnectionType(t *testing.T) {
	cfg, err := Parse(strings.NewReader(`
[network_params]
ground_station_connection_type = "one"
[[shell]]
planes = 6
sats = 11
altitude_km = 780
inclination = 90
`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Shells[0].Network.GSTConnectionType != "one" {
		t.Errorf("type = %q", cfg.Shells[0].Network.GSTConnectionType)
	}
	// Default is "all".
	def, err := Parse(strings.NewReader(`
[[shell]]
planes = 1
sats = 1
altitude_km = 550
inclination = 53
`))
	if err != nil {
		t.Fatal(err)
	}
	if def.Shells[0].Network.GSTConnectionType != "all" {
		t.Errorf("default type = %q", def.Shells[0].Network.GSTConnectionType)
	}
	// Invalid values are rejected.
	if _, err := Parse(strings.NewReader(`
[network_params]
ground_station_connection_type = "some"
[[shell]]
planes = 1
sats = 1
altitude_km = 550
inclination = 53
`)); err == nil || !strings.Contains(err.Error(), "connection type") {
		t.Errorf("err = %v", err)
	}
}

func TestFinalizeValidConfig(t *testing.T) {
	c := &Config{
		Shells: []Shell{{ShellConfig: orbit.ShellConfig{
			Planes: 6, SatsPerPlane: 11, AltitudeKm: 780, InclinationDeg: 90,
		}}},
		GroundStations: []GroundStation{{Name: "hawaii"}},
	}
	if err := Finalize(c); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if c.GroundStations[0].Compute.VCPUs != DefaultVCPUs {
		t.Error("ground station did not inherit compute defaults")
	}
}

func TestParseBadEpoch(t *testing.T) {
	_, err := Parse(strings.NewReader(`
epoch = "not a time"
[[shell]]
planes = 1
sats = 1
altitude_km = 550
inclination = 53
`))
	if err == nil || !strings.Contains(err.Error(), "epoch") {
		t.Errorf("err = %v", err)
	}
}

func TestParseBadBBoxLength(t *testing.T) {
	_, err := Parse(strings.NewReader(`
bbox = [1.0, 2.0]
[[shell]]
planes = 1
sats = 1
altitude_km = 550
inclination = 53
`))
	if err == nil || !strings.Contains(err.Error(), "bbox") {
		t.Errorf("err = %v", err)
	}
}

func TestParseBadModel(t *testing.T) {
	_, err := Parse(strings.NewReader(`
[[shell]]
planes = 1
sats = 1
altitude_km = 550
inclination = 53
model = "magic"
`))
	if err == nil || !strings.Contains(err.Error(), "model") {
		t.Errorf("err = %v", err)
	}
}

func TestEpochJulian(t *testing.T) {
	c := &Config{Epoch: time.Date(2000, 1, 1, 12, 0, 0, 0, time.UTC)}
	if jd := c.EpochJulian(); jd != 2451545.0 {
		t.Errorf("jd = %v", jd)
	}
}

func TestParseFileMissing(t *testing.T) {
	if _, err := ParseFile("/nonexistent/config.toml"); err == nil {
		t.Error("ParseFile accepted missing file")
	}
}

func TestParseFileRoundTrip(t *testing.T) {
	path := t.TempDir() + "/c.toml"
	if err := writeFile(path, paperConfig); err != nil {
		t.Fatal(err)
	}
	cfg, err := ParseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "meetup-west-africa" {
		t.Errorf("name = %q", cfg.Name)
	}
}

// writeFile is a tiny helper for file round-trip tests.
func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// TestParseStrict: a standalone config file is read as strictly as an
// inline [testbed] table — paths are relative to the file's root.
func TestParseStrict(t *testing.T) {
	const shell = "[[shell]]\nplanes = 1\nsats = 1\naltitude_km = 550\ninclination = 53\n"
	cases := map[string]struct{ doc, want string }{
		"unknown root key":    {"durration = 60\n" + shell, "toml: unknown key durration"},
		"unknown nested key":  {shell + "[shell.network_params]\nbandwith_kbits = 1\n", "toml: unknown key shell[0].network_params.bandwith_kbits"},
		"several, sorted":     {"zz = 1\naa = 2\n" + shell + "sat = 3\n", "toml: unknown key aa, zz, shell[0].sat"},
		"wrong type":          {shell + "[compute_params]\nmem_size_mib = \"512\"\n", "toml: compute_params.mem_size_mib must be an integer"},
		"type before unknown": {"durration = 60\nhosts = true\n" + shell, "toml: hosts must be an integer"},
		"overflowing seconds": {"duration = 1e30\n" + shell, "toml: duration does not fit a duration"},
		"non-finite":          {shell + "eccentricity = nan\n", "toml: shell[0].eccentricity must be finite"},
	}
	for name, tc := range cases {
		if _, err := Parse(strings.NewReader(tc.doc)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to contain %q", name, err, tc.want)
		}
	}
}
