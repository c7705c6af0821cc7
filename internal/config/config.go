// Package config defines the Celestial testbed configuration and its
// validator. To limit side effects and ensure repeatable testing, all
// parameters are passed within a single TOML configuration file (§3.1 of
// the paper): network parameters such as ISL bandwidth, compute parameters
// describing the resources of satellite and ground-station servers, orbital
// parameters per shell, and ground-station locations.
package config

import (
	"fmt"
	"io"
	"os"
	"time"

	"celestial/internal/bbox"
	"celestial/internal/geom"
	"celestial/internal/orbit"
	"celestial/internal/toml"
)

// Defaults mirroring the paper's experiment setups.
const (
	// DefaultResolution is the coordinator update interval (§4.1 uses
	// 2 s, §5.1 uses 5 s).
	DefaultResolution = 2 * time.Second
	// DefaultDuration is the experiment length (§4.1 runs 10 minutes).
	DefaultDuration = 10 * time.Minute
	// DefaultBandwidthKbps is the 10 Gb/s ISL and radio link bandwidth
	// assumed in §4.1.
	DefaultBandwidthKbps = 10_000_000
	// DefaultMinElevationDeg is the minimum elevation above the horizon
	// for ground-to-satellite links.
	DefaultMinElevationDeg = 30
	// DefaultVCPUs and DefaultMemMiB are the satellite server size used
	// in §4.1 (two vCPUs, 512 MiB).
	DefaultVCPUs  = 2
	DefaultMemMiB = 512
)

// NetworkParams are the link-level emulation parameters.
type NetworkParams struct {
	// BandwidthKbps is the capacity of ISLs.
	BandwidthKbps float64
	// GSTBandwidthKbps is the capacity of ground-to-satellite links;
	// defaults to BandwidthKbps when zero.
	GSTBandwidthKbps float64
	// MinElevationDeg is the minimum elevation above the horizon for a
	// ground station to use a satellite uplink.
	MinElevationDeg float64
	// AtmosphereCutoffKm is the altitude below which laser ISLs are
	// refracted and unavailable.
	AtmosphereCutoffKm float64
	// GSTConnectionType selects how many uplinks a ground station
	// gets: "all" (default) realizes a link to every visible
	// satellite so routing picks the best; "one" links only the
	// closest satellite, like a single-dish user terminal.
	GSTConnectionType string
}

// ComputeParams size the microVM of a satellite or ground-station server.
type ComputeParams struct {
	VCPUs int
	// MemMiB is the machine memory in MiB.
	MemMiB int
	// DiskMiB is the root filesystem overlay size in MiB.
	DiskMiB int
	// Kernel and RootFS name the boot artifacts. The emulation
	// substrate does not interpret them, but they are carried through
	// so user tooling can stage per-machine files, as in Celestial.
	Kernel string
	RootFS string
	// BootDelay is how long a machine takes from start to active.
	BootDelay time.Duration
}

// Shell is one constellation shell plus its parameter overrides.
type Shell struct {
	orbit.ShellConfig
	// Network overrides NetworkParams for links of this shell when any
	// field is non-zero.
	Network NetworkParams
	// Compute overrides the global compute parameters for this shell's
	// satellites when any field is non-zero.
	Compute ComputeParams
}

// GroundStation is a named ground-station server.
type GroundStation struct {
	Name     string
	Location geom.LatLon
	// Compute overrides the global compute parameters when non-zero.
	Compute ComputeParams
}

// Config is a complete testbed description.
type Config struct {
	// Name labels the testbed run.
	Name string
	// Duration is the experiment length.
	Duration time.Duration
	// Resolution is the constellation update interval.
	Resolution time.Duration
	// Epoch is the constellation start time. The zero value means
	// "use a fixed default epoch" so runs stay reproducible.
	Epoch time.Time
	// BoundingBox limits which satellites are emulated as active
	// machines. Defaults to the whole Earth.
	BoundingBox bbox.Box
	// Hosts is the number of emulated Celestial hosts machines are
	// distributed over.
	Hosts int
	// Network and Compute are the global defaults.
	Network NetworkParams
	Compute ComputeParams

	Shells         []Shell
	GroundStations []GroundStation
}

// DefaultEpoch is the reproducible default constellation epoch.
var DefaultEpoch = time.Date(2022, 4, 14, 12, 0, 0, 0, time.UTC)

// withDefaults fills unset fields.
func (c *Config) withDefaults() {
	if c.Duration == 0 {
		c.Duration = DefaultDuration
	}
	if c.Resolution == 0 {
		c.Resolution = DefaultResolution
	}
	if c.Epoch.IsZero() {
		c.Epoch = DefaultEpoch
	}
	if c.BoundingBox == (bbox.Box{}) {
		c.BoundingBox = bbox.WholeEarth
	}
	if c.Hosts == 0 {
		c.Hosts = 1
	}
	mergeNetwork(&c.Network, NetworkParams{
		BandwidthKbps:      DefaultBandwidthKbps,
		MinElevationDeg:    DefaultMinElevationDeg,
		AtmosphereCutoffKm: geom.AtmosphereCutoffKm,
		GSTConnectionType:  "all",
	})
	if c.Network.GSTBandwidthKbps == 0 {
		c.Network.GSTBandwidthKbps = c.Network.BandwidthKbps
	}
	mergeCompute(&c.Compute, ComputeParams{VCPUs: DefaultVCPUs, MemMiB: DefaultMemMiB})
	for i := range c.Shells {
		s := &c.Shells[i]
		if s.Name == "" {
			s.Name = fmt.Sprintf("shell-%d", i)
		}
		mergeNetwork(&s.Network, c.Network)
		mergeCompute(&s.Compute, c.Compute)
	}
	for i := range c.GroundStations {
		mergeCompute(&c.GroundStations[i].Compute, c.Compute)
	}
}

func mergeNetwork(dst *NetworkParams, def NetworkParams) {
	if dst.BandwidthKbps == 0 {
		dst.BandwidthKbps = def.BandwidthKbps
	}
	if dst.GSTBandwidthKbps == 0 {
		dst.GSTBandwidthKbps = def.GSTBandwidthKbps
	}
	if dst.MinElevationDeg == 0 {
		dst.MinElevationDeg = def.MinElevationDeg
	}
	if dst.AtmosphereCutoffKm == 0 {
		dst.AtmosphereCutoffKm = def.AtmosphereCutoffKm
	}
	if dst.GSTConnectionType == "" {
		dst.GSTConnectionType = def.GSTConnectionType
	}
}

func mergeCompute(dst *ComputeParams, def ComputeParams) {
	if dst.VCPUs == 0 {
		dst.VCPUs = def.VCPUs
	}
	if dst.MemMiB == 0 {
		dst.MemMiB = def.MemMiB
	}
	if dst.DiskMiB == 0 {
		dst.DiskMiB = def.DiskMiB
	}
	if dst.Kernel == "" {
		dst.Kernel = def.Kernel
	}
	if dst.RootFS == "" {
		dst.RootFS = def.RootFS
	}
	if dst.BootDelay == 0 {
		dst.BootDelay = def.BootDelay
	}
}

// Validate is Celestial's Validator component: it checks the complete
// configuration and returns a descriptive error for the first problem
// found. Validate assumes defaults have been applied (Parse does this).
func (c *Config) Validate() error {
	if c.Duration <= 0 {
		return fmt.Errorf("config: duration must be positive, have %v", c.Duration)
	}
	if c.Resolution <= 0 {
		return fmt.Errorf("config: resolution must be positive, have %v", c.Resolution)
	}
	if c.Resolution > c.Duration {
		return fmt.Errorf("config: resolution %v exceeds duration %v", c.Resolution, c.Duration)
	}
	if c.Hosts <= 0 {
		return fmt.Errorf("config: hosts must be positive, have %d", c.Hosts)
	}
	if err := c.BoundingBox.Validate(); err != nil {
		return err
	}
	if len(c.Shells) == 0 {
		return fmt.Errorf("config: at least one shell is required")
	}
	names := map[string]bool{}
	for i, s := range c.Shells {
		if err := s.ShellConfig.Validate(); err != nil {
			return fmt.Errorf("config: shell %d: %w", i, err)
		}
		if names[s.Name] {
			return fmt.Errorf("config: duplicate shell name %q", s.Name)
		}
		names[s.Name] = true
		if s.Network.MinElevationDeg < 0 || s.Network.MinElevationDeg >= 90 {
			return fmt.Errorf("config: shell %q: min elevation %v outside [0, 90)", s.Name, s.Network.MinElevationDeg)
		}
		if s.Network.BandwidthKbps <= 0 {
			return fmt.Errorf("config: shell %q: bandwidth must be positive", s.Name)
		}
		if s.Compute.VCPUs <= 0 || s.Compute.MemMiB <= 0 {
			return fmt.Errorf("config: shell %q: compute allocation must be positive", s.Name)
		}
		if t := s.Network.GSTConnectionType; t != "all" && t != "one" {
			return fmt.Errorf("config: shell %q: ground station connection type %q (want \"all\" or \"one\")", s.Name, t)
		}
	}
	gstNames := map[string]bool{}
	for i, g := range c.GroundStations {
		if g.Name == "" {
			return fmt.Errorf("config: ground station %d has no name", i)
		}
		if gstNames[g.Name] {
			return fmt.Errorf("config: duplicate ground station name %q", g.Name)
		}
		gstNames[g.Name] = true
		if g.Location.LatDeg < -90 || g.Location.LatDeg > 90 {
			return fmt.Errorf("config: ground station %q: latitude %v outside [-90, 90]", g.Name, g.Location.LatDeg)
		}
		if g.Location.LonDeg < -180 || g.Location.LonDeg > 180 {
			return fmt.Errorf("config: ground station %q: longitude %v outside [-180, 180]", g.Name, g.Location.LonDeg)
		}
		if g.Compute.VCPUs <= 0 || g.Compute.MemMiB <= 0 {
			return fmt.Errorf("config: ground station %q: compute allocation must be positive", g.Name)
		}
	}
	return nil
}

// TotalSatellites returns the number of satellites across all shells.
func (c *Config) TotalSatellites() int {
	total := 0
	for _, s := range c.Shells {
		total += s.Size()
	}
	return total
}

// EpochJulian returns the constellation epoch as a Julian date.
func (c *Config) EpochJulian() float64 {
	e := c.Epoch.UTC()
	return geom.JulianDate(e.Year(), int(e.Month()), e.Day(),
		e.Hour(), e.Minute(), float64(e.Second())+float64(e.Nanosecond())/1e9)
}

// Parse reads a TOML configuration, applies defaults, and validates it.
func Parse(r io.Reader) (*Config, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("config: reading: %w", err)
	}
	doc, err := toml.Parse(string(data))
	if err != nil {
		return nil, err
	}
	return FromTable(toml.NewTable(doc))
}

// ParseFile reads and validates a TOML configuration file.
func ParseFile(path string) (*Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	defer f.Close()
	return Parse(f)
}

// Finalize applies defaults and validates a programmatically built Config.
func Finalize(c *Config) error {
	c.withDefaults()
	return c.Validate()
}

// FromTable builds a Config from an already-parsed TOML table using the
// same schema as Parse — e.g. the inline [testbed] table of a scenario
// file — applying defaults and validating. Wrong types, out-of-range
// numbers and unknown keys anywhere under the table are errors.
func FromTable(t *toml.Table) (*Config, error) {
	c := &Config{
		Name:       t.String("name"),
		Duration:   t.Seconds("duration"),
		Resolution: t.Seconds("resolution"),
		Hosts:      t.Int("hosts"),
		Network:    networkFromTable(t.Table("network_params")),
		Compute:    computeFromTable(t.Table("compute_params")),
	}
	if s := t.String("epoch"); t.Has("epoch") {
		var err error
		if c.Epoch, err = time.Parse(time.RFC3339, s); err != nil {
			t.Fail("epoch", "must be an RFC 3339 time: %v", err)
		}
	}
	if arr := t.Floats("bbox"); len(arr) == 4 {
		c.BoundingBox = bbox.Box{LatMinDeg: arr[0], LonMinDeg: arr[1], LatMaxDeg: arr[2], LonMaxDeg: arr[3]}
	} else if arr != nil {
		t.Fail("bbox", "must have 4 elements [latMin, lonMin, latMax, lonMax], have %d", len(arr))
	}
	for _, st := range t.Tables("shell") {
		c.Shells = append(c.Shells, shellFromTable(st))
	}
	for _, gt := range t.Tables("ground_station") {
		c.GroundStations = append(c.GroundStations, GroundStation{
			Name:     gt.String("name"),
			Location: geom.LatLon{LatDeg: gt.Float("lat"), LonDeg: gt.Float("long")},
			Compute:  computeFromTable(gt.Table("compute_params")),
		})
	}
	if err := t.Err(); err != nil {
		return nil, err
	}
	if err := Finalize(c); err != nil {
		return nil, err
	}
	return c, nil
}

func networkFromTable(t *toml.Table) NetworkParams {
	return NetworkParams{
		BandwidthKbps:      t.Float("bandwidth_kbits"),
		GSTBandwidthKbps:   t.Float("gst_bandwidth_kbits"),
		MinElevationDeg:    t.Float("min_elevation"),
		AtmosphereCutoffKm: t.Float("atmosphere_cutoff_km"),
		GSTConnectionType:  t.String("ground_station_connection_type"),
	}
}

func computeFromTable(t *toml.Table) ComputeParams {
	return ComputeParams{
		VCPUs:     t.Int("vcpu_count"),
		MemMiB:    t.Int("mem_size_mib"),
		DiskMiB:   t.Int("disk_size_mib"),
		Kernel:    t.String("kernel"),
		RootFS:    t.String("rootfs"),
		BootDelay: t.Seconds("boot_delay"),
	}
}

func shellFromTable(t *toml.Table) Shell {
	s := Shell{
		ShellConfig: orbit.ShellConfig{
			Name:           t.String("name"),
			Planes:         t.Int("planes"),
			SatsPerPlane:   t.Int("sats"),
			AltitudeKm:     t.Float("altitude_km"),
			InclinationDeg: t.Float("inclination"),
			ArcDeg:         t.Float("arc_of_ascending_nodes"),
			Eccentricity:   t.Float("eccentricity"),
			PhasingFactor:  t.Int("phasing_factor"),
		},
		Network: networkFromTable(t.Table("network_params")),
		Compute: computeFromTable(t.Table("compute_params")),
	}
	switch m := t.String("model"); {
	case !t.Has("model") || m == "sgp4":
		s.Model = orbit.ModelSGP4
	case m == "kepler":
		s.Model = orbit.ModelKepler
	default:
		t.Fail("model", "must be \"sgp4\" or \"kepler\", have %q", m)
	}
	return s
}
