// Command satgen generates constellation data: shell summaries and
// synthesized two-line element sets (TLEs) for the preset constellations or
// a TOML configuration. The testbed synthesizes the same TLEs, from the
// same elements (orbit.ShellConfig.Elements), and parses them back into its
// SGP4 propagator (it reads no TLE files); printed, they can be fed to any
// external SGP4 tooling for cross-validation.
//
// Usage:
//
//	satgen -preset starlink            # shell summary for Starlink phase I
//	satgen -preset iridium -tle        # print all 66 Iridium TLEs
//	satgen -config testbed.toml -tle   # TLEs for a configured constellation
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"celestial"
	"celestial/internal/orbit"
	"celestial/internal/tle"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one command line and returns its exit status: 0 once the
// summary or the TLEs are written, 1 when the -config file cannot be read
// and 2 for flags no run can honour.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("satgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	preset := fs.String("preset", "", `preset constellation: "starlink", "starlink-gen2" or "iridium"`)
	configPath := fs.String("config", "", "TOML configuration to read shells from")
	printTLE := fs.Bool("tle", false, "print synthesized TLEs instead of a summary")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "satgen: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *preset != "" && *configPath != "" {
		fmt.Fprintln(stderr, "satgen: -preset and -config are exclusive")
		return 2
	}

	var shells []orbit.ShellConfig
	cfg := &celestial.Config{Epoch: celestial.DefaultEpoch}
	switch {
	case *preset == "starlink":
		shells = celestial.StarlinkPhase1(celestial.ModelSGP4)
	case *preset == "starlink-gen2":
		shells = celestial.StarlinkGen2(celestial.ModelSGP4)
	case *preset == "iridium":
		shells = []orbit.ShellConfig{celestial.Iridium(celestial.ModelSGP4)}
	case *preset != "":
		fmt.Fprintf(stderr, "satgen: unknown -preset %q\n", *preset)
		return 2
	case *configPath != "":
		var err error
		cfg, err = celestial.ParseConfigFile(*configPath)
		if err != nil {
			fmt.Fprintf(stderr, "satgen: %v\n", err)
			return 1
		}
		for _, s := range cfg.Shells {
			shells = append(shells, s.ShellConfig)
		}
	default:
		fs.Usage()
		return 2
	}

	if *printTLE {
		emitTLEs(stdout, shells, cfg.EpochJulian())
		return 0
	}
	fmt.Fprintf(stdout, "%-14s %7s %7s %9s %12s %7s %9s\n",
		"shell", "planes", "sats", "total", "altitude", "incl", "period")
	total := 0
	for _, s := range shells {
		fmt.Fprintf(stdout, "%-14s %7d %7d %9d %9.0f km %6.1f° %5.1f min\n",
			s.Name, s.Planes, s.SatsPerPlane, s.Size(), s.AltitudeKm,
			s.InclinationDeg, 1440/tle.MeanMotionFromAltitude(s.AltitudeKm))
		total += s.Size()
	}
	fmt.Fprintf(stdout, "%-14s %7s %7s %9d\n", "total", "", "", total)
	return 0
}

// emitTLEs writes one three-line TLE per satellite, numbered across the
// whole catalog, from the elements the emulator propagates.
func emitTLEs(w io.Writer, shells []orbit.ShellConfig, epochJD float64) {
	id := 1
	for _, s := range shells {
		for _, el := range s.Elements(epochJD) {
			el.NoradID = id
			l1, l2 := tle.Synthesize(el)
			fmt.Fprintf(w, "%s\n%s\n%s\n", el.Name, l1, l2)
			id++
		}
	}
}
