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
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"celestial"
	"celestial/internal/orbit"
	"celestial/internal/tle"
)

func main() {
	preset := flag.String("preset", "", `preset constellation: "starlink", "starlink-gen2" or "iridium"`)
	configPath := flag.String("config", "", "TOML configuration to read shells from")
	printTLE := flag.Bool("tle", false, "print synthesized TLEs instead of a summary")
	flag.Parse()

	var shells []orbit.ShellConfig
	cfg := &celestial.Config{Epoch: celestial.DefaultEpoch}
	switch {
	case *preset == "starlink":
		shells = celestial.StarlinkPhase1(celestial.ModelSGP4)
	case *preset == "starlink-gen2":
		shells = celestial.StarlinkGen2(celestial.ModelSGP4)
	case *preset == "iridium":
		shells = []orbit.ShellConfig{celestial.Iridium(celestial.ModelSGP4)}
	case *configPath != "":
		var err error
		cfg, err = celestial.ParseConfigFile(*configPath)
		if err != nil {
			log.Fatalf("satgen: %v", err)
		}
		for _, s := range cfg.Shells {
			shells = append(shells, s.ShellConfig)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	if *printTLE {
		emitTLEs(os.Stdout, shells, cfg.EpochJulian())
		return
	}
	fmt.Printf("%-14s %7s %7s %9s %12s %7s %9s\n",
		"shell", "planes", "sats", "total", "altitude", "incl", "period")
	total := 0
	for _, s := range shells {
		fmt.Printf("%-14s %7d %7d %9d %9.0f km %6.1f° %5.1f min\n",
			s.Name, s.Planes, s.SatsPerPlane, s.Size(), s.AltitudeKm,
			s.InclinationDeg, 1440/tle.MeanMotionFromAltitude(s.AltitudeKm))
		total += s.Size()
	}
	fmt.Printf("%-14s %7s %7s %9d\n", "total", "", "", total)
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
