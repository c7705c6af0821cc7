// Command satgen generates constellation data: shell summaries and
// synthesized two-line element sets (TLEs) for the preset constellations or
// a TOML configuration. The testbed synthesizes these TLEs and parses them
// back into its SGP4 propagator (it reads no TLE files); printed, they can
// be fed to any external SGP4 tooling for cross-validation.
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
	"log"
	"os"
	"time"

	"celestial"
	"celestial/internal/geom"
	"celestial/internal/orbit"
	"celestial/internal/tle"
)

func main() {
	preset := flag.String("preset", "", `preset constellation: "starlink", "starlink-gen2" or "iridium"`)
	configPath := flag.String("config", "", "TOML configuration to read shells from")
	printTLE := flag.Bool("tle", false, "print synthesized TLEs instead of a summary")
	flag.Parse()

	var shells []orbit.ShellConfig
	epoch := celestial.DefaultEpoch
	switch {
	case *preset == "starlink":
		shells = celestial.StarlinkPhase1(celestial.ModelSGP4)
	case *preset == "starlink-gen2":
		shells = celestial.StarlinkGen2(celestial.ModelSGP4)
	case *preset == "iridium":
		shells = []orbit.ShellConfig{celestial.Iridium(celestial.ModelSGP4)}
	case *configPath != "":
		cfg, err := celestial.ParseConfigFile(*configPath)
		if err != nil {
			log.Fatalf("satgen: %v", err)
		}
		for _, s := range cfg.Shells {
			shells = append(shells, s.ShellConfig)
		}
		epoch = cfg.Epoch
	default:
		flag.Usage()
		os.Exit(2)
	}

	if *printTLE {
		year, doy := yearDoy(epoch)
		emitTLEs(shells, year, doy)
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

// yearDoy converts a time to the (year, fractional day-of-year) encoding
// TLE epochs use.
func yearDoy(e time.Time) (int, float64) {
	e = e.UTC()
	jd := geom.JulianDate(e.Year(), int(e.Month()), e.Day(), e.Hour(), e.Minute(), float64(e.Second()))
	jan1 := geom.JulianDate(e.Year(), 1, 1, 0, 0, 0)
	return e.Year(), jd - jan1 + 1
}

func emitTLEs(shells []orbit.ShellConfig, year int, doy float64) {
	id := 1
	for _, s := range shells {
		mm := tle.MeanMotionFromAltitude(s.AltitudeKm)
		arc := s.ArcDeg
		if arc == 0 {
			arc = 360
		}
		for p := 0; p < s.Planes; p++ {
			raan := arc * float64(p) / float64(s.Planes)
			for k := 0; k < s.SatsPerPlane; k++ {
				ma := 360 * float64(k) / float64(s.SatsPerPlane)
				name := fmt.Sprintf("%s-P%d-S%d", s.Name, p, k)
				l1, l2 := tle.Synthesize(tle.Elements{
					Name: name, NoradID: id,
					EpochYear: year, EpochDay: doy,
					InclinationDeg: s.InclinationDeg, RAANDeg: raan,
					Eccentricity: s.Eccentricity, MeanAnomalyDeg: ma,
					MeanMotion: mm,
				})
				fmt.Printf("%s\n%s\n%s\n", name, l1, l2)
				id++
			}
		}
	}
}
