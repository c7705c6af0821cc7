// Command celestial-viz renders constellation snapshots as SVG maps — the
// testbed's optional animation component (Fig. 1 of the paper was
// generated by it). It draws satellites colored per shell, inter-satellite
// links, ground stations with their uplinks, and the configured bounding
// box.
//
// Usage:
//
//	celestial-viz -preset starlink -o starlink.svg
//	celestial-viz -config testbed.toml -t 120 -links -o snapshot.svg
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"time"

	"celestial"
	"celestial/internal/constellation"
	"celestial/internal/geom"
	"celestial/internal/topo"
	"celestial/internal/viz"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run renders one command line's snapshot and returns its exit status: 0
// when the SVG is written, 1 when the configuration cannot be loaded or
// rendered and 2 for flags no render can honour.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("celestial-viz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	preset := fs.String("preset", "", `preset constellation: "starlink" or "iridium"`)
	configPath := fs.String("config", "", "TOML configuration to render")
	t := fs.Float64("t", 0, "snapshot time in seconds after the epoch (finite, within ±9.2e9, the virtual clock's range)")
	links := fs.Bool("links", false, "draw inter-satellite links")
	out := fs.String("o", "", "output SVG path (default stdout)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "celestial-viz: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if err := checkTime(*t); err != nil {
		fmt.Fprintf(stderr, "celestial-viz: %v\n", err)
		return 2
	}
	lg := log.New(stderr, "", log.LstdFlags)
	fail := func(err error) int {
		lg.Printf("celestial-viz: %v", err)
		return 1
	}

	var cfg *celestial.Config
	switch {
	case *preset != "" && *configPath != "":
		fmt.Fprintln(stderr, "celestial-viz: -preset and -config are exclusive")
		return 2
	case *preset == "starlink":
		cfg = &celestial.Config{}
		for _, s := range celestial.StarlinkPhase1(celestial.ModelSGP4) {
			cfg.Shells = append(cfg.Shells, celestial.Shell{ShellConfig: s})
		}
	case *preset == "iridium":
		cfg = &celestial.Config{
			Shells: []celestial.Shell{{ShellConfig: celestial.Iridium(celestial.ModelSGP4)}},
		}
	case *preset != "":
		fmt.Fprintf(stderr, "celestial-viz: unknown -preset %q (want \"starlink\" or \"iridium\")\n", *preset)
		return 2
	case *configPath != "":
		var err error
		if cfg, err = celestial.ParseConfigFile(*configPath); err != nil {
			return fail(err)
		}
	default:
		fmt.Fprintln(stderr, "celestial-viz: one of -preset or -config is required")
		fs.Usage()
		return 2
	}
	if err := celestial.Finalize(cfg); err != nil {
		return fail(err)
	}

	cons, err := constellation.New(cfg)
	if err != nil {
		return fail(err)
	}
	st, err := cons.Snapshot(*t)
	if err != nil {
		return fail(err)
	}

	m := viz.NewMap(1440, 720)
	m.AddGraticule(30)
	if cfg.BoundingBox != celestial.WholeEarth {
		m.AddBox(cfg.BoundingBox, "#2e8b57")
	}
	if *links {
		for l := range st.Links() {
			color := "#bbb"
			width := 0.4
			if l.Kind == topo.KindGSL {
				color = "#7c7"
				width = 0.8
			}
			m.AddLink(geom.ToGeodetic(st.Positions[l.A]),
				geom.ToGeodetic(st.Positions[l.B]), color, width)
		}
	}
	for id, node := range cons.Nodes() {
		ll := geom.ToGeodetic(st.Positions[id])
		switch node.Kind {
		case constellation.KindSatellite:
			r := 1.2
			if !st.Active[id] {
				r = 0.6 // suspended satellites drawn smaller
			}
			m.AddSatellite(ll, viz.ShellColor(node.Shell), r)
		case constellation.KindGroundStation:
			m.AddGroundStation(ll, "#d22", node.Name)
		}
	}

	svg := m.SVG()
	if *out == "" {
		if _, err := io.WriteString(stdout, svg); err != nil {
			return fail(err)
		}
		return 0
	}
	if err := os.WriteFile(*out, []byte(svg), 0o644); err != nil {
		return fail(err)
	}
	lg.Printf("wrote %s (%d elements, t=%.0fs)", *out, m.Elements(), *t)
	return 0
}

// checkTime refuses a snapshot time the virtual clock cannot hold: it
// counts time.Duration nanoseconds, so |t| must stay below MaxInt64 ns
// (about 292 years), and NaN and ±Inf are no time at all.
func checkTime(t float64) error {
	if !(math.Abs(t)*float64(time.Second) < float64(math.MaxInt64)) {
		return fmt.Errorf("-t %v: want a finite time within ±%.4g s", t, float64(math.MaxInt64)/float64(time.Second))
	}
	return nil
}
