package apps

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/flight"
	"repro/internal/scenario"
)

// Spec names an application and its problem size — what the command-line
// binaries select with -app and its size flags. A binary fills a Spec
// with its own defaults, registers it on its flag set, and hands the
// parsed value to Run.
type Spec struct {
	// App is one of asp, sor, nbody, tsp, synthetic, scenario (the
	// generated program Options.Seed selects; it takes no size).
	App string
	// N is the problem size: graph nodes (asp), matrix side (sor),
	// bodies (nbody).
	N int
	// Iters is the SOR iteration / Nbody step count.
	Iters int
	// Cities is the TSP instance size.
	Cities int
	// Rep, Updates and Workers parameterize the synthetic benchmark
	// (SyntheticOpts.Repetition, TotalUpdates, Workers).
	Rep, Updates, Workers int
}

// Register declares the application flags on fs, bound to s; the values
// s holds when Register is called are the flags' defaults.
func (s *Spec) Register(fs *flag.FlagSet) {
	fs.StringVar(&s.App, "app", s.App, "application: asp, sor, nbody, tsp, synthetic, scenario (the random program -seed generates)")
	fs.IntVar(&s.N, "n", s.N, "problem size (graph nodes / matrix side / bodies)")
	fs.IntVar(&s.Iters, "iters", s.Iters, "SOR iterations / Nbody steps")
	fs.IntVar(&s.Cities, "cities", s.Cities, "TSP cities")
	fs.IntVar(&s.Rep, "r", s.Rep, "synthetic: repetition of the single-writer pattern")
	fs.IntVar(&s.Updates, "updates", s.Updates, "synthetic: total counter updates")
	fs.IntVar(&s.Workers, "workers", s.Workers, "synthetic: worker threads (on nodes 1..workers)")
}

// Run executes the application s names under o. The synthetic benchmark
// keeps node 0 for the homes and lock managers, so its cluster is grown
// to workers+1 nodes when o asks for fewer (a multi-process cluster cannot
// be, and is refused); a scenario's seed is its whole input, cluster size
// included.
func Run(s Spec, o Options) (Result, error) {
	switch s.App {
	case "asp":
		return RunASP(s.N, o)
	case "sor":
		return RunSOR(s.N, s.Iters, o)
	case "nbody":
		return RunNBody(s.N, s.Iters, o)
	case "tsp":
		return RunTSP(s.Cities, o)
	case "synthetic":
		if o.Nodes < s.Workers+1 {
			if o.Multi != nil {
				return Result{}, fmt.Errorf("synthetic with %d workers needs at least %d nodes", s.Workers, s.Workers+1)
			}
			o.Nodes = s.Workers + 1
		}
		return RunSynthetic(SyntheticOpts{
			Repetition: s.Rep, TotalUpdates: s.Updates, Workers: s.Workers,
		}, o)
	case "scenario":
		return RunScenario(scenario.Generate(o.Seed), o)
	}
	return Result{}, fmt.Errorf("unknown app %q", s.App)
}

// ObsFlags is the observation flag block of the binaries that run an
// application (dsmrun, dsmnode): the flight recorder, the exports of its
// merged timeline, and the debug listener.
type ObsFlags struct {
	FlightCap               int    // -flight
	FlightText, FlightTrace string // "-" = stdout, "" = nowhere
	ObsAddr                 string // -obs-addr
}

// Register declares the flags on fs, bound to f. The help texts are
// dsmrun's; a binary for which they read differently replaces them
// (flag.Lookup(name).Usage).
func (f *ObsFlags) Register(fs *flag.FlagSet) {
	fs.IntVar(&f.FlightCap, "flight", 0, "per-node flight recorder capacity in events (0 = off)")
	fs.StringVar(&f.FlightText, "flight-text", "", "write the merged flight timeline as text to this file (\"-\" = stdout; needs -flight)")
	fs.StringVar(&f.FlightTrace, "flight-trace", "", "write the merged flight timeline as Chrome trace-event JSON to this file (\"-\" = stdout; needs -flight)")
	fs.StringVar(&f.ObsAddr, "obs-addr", "", "serve the debug listener (/debug/pprof, /metrics, /flight) on this address mid-run")
}

// ExportTimeline writes events wherever -flight-text and -flight-trace
// ask; the error names the flag that failed.
func (f *ObsFlags) ExportTimeline(events []flight.Event) error {
	export := func(name, path string, render func(io.Writer, []flight.Event) error) error {
		if err := WriteOut(path, func(w io.Writer) error { return render(w, events) }); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	return errors.Join(
		export("flight-text", f.FlightText, flight.WriteText),
		export("flight-trace", f.FlightTrace, flight.WriteChromeTrace))
}

// WriteOut streams one export to path ("-" = stdout, "" = nowhere).
func WriteOut(path string, render func(io.Writer) error) error {
	switch path {
	case "":
		return nil
	case "-":
		return render(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
