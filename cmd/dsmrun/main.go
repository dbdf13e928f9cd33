// dsmrun executes one DSM application under a chosen configuration and
// prints the full metrics report — the workhorse for exploring protocol
// behavior outside the fixed figure sweeps.
//
// Usage:
//
//	dsmrun -app asp -n 256 -nodes 8 -policy AT
//	dsmrun -app synthetic -r 16 -updates 2048 -workers 8 -policy FT1
//	dsmrun -app sor -n 512 -iters 20 -nodes 16 -policy NoHM -locator manager
//	dsmrun -app asp -n 128 -nodes 8 -engine live -check
//
// -engine live runs the same protocol on real goroutines (wall-clock
// metrics instead of virtual time); -check verifies the protocol
// invariants, fingerprints the final memory, and replays the run's
// scalar accesses through the LRC coherence oracle — on either engine.
// That is the gate of every checked run: `dsmbench -check`'s figures and
// ablations, `-scenarios`, `-cross` and each `dsmnode` member.
//
// -flight N attaches a per-node flight recorder of N events to every
// node; the merged HLC-ordered cluster timeline then exports as
// human-readable text (-flight-text) or Chrome trace-event JSON loadable
// in Perfetto (-flight-trace). On the sim engine the timeline is
// byte-identical across runs of the same configuration. -flight-analyze
// classifies a trace of the whole run, which no ring needs to hold.
//
// -obs-addr serves the debug listener mid-run: /debug/pprof, /metrics
// in Prometheus text exposition (engine counters and histograms on the
// live engine; the hot-object sketch and migration decisions on both),
// and /flight rendering the merged flight rings as text.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"sync/atomic"

	dsm "repro"

	"repro/internal/apps"
	"repro/internal/flight"
	"repro/internal/obshttp"
	"repro/internal/telemetry"
)

func main() {
	spec := apps.Spec{App: "asp", N: 128, Iters: 12, Cities: 10, Rep: 8, Updates: 2048, Workers: 8}
	spec.Register(flag.CommandLine)
	var o apps.Options
	o.Register(flag.CommandLine)
	var obsFlags apps.ObsFlags
	obsFlags.Register(flag.CommandLine)
	flag.IntVar(&o.Nodes, "nodes", 8, "cluster nodes")
	flag.StringVar(&o.Network, "network", "fastethernet", "network model: fastethernet, gigabit (sim engine)")
	flag.StringVar(&o.Engine, "engine", "sim", "execution engine: sim (virtual time) or live (real goroutines)")
	flightAnalyze := flag.Bool("flight-analyze", false, "trace the run's access-pattern events in full and print the classifier's report (needs no -flight)")
	flag.Parse()
	obsFlags.Validate("dsmrun")
	o.FlightCap = obsFlags.FlightCap
	var tr *dsm.Trace
	if *flightAnalyze {
		tr = dsm.NewTrace()
		o.Observers = append(o.Observers, tr)
	}

	var obs *obshttp.Server
	if obsFlags.ObsAddr != "" {
		obs = serveObs(obsFlags.ObsAddr, &o)
	}
	res, err := apps.Run(spec, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmrun:", err)
		os.Exit(1)
	}
	fmt.Println(res.App)
	fmt.Print(res.Metrics.Summary())
	if o.Check {
		fmt.Printf("check          invariants OK, oracle OK (%d ops), digest %#x\n",
			res.OracleOps, res.Digest)
	}
	if obsFlags.FlightCap > 0 {
		fmt.Printf("flight         %d event(s) in the merged timeline\n", len(res.Flight))
	}
	if err := obsFlags.ExportTimeline(res.Flight); err != nil {
		fmt.Fprintln(os.Stderr, "dsmrun:", err)
		os.Exit(1)
	}
	if *flightAnalyze {
		fmt.Print(dsm.TraceReport(dsm.AnalyzeTrace(tr)))
	}
	if err := obs.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "dsmrun: debug listener died mid-run:", err)
	}
}

// serveObs starts the debug listener and hooks the telemetry plumbing
// into the run options: a hot-object sink on either engine, the metric
// registry on the live engine (the sim engine runs under virtual time;
// wall-clock scrapes of its counters would race the simulation), and an
// OnCluster capture so /flight can render the rings mid-run.
func serveObs(addr string, o *apps.Options) *obshttp.Server {
	reg := telemetry.NewRegistry(0, fmt.Sprintf("policy=%q", o.Policy))
	sink := telemetry.NewSink(0)
	reg.AttachSink(sink)
	o.Observers = append(o.Observers, sink)
	if o.Engine == "live" {
		o.Metrics = reg
	}
	var cl atomic.Pointer[dsm.Cluster]
	o.OnCluster = func(c *dsm.Cluster) { cl.Store(c) }

	mux := obshttp.Handler(
		func() []telemetry.Snapshot { return []telemetry.Snapshot{reg.Snapshot()} },
		func() ([]flight.Event, int, string) {
			c := cl.Load()
			if c == nil {
				return nil, http.StatusServiceUnavailable, "cluster not built yet"
			}
			if len(c.FlightRecorders()) == 0 {
				return nil, http.StatusNotFound, "flight recorder disabled (run with -flight N)"
			}
			return c.FlightEvents(), http.StatusOK, ""
		})
	srv, err := obshttp.Start(addr, mux)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmrun: obs listener:", err)
		os.Exit(1)
	}
	return srv
}
