// Command dsmcal stands in for a binary that builds an engine beside the
// facade, through an aliased import.
package main

import (
	"flag"
	"net/http"
	"net/http/pprof"

	sim "repro/internal/gos"
	"repro/internal/telemetry"
)

func judge(a, b float64) bool { return a < b } // want `one comparator, no wall-order fork: func judge declared`

func main() {
	flag.Uint64("seed", 1, "first seed")          // want `-seed is the shared block's and the sweeps' first seed: flag -seed registered outside`
	flag.Duration("chaos-deadline", 0, "cap")     // want `chaos parity is the grid's digest comparison: flag -chaos-deadline registered`
	http.HandleFunc("/debug/pprof/", pprof.Index) // want `one debug mux: use of pprof.Index outside internal/obshttp/obshttp.go`
	telemetry.NewSampler(nil, 8)                  // want `the abort rule and the telemetry loop live in cluster: use of telemetry.NewSampler outside internal/live/cluster/`
	var cfg sim.Config
	sim.New(cfg) // want `only the facade builds an engine: use of gos.New outside dsm.go`
}
