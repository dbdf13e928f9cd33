// dsmtrace records a protocol-event trace from one application run,
// classifies every shared object's access pattern (single-writer lasting
// or transient, multiple-writer, read-mostly), and runs the application
// under every builtin migration policy (bench.WhatIf) — the what-if
// tooling for the paper's §6 future work on "other heuristics".
//
// Usage:
//
//	dsmtrace -app sor -n 128 -iters 8 -nodes 8
//	dsmtrace -app synthetic -r 4 -workers 8
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/apps"
	"repro/internal/bench"

	dsm "repro"
)

func main() {
	spec := apps.Spec{App: "sor", N: 128, Iters: 8, Cities: 9, Rep: 4, Updates: 1024, Workers: 8}
	spec.Register(flag.CommandLine)
	flag.Lookup("app").Usage = "application: asp, sor, nbody, tsp, synthetic" // no -seed here to pick a scenario with
	flag.Lookup("n").Usage = "problem size"
	flag.Lookup("r").Usage = "synthetic repetition"
	flag.Lookup("updates").Usage = "synthetic total updates"
	flag.Lookup("workers").Usage = "synthetic workers"
	var (
		nodes = flag.Int("nodes", 8, "cluster nodes")
		top   = flag.Int("top", 16, "objects to show in the pattern report")
	)
	flag.Parse()
	if _, err := run(os.Stdout, spec, *nodes, *top); err != nil {
		fmt.Fprintln(os.Stderr, "dsmtrace:", err)
		os.Exit(1)
	}
}

// run prints the pattern census and report of spec's NoHM trace, then
// one row per builtin policy, and returns those rows.
func run(w io.Writer, spec apps.Spec, nodes, top int) ([]bench.AblationRow, error) {
	rows, tr, err := bench.WhatIf(spec, nodes)
	if err != nil {
		return nil, err
	}
	profiles := dsm.AnalyzeTrace(tr)
	fmt.Fprintf(w, "%d protocol events over %d shared objects (traced under NoHM\n", len(tr.Events), len(profiles))
	fmt.Fprintf(w, "so the inherent access pattern is visible, undisturbed by migration)\n\n")

	counts := map[string]int{}
	for _, p := range profiles {
		counts[p.Pattern.String()]++
	}
	fmt.Fprintln(w, "pattern census:")
	for _, k := range []string{"single-writer-lasting", "single-writer-transient", "multiple-writer", "read-mostly"} {
		fmt.Fprintf(w, "  %-24s %d\n", k, counts[k])
	}
	fmt.Fprintln(w)

	if len(profiles) > top {
		profiles = profiles[:top]
		fmt.Fprintf(w, "first %d objects:\n", top)
	}
	fmt.Fprint(w, dsm.TraceReport(profiles))
	fmt.Fprintln(w)
	bench.PrintAblation(w, "what-if: every builtin policy, re-run", rows)
	return rows, nil
}
