// dsmtrace records a protocol-event trace from one application run,
// classifies every shared object's access pattern (single-writer lasting
// or transient, multiple-writer, read-mostly), and replays the trace
// offline against all migration policies — the what-if tooling for the
// paper's §6 future work on "other heuristics".
//
// Usage:
//
//	dsmtrace -app sor -n 128 -iters 8 -nodes 8
//	dsmtrace -app synthetic -r 4 -workers 8
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/hockney"
	"repro/internal/migration"
	"repro/internal/trace"

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

	tr := dsm.NewTrace()
	o := apps.Options{Config: dsm.Config{Nodes: *nodes, Policy: "NoHM", Trace: tr}}
	_, err := apps.Run(spec, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmtrace:", err)
		os.Exit(1)
	}

	profiles := dsm.AnalyzeTrace(tr)
	fmt.Printf("%d protocol events over %d shared objects (traced under NoHM\n", tr.Len(), len(profiles))
	fmt.Printf("so the inherent access pattern is visible, undisturbed by migration)\n\n")

	counts := map[string]int{}
	for _, p := range profiles {
		counts[p.Pattern.String()]++
	}
	fmt.Println("pattern census:")
	for _, k := range []string{"single-writer-lasting", "single-writer-transient", "multiple-writer", "read-mostly"} {
		fmt.Printf("  %-24s %d\n", k, counts[k])
	}
	fmt.Println()

	if len(profiles) > *top {
		profiles = profiles[:*top]
		fmt.Printf("first %d objects:\n", *top)
	}
	fmt.Print(dsm.TraceReport(profiles))

	// Offline replay: what would each policy have done on this trace?
	net := hockney.FastEthernet()
	params := core.DefaultParams(net.Alpha)
	fmt.Println("\noffline policy replay (migrations / redirection cost):")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "policy\tmigrations\tredir cost\n")
	for _, pol := range []migration.Policy{
		migration.NoHM{}, migration.Fixed{T: 1}, migration.Fixed{T: 2},
		migration.Adaptive{P: params}, migration.JUMP{},
	} {
		res := trace.Replay(tr.Events, pol, params, nil)
		fmt.Fprintf(tw, "%s\t%d\t%d\n", res.Policy, res.Migrations, res.RedirCost)
	}
	tw.Flush()
}
