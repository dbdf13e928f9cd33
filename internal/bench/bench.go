// Package bench regenerates every table and figure of the paper's
// evaluation (§5): Fig. 2 (application execution time vs processors, HM
// vs NoHM), Fig. 3 (AT vs FT2 improvement vs problem size), Fig. 5
// (synthetic benchmark: normalized execution time and message breakdown
// vs single-writer repetition), the §5.2 headline statistics, and six
// ablations (locator mechanism, λ, T_init, related-work policies,
// piggybacking, path compression; README "Running the figures").
//
// Every one of them is one grid (grid.go): workloads — a name, an input
// key, a cluster size and a run, apps.Run for an application — times
// variants — a name and a dsm.Config — which RunOpts.grid multiplies by
// the trials, runs on the package's pool (runAll) and returns by
// (variant, workload). A figure or ablation is that declaration and one
// fold of the table into its row type.
//
// The verdict sweeps stand on the same grid and RunOpts, every run
// bounded: Sweep (dsmbench -scenarios, -cross; verdict.go) makes each
// generated scenario seed a workload, run by apps.RunScenario and keyed by
// the seed, under a variant per (policy, engine); ChaosSweep (-chaos;
// chaos.go) is one more, its variants the sim reference and the faulted
// live run. One fold judges all three (verdictGrid.fold), and "same input,
// same final memory" is sameResults for figure, scenario and chaos alike.
package bench

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"repro/internal/apps"

	dsm "repro"
)

// RunOpts controls how a sweep executes: worker-pool width, trials per
// configuration, and progress reporting. The zero value runs one trial
// per configuration on GOMAXPROCS workers with no progress output —
// and, the pool returning outcomes in declaration order, produces output
// byte-identical to Par: 1.
type RunOpts struct {
	// Par is the worker-goroutine count; <= 0 means GOMAXPROCS, 1 is
	// strictly sequential.
	Par int
	// Trials is the number of runs per configuration, each with a
	// distinct input seed (trial 0 is the canonical paper input);
	// <= 1 means a single trial. Tables report the trial mean, with
	// min..max spread columns once Trials > 1.
	Trials int
	// Progress, when non-nil, receives one line per completed run with
	// pool position, wall time and ETA.
	Progress func(string)
	// Check turns every sweep into a correctness gate: each run
	// verifies the protocol invariants (a violation fails that run),
	// and cells that declare the same input key — Fig. 2/3's policy axis
	// and the locator, tinit and related ablations' deterministic
	// workloads — additionally must leave byte-identical final shared
	// memory, trial by trial (sameResults, the one comparison).
	Check bool
}

func (o RunOpts) trials() int {
	if o.Trials < 1 {
		return 1
	}
	return o.Trials
}

// ratioStr renders num/den with the given verb, or "n/a" when the
// denominator is zero — an unguarded division would print +Inf or NaN
// into the table.
func ratioStr(num, den float64, format string) string {
	if den == 0 {
		return "n/a"
	}
	return fmt.Sprintf(format, num/den)
}

// timeRange renders a min..max spread column in seconds.
func timeRange(min, max dsm.Time) string {
	return fmt.Sprintf("%.3f..%.3f", min.Seconds(), max.Seconds())
}

// Sizes selects the problem sizes for the application experiments.
type Sizes struct {
	ASPN               int
	SORN, SORIters     int
	NbodyN, NbodySteps int
	TSPCities          int
}

// DefaultSizes are scaled-down problem sizes that keep the full figure
// sweep in CI time while preserving the paper's qualitative shapes;
// FullSizes (dsmbench -full) are the paper's.
func DefaultSizes() Sizes {
	return Sizes{ASPN: 128, SORN: 256, SORIters: 12, NbodyN: 256, NbodySteps: 6, TSPCities: 9}
}

// FullSizes are the paper's §5.1 sizes: ASP 1024, SOR 2048², Nbody 2048,
// TSP 12.
func FullSizes() Sizes {
	return Sizes{ASPN: 1024, SORN: 2048, SORIters: 20, NbodyN: 2048, NbodySteps: 8, TSPCities: 12}
}

// Apps is the paper's application set in presentation order.
var Apps = []string{"ASP", "SOR", "Nbody", "TSP"}

// Spec is the application run s selects for app, one of Apps: apps.Run
// knows the applications by their lower-case names and is the one place
// that dispatches on them (a name outside Apps fails there).
func (s Sizes) Spec(app string) apps.Spec {
	spec := apps.Spec{App: strings.ToLower(app)}
	switch app {
	case "ASP":
		spec.N = s.ASPN
	case "SOR":
		spec.N, spec.Iters = s.SORN, s.SORIters
	case "Nbody":
		spec.N, spec.Iters = s.NbodyN, s.NbodySteps
	case "TSP":
		spec.Cities = s.TSPCities
	}
	return spec
}

// tabw builds the standard table writer.
func tabw(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// tableRow writes one table line, header or data: the cells every sweep
// prints and, in a multi-trial sweep, the trial-spread cells after them.
func tableRow(w io.Writer, multi bool, cells, spread string) {
	if multi {
		cells += "\t" + spread
	}
	fmt.Fprintln(w, cells)
}

// pct formats a relative improvement of got over base in percent
// (positive = got is better/lower).
func pct(base, got float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (base - got) / base
}
