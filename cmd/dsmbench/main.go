// dsmbench regenerates the paper's evaluation artifacts: Figure 2
// (execution time vs processors), Figure 3 (AT vs FT2 improvement vs
// problem size), Figure 5(a)/(b) (synthetic benchmark), and the ablation
// studies listed in DESIGN.md.
//
// Usage:
//
//	dsmbench -fig 2                  # Figure 2 at the scaled default sizes
//	dsmbench -fig 3 -full            # Figure 3 at the paper's sizes
//	dsmbench -fig 5a,5b              # both synthetic panels
//	dsmbench -all -par 8             # everything, on 8 workers
//	dsmbench -fig 2 -trials 5        # 5 seeded trials, mean/min/max tables
//	dsmbench -all -json out.json     # machine-readable artifact
//	dsmbench -ablate locator,lambda  # ablations (locator|lambda|tinit|related|piggyback|pathcompress)
//	dsmbench -fig 2 -check           # sweep doubles as a correctness gate
//	dsmbench -scenarios 200          # random programs through the coherence oracle
//	dsmbench -chaos 50               # fault-injected live runs: parity or clean abort
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"repro/internal/bench"
	"repro/internal/scenario"
)

// multiFlag is a repeatable, comma-separable string-list flag: both
// `-fig 2 -fig 3` and `-fig 2,3` accumulate the same list.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(v string) error {
	for _, part := range strings.Split(v, ",") {
		part = strings.TrimSpace(part)
		if part != "" {
			*m = append(*m, part)
		}
	}
	return nil
}

// dedup drops repeated values, keeping first-occurrence order, so
// duplicate flags (e.g. `-fig 5a -fig 5a,5b`) don't rerun or reprint.
func dedup(m multiFlag) multiFlag {
	seen := make(map[string]bool, len(m))
	var out multiFlag
	for _, v := range m {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// What -all selects.
var (
	allFigs      = multiFlag{"2", "3", "5a", "5b"}
	allAblations = multiFlag{"locator", "lambda", "tinit", "related", "piggyback", "pathcompress"}
)

func main() {
	var figs, ablates multiFlag
	flag.Var(&figs, "fig", "figures to regenerate: 2, 3, 5a, 5b (repeatable or comma-separated)")
	flag.Var(&ablates, "ablate", "ablations to run: locator, lambda, tinit, related, piggyback, pathcompress (repeatable or comma-separated)")
	all := flag.Bool("all", false, "regenerate every figure and ablation")
	full := flag.Bool("full", false, "use the paper's full problem sizes (slow) instead of scaled defaults")
	quiet := flag.Bool("q", false, "suppress progress output")
	par := flag.Int("par", 0, "parallel sweep workers (0 = GOMAXPROCS, 1 = sequential); output is byte-identical at any setting")
	trials := flag.Int("trials", 1, "seeded trials per configuration; tables report mean with min..max spread")
	check := flag.Bool("check", false, "correctness gate: verify protocol invariants after every run and demand policy-independent final memory where the sweep varies only the policy")
	scenarios := flag.Int("scenarios", 0, "run N seeded random scenarios through the coherence oracle under every builtin policy, then exit (combine with -seed)")
	cross := flag.Int("cross", 0, "cross-engine gate: run N seeded scenarios under every builtin policy on BOTH the sim and live engines, demanding clean verdicts and identical final-memory digests (combine with -seed)")
	chaos := flag.Int("chaos", 0, "chaos gate: run N seeded scenarios on the live engine over the fault-injecting transport (delays always, scheduled node kills and link cuts); every run must complete with the fault-free sim digest or abort cleanly, within a deadline (combine with -seed)")
	chaosDeadline := flag.Duration("chaos-deadline", 0, "per-run bound for -chaos (0 = 2m); a run that neither completes nor aborts in time fails the gate as a hang")
	seedBase := flag.Uint64("seed", 1, "first seed for -scenarios")
	csvPath := flag.String("csv", "", "write all produced rows as CSV to this file (\"-\" for stdout)")
	jsonPath := flag.String("json", "", "write all produced rows as JSON to this file (\"-\" for stdout)")
	flag.Parse()

	if *all {
		figs, ablates = allFigs, allAblations
	}
	figs, ablates = dedup(figs), dedup(ablates)
	progressTo := func(tag string) func(string) {
		if *quiet {
			return nil
		}
		return func(s string) { fmt.Fprintf(os.Stderr, "  [%s] %s\n", tag, s) }
	}
	if *chaos > 0 {
		st, err := scenario.ChaosSweep(*seedBase, *chaos, *par, *chaosDeadline, progressTo("chaos"))
		reportSweep(fmt.Sprintf("chaos sweep: %d runs, %d completed with sim-digest parity, %d aborted cleanly",
			st.Runs, st.Completed, st.Aborted), st.Failures, err,
			"chaos sweep: PASS (every faulted run completed with parity or aborted cleanly; zero hangs)")
	}
	verdictSweep := func(tag string, engines []string, count int, what, across, pass string) {
		st, err := scenario.Sweep(engines, *seedBase, count, *par, progressTo(tag))
		reportSweep(fmt.Sprintf("%s sweep: %d scenarios, %d runs (every builtin policy%s), %d checked reads, %d oracle ops",
			what, st.Scenarios, st.Runs, across, st.ReadsChecked, st.OracleOps), st.Failures, err, pass)
	}
	if *cross > 0 {
		verdictSweep("x", []string{"sim", "live"}, *cross, "cross-engine", " × sim+live",
			"cross-engine sweep: PASS (both engines clean, final memory identical per seed and policy)")
	}
	if *scenarios > 0 {
		verdictSweep("scn", []string{"sim"}, *scenarios, "scenario", "",
			"scenario sweep: PASS (oracle clean, invariants intact, final memory policy-independent)")
	}
	if len(figs) == 0 && len(ablates) == 0 {
		if *chaos > 0 || *cross > 0 || *scenarios > 0 {
			return
		}
		flag.Usage()
		os.Exit(2)
	}
	if *trials < 1 {
		*trials = 1
	}
	opts := bench.RunOpts{Par: *par, Trials: *trials, Check: *check}
	if !*quiet {
		opts.Progress = func(s string) { fmt.Fprintf(os.Stderr, "  [run] %s\n", s) }
		workers := *par
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		fmt.Fprintf(os.Stderr, "dsmbench: %d sweep worker(s), %d trial(s) per configuration\n",
			workers, *trials)
	}
	report, err := produce(os.Stdout, figs, ablates, *full, opts)
	if err == nil {
		err = writeArtifact(*jsonPath, report.WriteJSON)
	}
	if err == nil {
		err = writeArtifact(*csvPath, report.WriteCSV)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmbench:", err)
		os.Exit(1)
	}
}

// reportSweep prints a verdict sweep's outcome: the summary line on
// stdout either way, then the PASS line — or, when the sweep failed, its
// detail lines and error on stderr and exit status 1.
func reportSweep(summary string, failures []string, err error, pass string) {
	fmt.Println(summary)
	if err != nil {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "dsmbench:", f)
		}
		fmt.Fprintln(os.Stderr, "dsmbench:", err)
		os.Exit(1)
	}
	fmt.Println(pass)
}

// produce runs the requested figure sweeps and ablations in order,
// printing each table to w, and returns every row produced.
func produce(w io.Writer, figs, ablates multiFlag, full bool, opts bench.RunOpts) (bench.Report, error) {
	sizes := bench.DefaultSizes()
	fig3ASP := []int{64, 128, 256, 512}
	fig3SOR := []int{128, 256, 512, 1024}
	if full {
		sizes = bench.FullSizes()
		fig3ASP = []int{128, 256, 512, 1024}
	}
	report := bench.Report{Sizes: sizes, Trials: opts.Trials}
	did5 := false
	for _, f := range figs {
		switch f {
		case "2":
			rows, err := bench.Fig2(sizes, nil, opts)
			if err != nil {
				return report, err
			}
			report.Fig2 = rows
			bench.PrintFig2(w, sizes, rows)
			fmt.Fprintln(w)
		case "3":
			rows, err := bench.Fig3(fig3ASP, fig3SOR, sizes.SORIters, 8, opts)
			if err != nil {
				return report, err
			}
			report.Fig3 = rows
			bench.PrintFig3(w, rows)
			fmt.Fprintln(w)
		case "5a", "5b":
			if did5 {
				continue // both panels come from one sweep
			}
			did5 = true
			rows, err := bench.Fig5(bench.Fig5Config{}, opts)
			if err != nil {
				return report, err
			}
			report.Fig5 = rows
			if has(figs, "5a") {
				bench.PrintFig5a(w, rows)
				fmt.Fprintln(w)
			}
			if has(figs, "5b") {
				bench.PrintFig5b(w, rows)
				fmt.Fprintln(w)
			}
		default:
			return report, fmt.Errorf("unknown figure %q", f)
		}
	}
	for _, a := range ablates {
		var rows []bench.AblationRow
		var err error
		switch a {
		case "locator":
			rows, err = bench.AblateLocator(opts)
		case "lambda":
			rows, err = bench.AblateLambda(opts)
		case "tinit":
			rows, err = bench.AblateTInit(opts)
		case "related":
			rows, err = bench.AblateRelated(opts)
		case "piggyback":
			rows, err = bench.AblatePiggyback(opts)
		case "pathcompress":
			rows, err = bench.AblatePathCompression(opts)
		default:
			err = fmt.Errorf("unknown ablation %q", a)
		}
		if err != nil {
			return report, err
		}
		report.Ablations = append(report.Ablations, rows...)
		bench.PrintAblation(w, a, rows)
		fmt.Fprintln(w)
	}
	return report, nil
}

// writeArtifact writes one artifact to path ("-" = stdout, "" = skip).
func writeArtifact(path string, write func(w io.Writer) error) error {
	if path == "" {
		return nil
	}
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func has(m multiFlag, v string) bool {
	for _, x := range m {
		if x == v {
			return true
		}
	}
	return false
}
