// dsmbench regenerates the paper's evaluation artifacts: Figure 2
// (execution time vs processors), Figure 3 (AT vs FT2 improvement vs
// problem size), Figure 5(a)/(b) (synthetic benchmark), and the six
// ablation studies (-ablate; README "Running the figures").
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
	"slices"
	"strings"

	"repro/internal/apps"
	"repro/internal/bench"
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
	var out multiFlag
	for _, v := range m {
		if !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	return out
}

// sweep is one figure or ablation dsmbench can produce: the name -fig or
// -ablate (flag) accepts, and the one function that runs it, files the
// rows in the report and prints the table.
type sweep struct {
	flag, name string
	produce    func(*job) error
}

// sweeps is every sweep, in -all's order.
var sweeps = []sweep{
	{"fig", "2", (*job).fig2},
	{"fig", "3", (*job).fig3},
	{"fig", "5a", func(j *job) error { return j.fig5(bench.PrintFig5a) }},
	{"fig", "5b", func(j *job) error { return j.fig5(bench.PrintFig5b) }},
	{"ablate", "locator", ablation("locator", bench.AblateLocator)},
	{"ablate", "lambda", ablation("lambda", bench.AblateLambda)},
	{"ablate", "tinit", ablation("tinit", bench.AblateTInit)},
	{"ablate", "related", ablation("related", bench.AblateRelated)},
	{"ablate", "piggyback", ablation("piggyback", bench.AblatePiggyback)},
	{"ablate", "pathcompress", ablation("pathcompress", bench.AblatePathCompression)},
}

// selection resolves the -fig and -ablate lists against sweeps: figures
// first, each list in the order given, repeats dropped. A name its flag
// does not accept is the error, with the names it does.
func selection(figs, ablates multiFlag) ([]sweep, error) {
	var out []sweep
	for _, req := range []struct {
		flag  string
		names multiFlag
	}{{"fig", figs}, {"ablate", ablates}} {
		for _, name := range dedup(req.names) {
			i := slices.IndexFunc(sweeps, func(s sweep) bool { return s.flag == req.flag && s.name == name })
			if i < 0 {
				var accepted multiFlag
				for _, s := range sweeps {
					if s.flag == req.flag {
						accepted = append(accepted, s.name)
					}
				}
				return nil, fmt.Errorf("unknown -%s %q (accepted: %s)", req.flag, name, accepted.String())
			}
			out = append(out, sweeps[i])
		}
	}
	return out, nil
}

func main() {
	var figs, ablates multiFlag
	flag.Var(&figs, "fig", "figures to regenerate: 2, 3, 5a, 5b (repeatable or comma-separated)")
	flag.Var(&ablates, "ablate", "ablations to run: locator, lambda, tinit, related, piggyback, pathcompress (repeatable or comma-separated)")
	all := flag.Bool("all", false, "regenerate every figure and ablation")
	full := flag.Bool("full", false, "use the paper's full problem sizes (slow) instead of scaled defaults")
	quiet := flag.Bool("q", false, "suppress progress output")
	par := flag.Int("par", 0, "parallel sweep workers (0 = GOMAXPROCS, 1 = sequential); output is byte-identical at any setting")
	trials := flag.Int("trials", 1, "seeded trials per configuration; tables report mean with min..max spread")
	check := flag.Bool("check", false, "correctness gate: replay every run through the LRC coherence oracle, verify protocol invariants after it, and demand policy-independent final memory where the sweep varies only the policy")
	scenarios := flag.Int("scenarios", 0, "run N seeded random scenarios through the coherence oracle under every builtin policy, then exit (combine with -seed)")
	cross := flag.Int("cross", 0, "cross-engine gate: run N seeded scenarios under every builtin policy on BOTH the sim and live engines, demanding clean verdicts and identical final-memory digests (combine with -seed)")
	chaos := flag.Int("chaos", 0, "chaos gate: run N seeded scenarios on the live engine over the fault-injecting transport (delays always, scheduled node kills and link cuts); every run must complete with the fault-free sim digest or abort cleanly, within a deadline (combine with -seed)")
	seedBase := flag.Uint64("seed", 1, "first seed for -scenarios")
	csvPath := flag.String("csv", "", "write all produced rows as CSV to this file (\"-\" for stdout)")
	jsonPath := flag.String("json", "", "write all produced rows as JSON to this file (\"-\" for stdout)")
	flag.Parse()

	selected := sweeps
	if !*all {
		// A misspelt name fails here, before any sweep — a verdict gate
		// included — has run or printed anything.
		var err error
		if selected, err = selection(figs, ablates); err != nil {
			fmt.Fprintln(os.Stderr, "dsmbench:", err)
			os.Exit(2)
		}
	}
	// runOpts is every sweep's: -par, and unless -q progress tagged tag.
	runOpts := func(tag string) bench.RunOpts {
		o := bench.RunOpts{Par: *par}
		if !*quiet {
			o.Progress = func(s string) { fmt.Fprintf(os.Stderr, "  [%s] %s\n", tag, s) }
		}
		return o
	}
	if *chaos > 0 {
		st, err := bench.ChaosSweep(*seedBase, *chaos, runOpts("chaos"))
		reportSweep(fmt.Sprintf("chaos sweep: %d runs, %d completed with sim-digest parity, %d aborted cleanly",
			st.Scenarios, st.Completed, st.Aborted), st.Failures, err,
			"chaos sweep: PASS (every faulted run completed with parity or aborted cleanly; zero hangs)")
	}
	verdictSweep := func(tag string, engines []string, count int, what, across, pass string) {
		st, err := bench.Sweep(engines, *seedBase, count, runOpts(tag))
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
	if len(selected) == 0 {
		if *chaos > 0 || *cross > 0 || *scenarios > 0 {
			return
		}
		flag.Usage()
		os.Exit(2)
	}
	if *trials < 1 {
		*trials = 1
	}
	opts := runOpts("run")
	opts.Trials, opts.Check = *trials, *check
	if !*quiet {
		fmt.Fprintf(os.Stderr, "dsmbench: %d sweep worker(s), %d trial(s) per configuration\n",
			bench.Width(*par), *trials)
	}
	report, err := produce(os.Stdout, selected, *full, opts)
	if err == nil {
		err = apps.WriteOut(*jsonPath, report.WriteJSON)
	}
	if err == nil {
		err = apps.WriteOut(*csvPath, report.WriteCSV)
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

// job is one dsmbench production: where the tables go, and the report
// the rows accumulate in, which holds the sizes -full selected.
type job struct {
	w      io.Writer
	opts   bench.RunOpts
	report bench.Report
}

// produce runs the selected sweeps in order, printing each table to w,
// and returns every row produced.
func produce(w io.Writer, selected []sweep, full bool, opts bench.RunOpts) (bench.Report, error) {
	sizes := bench.DefaultSizes()
	if full {
		sizes = bench.FullSizes()
	}
	j := &job{w: w, opts: opts, report: bench.Report{Sizes: sizes, Trials: opts.Trials}}
	for _, s := range selected {
		if err := s.produce(j); err != nil {
			return j.report, err
		}
		fmt.Fprintln(w)
	}
	return j.report, nil
}

func (j *job) fig2() (err error) {
	if j.report.Fig2, err = bench.Fig2(j.report.Sizes, nil, j.opts); err == nil {
		bench.PrintFig2(j.w, j.report.Sizes, j.report.Fig2)
	}
	return err
}

func (j *job) fig3() (err error) {
	if j.report.Fig3, err = bench.Fig3(j.report.Sizes, j.opts); err == nil {
		bench.PrintFig3(j.w, j.report.Fig3)
	}
	return err
}

// fig5 prints one panel of Fig. 5; both come from one sweep, run for
// whichever is asked for first.
func (j *job) fig5(panel func(io.Writer, []bench.Fig5Row)) (err error) {
	if j.report.Fig5 == nil {
		if j.report.Fig5, err = bench.Fig5(bench.Fig5Config{}, j.opts); err != nil {
			return err
		}
	}
	panel(j.w, j.report.Fig5)
	return nil
}

func ablation(name string, run func(bench.RunOpts) ([]bench.AblationRow, error)) func(*job) error {
	return func(j *job) error {
		rows, err := run(j.opts)
		if err != nil {
			return err
		}
		j.report.Ablations = append(j.report.Ablations, rows...)
		bench.PrintAblation(j.w, name, rows)
		return nil
	}
}
