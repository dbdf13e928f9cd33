//dsm:wallclock the pool times each run for its progress line, and a verdict grid bounds every run by a real-time deadline: a live run that never ends is a hang

package bench

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/prng"
	"repro/internal/stats"

	dsm "repro"
)

// variant is one setting a grid compares: its name in labels and rows, and
// the configuration it runs every workload under (Nodes aside: that is the
// workload's).
type variant struct {
	name string
	cfg  dsm.Config
}

// policies is one variant per migration policy name.
func policies(names ...string) []variant {
	vs := make([]variant, len(names))
	for i, pol := range names {
		vs[i] = variant{pol, dsm.Config{Policy: pol}}
	}
	return vs
}

// workload is one input of a grid: its name in labels and rows, its input
// key (cell.key), its cluster size, and its run — apps.Run or
// apps.RunScenario — on the options a cell hands it: the variant's
// configuration on the workload's nodes, the trial's seed, RunOpts.Check.
type workload struct {
	name  string
	key   string
	nodes int
	run   func(apps.Options) (apps.Result, error)
}

// application is the workload that runs spec on nodes. Its name is its
// input key, except for the synthetic benchmark, which has none: its
// racing workers overshoot the target by a timing-dependent amount.
func application(name string, spec apps.Spec, nodes int) workload {
	w := workload{name: name, key: name, nodes: nodes, run: func(o apps.Options) (apps.Result, error) {
		return apps.Run(spec, o)
	}}
	if spec.App == "synthetic" {
		w.key = ""
	}
	return w
}

// cell is one (variant, workload) of a grid, as sameResults sees it.
type cell struct {
	// label names the configuration in progress lines and errors, e.g.
	// "fig2 ASP p=8 AT".
	label string
	// key is the workload's input key. Cells that share a non-empty key ran
	// the same program on the same seeds and differ only in what must not
	// change results — the migration policy, the locator, a threshold, the
	// engine — so under RunOpts.Check their final memory must agree trial
	// by trial.
	key string
}

// outcome is what one run of a grid ended with: its result, or the error
// it failed with.
type outcome struct {
	label  string
	result apps.Result
	err    error
}

// table is what a grid's runs produced: its cells variant-major (every
// workload under the first variant, then under the second, …) and K
// outcomes per cell, in trial order.
type table struct {
	cells []cell
	runs  []outcome
	nw, k int
}

// at is the trials of workload w under variant v.
func (t table) at(v, w int) []outcome {
	i := (v*t.nw + w) * t.k
	return t.runs[i : i+t.k]
}

// agg aggregates the metrics of workload w's trials under variant v.
func (t table) agg(v, w int) stats.TrialAgg {
	var ms []dsm.Metrics
	for _, r := range t.at(v, w) {
		ms = append(ms, r.result.Metrics)
	}
	return stats.Aggregate(ms)
}

// grid is the one place cells are declared: it runs every workload of ws
// under every variant of vs o.trials() times, each trial on its own input
// seed, on the pool (runAll) with every run bounded by bound (0: none),
// and returns the outcomes by (variant, workload) at any pool width.
// label(v, w) names the cell of vs[v] and ws[w].
func (o RunOpts) grid(vs []variant, ws []workload, label func(v, w int) string, bound time.Duration) table {
	t := table{nw: len(ws), k: o.trials()}
	runs := make([]run, 0, len(vs)*len(ws)*t.k)
	for vi, v := range vs {
		for wi, w := range ws {
			c := cell{label: label(vi, wi), key: w.key}
			t.cells = append(t.cells, c)
			cfg := v.cfg
			cfg.Nodes = w.nodes
			for trial := 0; trial < t.k; trial++ {
				opts := apps.Options{Config: cfg, Seed: trialSeed(trial), Check: o.Check}
				runs = append(runs, run{trialLabel(c.label, t.k, trial), func() (apps.Result, error) { return w.run(opts) }})
			}
		}
	}
	t.runs = o.runAll(runs, bound)
	return t
}

// figLabel labels a figure's cells "<fig> <workload> <variant>", e.g.
// "fig2 ASP p=8 AT".
func figLabel(fig string, vs []variant, ws []workload) func(v, w int) string {
	return func(v, w int) string { return fig + " " + ws[w].name + " " + vs[v].name }
}

// sweep runs the grid of a figure or ablation, whose every run must
// complete: the first that failed, in declaration order, fails the sweep
// under its label; under o.Check so does a key group that disagrees on the
// final memory (sameResults).
func (o RunOpts) sweep(vs []variant, ws []workload, label func(v, w int) string) (table, error) {
	t := o.grid(vs, ws, label, 0)
	for _, r := range t.runs {
		if r.err != nil {
			return t, fmt.Errorf("%s: %w", r.label, r.err)
		}
	}
	if !o.Check {
		return t, nil
	}
	return t, sameResults(t.cells, t.k, t.runs)
}

// sameResults is the one check of "migration changes cost, never
// results": it compares final-memory digests across each key group.
// results holds K trials per cell in declaration order, and every cell
// must agree, trial by trial, with the first cell declared under its key
// whose run of that trial completed; a run that failed has no memory to
// compare and is skipped (the verdict sweeps report it on its own line).
// The first disagreement in declaration order is the error, naming both
// runs.
func sameResults(cells []cell, K int, results []outcome) error {
	type group struct {
		key   string
		trial int
	}
	first := make(map[group]int) // the first cell of the key that completed the trial
	for i, c := range cells {
		if c.key == "" {
			continue
		}
		for t := 0; t < K; t++ {
			r := &results[i*K+t]
			if r.err != nil {
				continue
			}
			base, grouped := first[group{c.key, t}]
			if !grouped {
				first[group{c.key, t}] = i
				continue
			}
			if got, want := r.result.Digest, results[base*K+t].result.Digest; got != want {
				return fmt.Errorf("bench: same input, different final memory: %s digest %#x != %s digest %#x",
					trialLabel(c.label, K, t), got, trialLabel(cells[base].label, K, t), want)
			}
		}
	}
	return nil
}

// trialLabel tags a run's label with its trial index in multi-trial
// sweeps; single-trial labels keep the historic form.
func trialLabel(base string, trials, t int) string {
	if trials <= 1 {
		return base
	}
	return fmt.Sprintf("%s trial=%d", base, t)
}

// trialSeed derives the input seed for a trial index. Trial 0 is the
// canonical paper input (seed 0, which every app maps to its fixed
// default input); later trials get splitmix64-mixed seeds (the shared
// prng.Mix finalizer) so the seed stream has no visible structure.
func trialSeed(trial int) uint64 {
	if trial <= 0 {
		return 0
	}
	z := prng.Mix(uint64(trial) + prng.DefaultSeed)
	if z == 0 {
		z = 1
	}
	return z
}

// run is one run of a grid: its label in progress lines and errors, and
// the run, self-contained — it owns its engine, and runs on any goroutine
// beside the others.
type run struct {
	label string
	do    func() (apps.Result, error)
}

// Width is the number of runs a pool of par workers (RunOpts.Par, a -par
// flag) runs at once: <= 0 means one per core, GOMAXPROCS.
func Width(par int) int {
	if par <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return par
}

// runAll is the pool: Width(o.Par) workers claim runs off one cursor, in
// declaration order, and run each through runOne under bound. Outcomes
// land by index, so what a grid prints is byte-identical at any width.
// o.Progress, when set, gets one line per finished run, serially.
func (o RunOpts) runAll(runs []run, bound time.Duration) []outcome {
	outs := make([]outcome, len(runs))
	var (
		cursor atomic.Int64
		mu     sync.Mutex // serializes o.Progress and guards done
		done   int
		start  = time.Now()
		wg     sync.WaitGroup
	)
	for range min(Width(o.Par), len(runs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1) - 1)
				if i >= len(runs) {
					return
				}
				t0 := time.Now()
				outs[i] = runOne(runs[i], bound)
				if o.Progress != nil {
					wall := time.Since(t0)
					mu.Lock()
					done++
					o.Progress(progressLine(done, len(runs), outs[i], wall, time.Since(start)))
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return outs
}

// runOne is r's outcome. r runs on a goroutine of its own: a panic is its
// error, with the stack, instead of taking the pool down; and when bound is
// positive and passes first, the run is reported as a hang and left to its
// goroutine.
func runOne(r run, bound time.Duration) outcome {
	ch := make(chan outcome, 1)
	go func() {
		o := outcome{label: r.label}
		defer func() {
			if p := recover(); p != nil {
				o.err = fmt.Errorf("panicked: %v\n%s", p, debug.Stack())
			}
			ch <- o
		}()
		o.result, o.err = r.do()
	}()
	var hang <-chan time.Time
	if bound > 0 {
		hang = time.After(bound)
	}
	select {
	case o := <-ch:
		return o
	case <-hang:
		return outcome{label: r.label, err: fmt.Errorf("HANG — neither completed nor aborted within %v", bound)}
	}
}

// progressLine is the line for o, the done-th of n runs to finish:
// "[done/n] label (wall)", FAILED if it failed, and while runs remain the
// time left at the pool's throughput so far.
func progressLine(done, n int, o outcome, wall, elapsed time.Duration) string {
	s := fmt.Sprintf("[%d/%d] %s (%s)", done, n, o.label, round(wall))
	if o.err != nil {
		s += " FAILED"
	}
	if eta := elapsed / time.Duration(done) * time.Duration(n-done); eta > 0 {
		s += fmt.Sprintf(" eta %s", round(eta))
	}
	return s
}

func round(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return d.Round(100 * time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(100 * time.Microsecond)
	default:
		return d.Round(time.Microsecond)
	}
}
