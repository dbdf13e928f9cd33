package bench

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/experiment"
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

// table is what a grid's runs produced: its cells variant-major (every
// workload under the first variant, then under the second, …) and K
// outcomes per cell, in trial order.
type table struct {
	cells []cell
	runs  []experiment.Outcome[apps.Result]
	nw, k int
}

// at is the trials of workload w under variant v.
func (t table) at(v, w int) []experiment.Outcome[apps.Result] {
	i := (v*t.nw + w) * t.k
	return t.runs[i : i+t.k]
}

// agg aggregates the metrics of workload w's trials under variant v.
func (t table) agg(v, w int) stats.TrialAgg {
	var ms []dsm.Metrics
	for _, r := range t.at(v, w) {
		ms = append(ms, r.Result.Metrics)
	}
	return stats.Aggregate(ms)
}

// grid is the one place cells are declared: it runs every workload of ws
// under every variant of vs o.trials() times, each trial on its own input
// seed, on the experiment pool, and returns the outcomes by (variant,
// workload) at any pool width. label(v, w) names the cell of vs[v] and
// ws[w].
func (o RunOpts) grid(vs []variant, ws []workload, label func(v, w int) string) table {
	t := table{nw: len(ws), k: o.trials()}
	specs := make([]experiment.Spec[apps.Result], 0, len(vs)*len(ws)*t.k)
	for vi, v := range vs {
		for wi, w := range ws {
			c := cell{label: label(vi, wi), key: w.key}
			t.cells = append(t.cells, c)
			cfg := v.cfg
			cfg.Nodes = w.nodes
			for trial := 0; trial < t.k; trial++ {
				opts := apps.Options{Config: cfg, Seed: experiment.TrialSeed(trial), Check: o.Check}
				specs = append(specs, experiment.Spec[apps.Result]{
					Label: trialLabel(c.label, t.k, trial),
					Run:   func() (apps.Result, error) { return w.run(opts) },
				})
			}
		}
	}
	t.runs = experiment.Run(experiment.NewPool(o.Par, o.Progress), specs)
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
	t := o.grid(vs, ws, label)
	if err := experiment.FirstErr(t.runs); err != nil || !o.Check {
		return t, err
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
func sameResults(cells []cell, K int, results []experiment.Outcome[apps.Result]) error {
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
			run := &results[i*K+t]
			if run.Err != nil {
				continue
			}
			base, grouped := first[group{c.key, t}]
			if !grouped {
				first[group{c.key, t}] = i
				continue
			}
			if got, want := run.Result.Digest, results[base*K+t].Result.Digest; got != want {
				return fmt.Errorf("bench: same input, different final memory: %s digest %#x != %s digest %#x",
					trialLabel(c.label, K, t), got, trialLabel(cells[base].label, K, t), want)
			}
		}
	}
	return nil
}

// trialLabel tags a spec label with its trial index in multi-trial
// sweeps; single-trial labels keep the historic form.
func trialLabel(base string, trials, t int) string {
	if trials <= 1 {
		return base
	}
	return fmt.Sprintf("%s trial=%d", base, t)
}
