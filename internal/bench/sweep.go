package bench

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/experiment"
	"repro/internal/stats"

	dsm "repro"
)

// cell is one configuration of a figure or ablation grid. A sweep runs
// every cell once per trial, each trial on its own input seed.
type cell struct {
	// label names the configuration in progress lines and errors, e.g.
	// "fig2 ASP p=8 AT".
	label string
	// key names the cell's input. Cells that share a non-empty key ran the
	// same program on the same seeds and differ only in what must not
	// change results — the migration policy, the locator, a threshold —
	// so under RunOpts.Check their final memory must agree trial by trial.
	// The synthetic benchmark's cells declare none: its racing workers
	// overshoot the target by a timing-dependent amount.
	key string
	// run executes the configuration on the input the seed selects.
	run func(seed uint64) (apps.Result, error)
}

// cellOut is what a cell's trials produced, in trial order, and their
// aggregate.
type cellOut struct {
	trials []dsm.Metrics
	stats.TrialAgg
}

// runner is the run of a cell that executes app under cfg: the trial's
// seed picks the input, and o.Check turns on the run's own gate.
func (o RunOpts) runner(app apps.Spec, cfg dsm.Config) func(seed uint64) (apps.Result, error) {
	return func(seed uint64) (apps.Result, error) {
		return apps.Run(app, apps.Options{Config: cfg, Seed: seed, Check: o.Check})
	}
}

// run executes every cell o.trials() times on the experiment pool and
// returns the outcomes, K per cell in declaration order at any pool
// width. It is the one place a grid is multiplied by its trials.
func (o RunOpts) run(cells []cell) []experiment.Outcome[apps.Result] {
	K := o.trials()
	specs := make([]experiment.Spec[apps.Result], 0, len(cells)*K)
	for _, c := range cells {
		for t := 0; t < K; t++ {
			seed := experiment.TrialSeed(t)
			specs = append(specs, experiment.Spec[apps.Result]{
				Label: trialLabel(c.label, K, t),
				Run:   func() (apps.Result, error) { return c.run(seed) },
			})
		}
	}
	return experiment.Run(experiment.NewPool(o.Par, o.Progress), specs)
}

// sweep runs the cells of a figure or ablation and returns one cellOut
// per cell, in declaration order. The first run that failed, in that
// order, fails the sweep under its label; under o.Check so does a key
// group that disagrees on the final memory (sameResults).
func (o RunOpts) sweep(cells []cell) ([]cellOut, error) {
	K := o.trials()
	results := o.run(cells)
	if err := experiment.FirstErr(results); err != nil {
		return nil, err
	}
	if o.Check {
		if err := sameResults(cells, K, results); err != nil {
			return nil, err
		}
	}
	outs := make([]cellOut, len(cells))
	for i := range outs {
		ms := make([]dsm.Metrics, K)
		for t := range ms {
			ms[t] = results[i*K+t].Result.Metrics
		}
		outs[i] = cellOut{trials: ms, TrialAgg: stats.Aggregate(ms)}
	}
	return outs, nil
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
