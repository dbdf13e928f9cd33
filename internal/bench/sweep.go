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

// sweep runs every cell o.trials() times on the experiment pool and
// returns one cellOut per cell, in declaration order at any pool width.
// It is the one place a grid is multiplied by its trials and, under
// o.Check, the one place "migration changes cost, never results" is
// checked across a key group (sameResults).
func (o RunOpts) sweep(cells []cell) ([]cellOut, error) {
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
	results, err := experiment.Results(experiment.NewPool(o.Par, o.Progress), specs)
	if err != nil {
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
			ms[t] = results[i*K+t].Metrics
		}
		outs[i] = cellOut{trials: ms, TrialAgg: stats.Aggregate(ms)}
	}
	return outs, nil
}

// sameResults compares final-memory digests across each key group:
// results holds K trials per cell in declaration order, and every cell
// must agree, trial by trial, with the first cell declared under its key.
// The first disagreement in declaration order is the error, naming both
// runs.
func sameResults(cells []cell, K int, results []apps.Result) error {
	first := make(map[string]int) // key → the group's first cell
	for i, c := range cells {
		if c.key == "" {
			continue
		}
		base, grouped := first[c.key]
		if !grouped {
			first[c.key] = i
			continue
		}
		for t := 0; t < K; t++ {
			if got, want := results[i*K+t].Digest, results[base*K+t].Digest; got != want {
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
