package bench

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/migration"
	"repro/internal/scenario"

	dsm "repro"
)

// Policies names every builtin migration policy, as dsm.Config.Policy
// parses them — the set every scenario is swept across.
func Policies() []string {
	var names []string
	for _, pol := range migration.Builtins(core.Params{}) {
		names = append(names, pol.Name())
	}
	return names
}

// Locators names every home-location mechanism of §3.2.
var Locators = []string{"fwdptr", "manager", "broadcast"}

// scenarioOpts is the checked run of a generated program every verdict
// sweep performs: the full gate — model, oracle, invariants, digest —
// with every sim message round-tripped through the codec (the live engine
// has no other path).
func scenarioOpts(policy, locator, engine string) apps.Options {
	return apps.Options{
		Config: dsm.Config{Policy: policy, Locator: locator, Engine: engine, DebugWire: true},
		Check:  true,
		Oracle: true,
	}
}

// SweepStats aggregates a verdict sweep.
type SweepStats struct {
	Scenarios    int
	Runs         int
	ReadsChecked int
	OracleOps    int
	Failures     []string // one line per failed run or comparison, capped
}

// failed is the verdict of a sweep that collected these failure lines:
// none is a pass; otherwise the error counts them and quotes the first,
// and at most 32 are kept as detail.
func failed(what string, lines []string) ([]string, error) {
	if len(lines) == 0 {
		return nil, nil
	}
	return lines[:min(len(lines), 32)], fmt.Errorf("%s sweep: %d failure(s), first: %s", what, len(lines), lines[0])
}

// Sweep generates count scenarios starting at seed base and runs each
// under every builtin migration policy (locator rotating per seed) on
// each of engines — {"sim"} is the scenario sweep, {"sim", "live"} the
// cross-engine equivalence gate. It is a grid like the figures': one cell
// per (seed, policy, engine) whose run is apps.RunScenario with the full
// gate on, and whose input key is the seed, so "every policy and every
// engine leaves the same memory" is the key-group comparison every
// checked sweep makes (sameResults). Unlike a figure it runs every cell
// whatever fails and reports each failed run on a line of its own. par is
// the pool width (<= 0 means one worker per core); progress (optional)
// receives one line per completed run.
func Sweep(engines []string, base uint64, count, par int, progress func(string)) (SweepStats, error) {
	label, what := "scenario", "scenario"
	if len(engines) > 1 {
		label, what = "cross", "cross-engine"
	}
	var cells []cell
	var reads []int // per cell: the checked reads a completed run made
	pols := Policies()
	for i := 0; i < count; i++ {
		seed := base + uint64(i)
		p := scenario.Generate(seed)
		lc := Locators[seed%uint64(len(Locators))]
		checked := p.CheckedReads()
		for _, pol := range pols {
			for _, eng := range engines {
				tag := pol + "/" + lc
				if len(engines) > 1 {
					tag += "/" + eng
				}
				cells = append(cells, cell{
					label: fmt.Sprintf("%s seed=%d %s nodes=%d %s", label, seed, p.Family, p.Nodes, tag),
					key:   fmt.Sprintf("seed=%d", seed),
					run: func(uint64) (apps.Result, error) {
						return apps.RunScenario(p, scenarioOpts(pol, lc, eng))
					},
				})
				reads = append(reads, checked)
			}
		}
	}
	results := RunOpts{Par: par, Progress: progress}.run(cells)
	st := SweepStats{Scenarios: count, Runs: len(results)}
	var lines []string
	for i, r := range results {
		if r.Err != nil {
			lines = append(lines, fmt.Sprintf("%s: %v", r.Label, r.Err))
			continue
		}
		st.ReadsChecked += reads[i]
		st.OracleOps += r.Result.OracleOps
	}
	if err := sameResults(cells, 1, results); err != nil {
		lines = append(lines, err.Error())
	}
	var err error
	st.Failures, err = failed(what, lines)
	return st, err
}
