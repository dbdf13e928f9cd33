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
// cross-engine equivalence gate. It is a grid like the figures': a
// workload per seed, run by apps.RunScenario with the full gate on and
// keyed by the seed, under a variant per (policy, engine), so "every
// policy and every engine leaves the same memory" is the key-group
// comparison every checked sweep makes (sameResults). Unlike a figure it
// runs every cell whatever fails and reports each failed run on a line of
// its own, seed by seed. par is the pool width (<= 0 means one worker per
// core); progress (optional) receives one line per completed run.
func Sweep(engines []string, base uint64, count, par int, progress func(string)) (SweepStats, error) {
	label, what := "scenario", "scenario"
	if len(engines) > 1 {
		label, what = "cross", "cross-engine"
	}
	var vs []variant
	for _, pol := range Policies() {
		for _, eng := range engines {
			vs = append(vs, variant{pol, dsm.Config{Policy: pol, Engine: eng}})
		}
	}
	ws := make([]workload, count)
	lcs := make([]string, count) // per seed: the locator, rotating
	reads := make([]int, count)  // per seed: the checked reads a completed run made
	for i := range ws {
		seed := base + uint64(i)
		p := scenario.Generate(seed)
		lc := Locators[seed%uint64(len(Locators))]
		ws[i] = workload{fmt.Sprintf("seed=%d %s nodes=%d", seed, p.Family, p.Nodes), fmt.Sprintf("seed=%d", seed), p.Nodes,
			func(o apps.Options) (apps.Result, error) {
				return apps.RunScenario(p, scenarioOpts(o.Policy, lc, o.Engine))
			}}
		lcs[i], reads[i] = lc, p.CheckedReads()
	}
	t := RunOpts{Par: par, Progress: progress}.grid(vs, ws, func(v, w int) string {
		tag := vs[v].cfg.Policy + "/" + lcs[w]
		if len(engines) > 1 {
			tag += "/" + vs[v].cfg.Engine
		}
		return label + " " + ws[w].name + " " + tag
	})
	st := SweepStats{Scenarios: count, Runs: len(t.runs)}
	var lines []string
	for w := range ws {
		for v := range vs {
			r := t.at(v, w)[0]
			if r.Err != nil {
				lines = append(lines, fmt.Sprintf("%s: %v", r.Label, r.Err))
				continue
			}
			st.ReadsChecked += reads[w]
			st.OracleOps += r.Result.OracleOps
		}
	}
	if err := sameResults(t.cells, 1, t.runs); err != nil {
		lines = append(lines, err.Error())
	}
	var err error
	st.Failures, err = failed(what, lines)
	return st, err
}
