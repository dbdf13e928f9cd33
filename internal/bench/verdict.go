package bench

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/live"
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
	Completed    int // seeds every run of which completed
	Aborted      int // faulted runs the injected fault ended through the clean abort path
	ReadsChecked int
	OracleOps    int
	Failures     []string // one line per failed run or comparison, capped
}

// runBound bounds every run of a verdict sweep: one still going then is a
// hang, the one end the hardened engine must never reach.
const runBound = 2 * time.Minute

// verdictGrid declares a verdict sweep: a workload per generated seed,
// keyed by the seed, under every variant of vs.
type verdictGrid struct {
	what    string // the sweep's name in its error
	vs      []variant
	ws      []workload
	label   func(v, w int) string
	reads   []int // per workload: the checked reads a completed run made
	faulted int   // the variant whose runs may end in live.ErrAborted; -1: none
}

// run runs every cell of g once, checked and bounded by runBound, on o's
// width and progress (its Trials and Check are not read), and folds them.
func (g verdictGrid) run(o RunOpts) (SweepStats, error) {
	o.Trials = 1
	return g.fold(o.grid(g.vs, g.ws, g.label, runBound))
}

// fold is a verdict sweep's judge: a run fails, on a line of its own, unless
// it completed or, in the faulted variant alone, ended in the clean abort;
// the completed runs of a seed must leave the same memory (sameResults).
func (g verdictGrid) fold(t table) (SweepStats, error) {
	st := SweepStats{Scenarios: len(g.ws), Runs: len(t.runs)}
	var lines []string
	for w := range g.ws {
		completed := true
		for v := range g.vs {
			r := t.at(v, w)[0]
			switch {
			case r.err == nil:
				st.ReadsChecked += g.reads[w]
				st.OracleOps += r.result.OracleOps
				continue
			case v == g.faulted && errors.Is(r.err, live.ErrAborted):
				st.Aborted++
			default:
				lines = append(lines, fmt.Sprintf("%s: %v", r.label, r.err))
			}
			completed = false
		}
		if completed {
			st.Completed++
		}
	}
	if err := sameResults(t.cells, 1, t.runs); err != nil {
		lines = append(lines, err.Error())
	}
	if len(lines) == 0 {
		return st, nil
	}
	st.Failures = lines[:min(len(lines), 32)] // the first 32 as detail
	return st, fmt.Errorf("%s sweep: %d failure(s), first: %s", g.what, len(lines), lines[0])
}

// Sweep runs count generated scenarios from seed base under every builtin
// policy (locator rotating per seed) on each of engines, checked: {"sim"}
// is the scenario sweep, {"sim", "live"} the cross-engine gate. o is read
// as verdictGrid.run reads it.
func Sweep(engines []string, base uint64, count int, o RunOpts) (SweepStats, error) {
	return scenarioGrid(engines, base, count).run(o)
}

// scenarioGrid declares Sweep's grid.
func scenarioGrid(engines []string, base uint64, count int) verdictGrid {
	g := verdictGrid{what: "scenario", faulted: -1}
	tag := "scenario"
	if len(engines) > 1 {
		g.what, tag = "cross-engine", "cross"
	}
	for _, pol := range Policies() {
		for _, eng := range engines {
			g.vs = append(g.vs, variant{pol, dsm.Config{Policy: pol, Engine: eng}})
		}
	}
	lcs := make([]string, count) // per seed: the locator, rotating
	for i := range lcs {
		seed := base + uint64(i)
		p := scenario.Generate(seed)
		lc := Locators[seed%uint64(len(Locators))]
		g.ws = append(g.ws, workload{fmt.Sprintf("seed=%d %s nodes=%d", seed, p.Family, p.Nodes), fmt.Sprintf("seed=%d", seed), p.Nodes,
			func(o apps.Options) (apps.Result, error) {
				return apps.RunScenario(p, scenarioOpts(o.Policy, lc, o.Engine))
			}})
		g.reads = append(g.reads, p.CheckedReads())
		lcs[i] = lc
	}
	vs, ws := g.vs, g.ws
	g.label = func(v, w int) string {
		cell := vs[v].cfg.Policy + "/" + lcs[w]
		if len(engines) > 1 {
			cell += "/" + vs[v].cfg.Engine
		}
		return tag + " " + ws[w].name + " " + cell
	}
	return g
}
