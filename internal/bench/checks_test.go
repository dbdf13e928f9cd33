package bench

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/apps"

	dsm "repro"
)

// TestSweepTrialsAndGate drives the sweep itself with fabricated runs:
// every cell runs once per trial on that trial's seed and its workload's
// nodes, outcomes come back by (variant, workload) in trial order at any
// pool width, and under Check one variant whose memory depends on more
// than the seed fails the sweep with both runs named — while the same
// grid passes unchecked, and an unkeyed workload that differs the same
// way passes checked.
func TestSweepTrialsAndGate(t *testing.T) {
	const K = 3
	// A run's Migrations names its cell, 2·variant + workload (the variant
	// rides in Lambda); variant 1 skews the digest of trial 1 by skew.
	fake := func(w int64, skew uint64) func(apps.Options) (apps.Result, error) {
		return func(o apps.Options) (apps.Result, error) {
			var r apps.Result
			if o.Nodes != 3 {
				return r, fmt.Errorf("ran on %d nodes, want the workload's 3", o.Nodes)
			}
			v := int64(o.Lambda)
			r.Metrics.Migrations = 2*v + w
			r.Metrics.Retries = int64(o.Seed % 1000)
			r.Digest = o.Seed + 5
			if v == 1 && o.Seed == trialSeed(1) {
				r.Digest += skew
			}
			return r, nil
		}
	}
	vs := []variant{{"v0", dsm.Config{Lambda: 0}}, {"v1", dsm.Config{Lambda: 1}}}
	grid := func(skewKeyed, skewFree uint64) []workload {
		return []workload{
			{name: "in", key: "in", nodes: 3, run: fake(0, skewKeyed)},
			{name: "free", nodes: 3, run: fake(1, skewFree)},
		}
	}
	for _, par := range []int{1, 4} {
		ws := grid(0, 9)
		tab, err := RunOpts{Par: par, Trials: K, Check: true}.sweep(vs, ws, figLabel("g", vs, ws))
		if err != nil {
			t.Fatalf("par=%d: clean keyed group rejected: %v", par, err)
		}
		for v := range vs {
			for w := range ws {
				trials := tab.at(v, w)
				if len(trials) != K || tab.agg(v, w).N != K {
					t.Fatalf("par=%d: cell (%d, %d) has %d trials (agg over %d), want %d", par, v, w, len(trials), tab.agg(v, w).N, K)
				}
				for tr, r := range trials {
					if m := r.result.Metrics; m.Migrations != int64(2*v+w) || m.Retries != int64(trialSeed(tr)%1000) {
						t.Errorf("par=%d: cell (%d, %d) trial %d holds cell %d's run on seed%%1000 = %d", par, v, w, tr, m.Migrations, m.Retries)
					}
				}
			}
		}
	}
	ws := grid(9, 0)
	if _, err := (RunOpts{Trials: K}).sweep(vs, ws, figLabel("g", vs, ws)); err != nil {
		t.Errorf("unchecked sweep compared digests: %v", err)
	}
	_, err := RunOpts{Trials: K, Check: true}.sweep(vs, ws, figLabel("g", vs, ws))
	if err == nil {
		t.Fatal("variant-dependent memory passed the gate")
	}
	for _, want := range []string{"g in v1 trial=1", "g in v0 trial=1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("gate error does not name %q: %v", want, err)
		}
	}
}

// TestGridDeclaresVariantMajor pins the declaration: cells come out
// variant-major, each keyed by its workload's key and the synthetic
// benchmark's by none, and each run gets its variant's configuration on
// its workload's nodes, its trial's seed and RunOpts.Check, under its
// cell's label.
func TestGridDeclaresVariantMajor(t *testing.T) {
	echo := func(w workload) workload {
		w.run = func(o apps.Options) (apps.Result, error) {
			return apps.Result{App: fmt.Sprintf("%s/%s nodes=%d seed=%d check=%v", o.Policy, o.Locator, o.Nodes, o.Seed, o.Check)}, nil
		}
		return w
	}
	ws := []workload{echo(asp128), echo(synthetic(2)), echo(application("SOR p=4", tinySizes().Spec("SOR"), 4))}
	vs := []variant{{"NoHM", dsm.Config{Policy: "NoHM"}}, {"manager", dsm.Config{Policy: "AT", Locator: "manager"}}}
	const K = 2
	tab := RunOpts{Par: 3, Trials: K, Check: true}.grid(vs, ws, func(v, w int) string { return "study " + vs[v].name + " " + ws[w].name }, 0)
	want := []cell{
		{"study NoHM ASP(128)", "ASP(128)"},
		{"study NoHM synthetic(r=2)", ""},
		{"study NoHM SOR p=4", "SOR p=4"},
		{"study manager ASP(128)", "ASP(128)"},
		{"study manager synthetic(r=2)", ""},
		{"study manager SOR p=4", "SOR p=4"},
	}
	if !reflect.DeepEqual(tab.cells, want) {
		t.Fatalf("cells\n%q\nwant\n%q", tab.cells, want)
	}
	if len(tab.runs) != len(want)*K {
		t.Fatalf("%d runs, want %d", len(tab.runs), len(want)*K)
	}
	for v := range vs {
		for w := range ws {
			for tr, r := range tab.at(v, w) {
				app := fmt.Sprintf("%s/%s nodes=%d seed=%d check=true", vs[v].cfg.Policy, vs[v].cfg.Locator, ws[w].nodes, trialSeed(tr))
				label := fmt.Sprintf("%s trial=%d", want[v*len(ws)+w].label, tr)
				if r.result.App != app || r.label != label {
					t.Errorf("(%d, %d) trial %d: %q ran %q, want %q ran %q", v, w, tr, r.label, r.result.App, label, app)
				}
			}
		}
	}
}

// TestGridTakesAnExtraAxis: Fig. 2's workloads under three policies in one
// grid give NoHM and AT rows equal, field for field, to Fig2's — the shape
// of a figure that adds an axis over the Fig. 2/3 cells. Checked, so FT2
// must also leave each point's memory.
func TestGridTakesAnExtraAxis(t *testing.T) {
	s, procs := tinySizes(), []int{2, 4}
	want, err := Fig2(s, procs, RunOpts{Check: true})
	if err != nil {
		t.Fatal(err)
	}
	rows, ws := fig2Grid(s, procs)
	vs := policies("NoHM", "FT2", "AT")
	tab, err := RunOpts{Check: true}.sweep(vs, ws, figLabel("fig2", vs, ws))
	if err != nil {
		t.Fatal(err)
	}
	for w := range rows {
		rows[w].set(tab.agg(0, w), tab.agg(2, w))
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("NoHM/AT rows of the three-policy grid\n%+v\nwant Fig2's\n%+v", rows, want)
	}
}

// TestSameResults pins the one digest comparison over a hand-made grid:
// two key groups of three and two cells interleaved with an unkeyed cell
// and a group of one, three trials each. Digests depend on (key, trial)
// only, except where a row says otherwise.
func TestSameResults(t *testing.T) {
	const K = 3
	cells := []cell{
		{label: "a/x", key: "a"},
		{label: "b/x", key: "b"},
		{label: "free/1"}, // no key: never compared
		{label: "a/y", key: "a"},
		{label: "solo", key: "c"}, // a group of one has nothing to disagree with
		{label: "b/y", key: "b"},
		{label: "a/z", key: "a"},
		{label: "free/2"},
	}
	clean := func() []outcome {
		rs := make([]outcome, len(cells)*K)
		for i, c := range cells {
			for tr := 0; tr < K; tr++ {
				d := uint64(1000*int(c.label[0]) + tr)
				if c.key == "" {
					d = uint64(7*i + 13*tr) // timing-dependent: differs per cell
				}
				rs[i*K+tr].result.Digest = d
			}
		}
		return rs
	}
	at := func(label string, tr int) int {
		for i, c := range cells {
			if c.label == label {
				return i*K + tr
			}
		}
		t.Fatalf("no cell %q", label)
		return -1
	}
	for _, tc := range []struct {
		name   string
		mutate func(rs []outcome)
		want   []string // substrings of the error; nil: must pass
	}{
		{name: "clean grid", mutate: func([]outcome) {}},
		{name: "unkeyed cells differ freely", mutate: func(rs []outcome) {
			rs[at("free/1", 0)].result.Digest, rs[at("free/2", 2)].result.Digest = 1, 2
		}},
		{name: "group of one", mutate: func(rs []outcome) { rs[at("solo", 1)].result.Digest = 99 }},
		{name: "last cell of a group, last trial", mutate: func(rs []outcome) { rs[at("a/z", 2)].result.Digest++ },
			want: []string{"a/z trial=2", "a/x trial=2"}},
		{name: "middle cell of the other group", mutate: func(rs []outcome) { rs[at("b/y", 0)].result.Digest++ },
			want: []string{"b/y trial=0", "b/x trial=0"}},
		{name: "first cell diverges: its successor is named against it", mutate: func(rs []outcome) { rs[at("a/x", 1)].result.Digest++ },
			want: []string{"a/y trial=1", "a/x trial=1"}},
		{name: "two trials swapped inside one cell", mutate: func(rs []outcome) {
			i, j := at("a/y", 0), at("a/y", 1)
			rs[i], rs[j] = rs[j], rs[i]
		}, want: []string{"a/y trial=0", "a/x trial=0"}},
		{name: "a failed run is skipped, not compared", mutate: func(rs []outcome) {
			rs[at("a/y", 1)] = outcome{err: errors.New("aborted")} // digest 0: would disagree
		}},
		{name: "the first run of a group failed: the next completed one anchors it", mutate: func(rs []outcome) {
			rs[at("a/x", 2)] = outcome{err: errors.New("aborted")}
			rs[at("a/z", 2)].result.Digest++
		}, want: []string{"a/z trial=2", "a/y trial=2"}},
		{name: "only one run of a group completed", mutate: func(rs []outcome) {
			rs[at("b/x", 0)] = outcome{err: errors.New("aborted")}
			rs[at("b/y", 0)].result.Digest++
		}},
	} {
		rs := clean()
		tc.mutate(rs)
		err := sameResults(cells, K, rs)
		if tc.want == nil {
			if err != nil {
				t.Errorf("%s: rejected: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: not detected", tc.name)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error does not name %q: %v", tc.name, w, err)
			}
		}
		if !strings.Contains(err.Error(), "digest 0x") {
			t.Errorf("%s: error carries no digests: %v", tc.name, err)
		}
	}
	// A single-trial sweep names its runs by the bare cell label, as the
	// pool's progress and error lines do.
	rs := []outcome{{result: apps.Result{Digest: 1}}, {result: apps.Result{Digest: 2}}}
	err := sameResults([]cell{{label: "p", key: "k"}, {label: "q", key: "k"}}, 1, rs)
	if err == nil || !strings.Contains(err.Error(), "q digest 0x2 != p digest 0x1") {
		t.Errorf("single-trial message: %v", err)
	}
}

// TestSameResultsOnAVerdictGrid forces the two disagreements a verdict
// sweep exists to catch on the grid Sweep declares — one cell per (seed,
// policy, engine), keyed by the seed — and holds the comparison to its one
// message, naming both runs: a policy that changed the memory, an engine
// that did, and a failed run beside them that is reported on its own line
// and must not be compared.
func TestSameResultsOnAVerdictGrid(t *testing.T) {
	var cells []cell
	for _, seed := range []int{1, 2} {
		for _, pol := range []string{"NoHM", "AT"} {
			for _, eng := range []string{"sim", "live"} {
				cells = append(cells, cell{
					label: fmt.Sprintf("cross seed=%d %s/fwdptr/%s", seed, pol, eng),
					key:   fmt.Sprintf("seed=%d", seed),
				})
			}
		}
	}
	grid := func() []outcome {
		rs := make([]outcome, len(cells))
		for i := range rs {
			rs[i].result.Digest = uint64(0xA0 + i/4) // per seed
		}
		return rs
	}
	for _, tc := range []struct {
		name   string
		mutate func(rs []outcome)
		want   string // "": must pass
	}{
		{name: "clean", mutate: func([]outcome) {}},
		{name: "policies differ", mutate: func(rs []outcome) { rs[6].result.Digest, rs[7].result.Digest = 0xB, 0xB },
			want: "bench: same input, different final memory: cross seed=2 AT/fwdptr/sim digest 0xb != cross seed=2 NoHM/fwdptr/sim digest 0xa1"},
		{name: "engines differ", mutate: func(rs []outcome) { rs[3].result.Digest = 0xB },
			want: "bench: same input, different final memory: cross seed=1 AT/fwdptr/live digest 0xb != cross seed=1 NoHM/fwdptr/sim digest 0xa0"},
		{name: "a failed run in a group is skipped", mutate: func(rs []outcome) { rs[1] = outcome{err: errors.New("oracle: 1 violation(s)")} }},
		{name: "a disagreement past a failed run is still found", mutate: func(rs []outcome) {
			rs[4] = outcome{err: errors.New("aborted")}
			rs[7].result.Digest = 0xB
		}, want: "bench: same input, different final memory: cross seed=2 AT/fwdptr/live digest 0xb != cross seed=2 NoHM/fwdptr/live digest 0xa1"},
	} {
		rs := grid()
		tc.mutate(rs)
		err := sameResults(cells, 1, rs)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want %s", tc.name, err, tc.want)
		}
	}
}

// TestSweepReproducesParentCounts pins the verdict sweep against the
// drivers it replaced: over {sim} and over {sim, live} on seeds 1..8 it
// does the work scenario.Sweep and scenario.CrossSweep did at the commit
// that still had both (counts captured there; the checked reads, now a
// property of the programs, equal what those runs executed; oracle ops are
// left out, the live engine's vary with the schedule).
func TestSweepReproducesParentCounts(t *testing.T) {
	for _, tc := range []struct {
		engines                  []string
		scenarios, runs, checked int
	}{
		{[]string{"sim"}, 8, 56, 1176},
		{[]string{"sim", "live"}, 8, 112, 2352},
	} {
		st, err := Sweep(tc.engines, 1, 8, RunOpts{})
		if err != nil {
			t.Fatalf("%v: %v (failures: %v)", tc.engines, err, st.Failures)
		}
		if st.Scenarios != tc.scenarios || st.Runs != tc.runs || st.ReadsChecked != tc.checked {
			t.Errorf("%v: %d scenarios, %d runs, %d checked reads; the parent had %d, %d, %d",
				tc.engines, st.Scenarios, st.Runs, st.ReadsChecked, tc.scenarios, tc.runs, tc.checked)
		}
	}
}
