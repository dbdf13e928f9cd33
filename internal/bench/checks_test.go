package bench

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/experiment"
)

// TestSweepTrialsAndGate drives the sweep itself with fabricated runs:
// every cell runs once per trial on that trial's seed, outcomes come back
// per cell in trial order at any pool width, and under Check one variant
// whose memory depends on more than the seed fails the sweep with both
// runs named — while the same grid passes unchecked, and an unkeyed cell
// that differs the same way passes checked.
func TestSweepTrialsAndGate(t *testing.T) {
	const K = 3
	fake := func(tag int64, skew uint64) func(uint64) (apps.Result, error) {
		return func(seed uint64) (apps.Result, error) {
			var r apps.Result
			r.Metrics.Migrations = tag
			r.Metrics.Retries = int64(seed % 1000)
			r.Digest = seed + 5
			if seed == experiment.TrialSeed(1) {
				r.Digest += skew
			}
			return r, nil
		}
	}
	grid := func(skewKeyed, skewFree uint64) []cell {
		return []cell{
			{label: "g v0", key: "in", run: fake(0, 0)},
			{label: "free", run: fake(1, skewFree)},
			{label: "g v1", key: "in", run: fake(2, skewKeyed)},
		}
	}
	for _, par := range []int{1, 4} {
		outs, err := RunOpts{Par: par, Trials: K, Check: true}.sweep(grid(0, 9))
		if err != nil {
			t.Fatalf("par=%d: clean keyed group rejected: %v", par, err)
		}
		for i, o := range outs {
			if len(o.trials) != K || o.N != K {
				t.Fatalf("par=%d: cell %d has %d trials (agg over %d), want %d", par, i, len(o.trials), o.N, K)
			}
			for tr, m := range o.trials {
				if m.Migrations != int64(i) || m.Retries != int64(experiment.TrialSeed(tr)%1000) {
					t.Errorf("par=%d: cell %d trial %d holds cell %d's run on seed%%1000 = %d", par, i, tr, m.Migrations, m.Retries)
				}
			}
		}
	}
	if _, err := (RunOpts{Trials: K}).sweep(grid(9, 0)); err != nil {
		t.Errorf("unchecked sweep compared digests: %v", err)
	}
	_, err := RunOpts{Trials: K, Check: true}.sweep(grid(9, 0))
	if err == nil {
		t.Fatal("variant-dependent memory passed the gate")
	}
	for _, want := range []string{"g v1 trial=1", "g v0 trial=1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("gate error does not name %q: %v", want, err)
		}
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
	clean := func() []run {
		rs := make([]run, len(cells)*K)
		for i, c := range cells {
			for tr := 0; tr < K; tr++ {
				d := uint64(1000*int(c.label[0]) + tr)
				if c.key == "" {
					d = uint64(7*i + 13*tr) // timing-dependent: differs per cell
				}
				rs[i*K+tr].Result.Digest = d
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
		mutate func(rs []run)
		want   []string // substrings of the error; nil: must pass
	}{
		{name: "clean grid", mutate: func([]run) {}},
		{name: "unkeyed cells differ freely", mutate: func(rs []run) {
			rs[at("free/1", 0)].Result.Digest, rs[at("free/2", 2)].Result.Digest = 1, 2
		}},
		{name: "group of one", mutate: func(rs []run) { rs[at("solo", 1)].Result.Digest = 99 }},
		{name: "last cell of a group, last trial", mutate: func(rs []run) { rs[at("a/z", 2)].Result.Digest++ },
			want: []string{"a/z trial=2", "a/x trial=2"}},
		{name: "middle cell of the other group", mutate: func(rs []run) { rs[at("b/y", 0)].Result.Digest++ },
			want: []string{"b/y trial=0", "b/x trial=0"}},
		{name: "first cell diverges: its successor is named against it", mutate: func(rs []run) { rs[at("a/x", 1)].Result.Digest++ },
			want: []string{"a/y trial=1", "a/x trial=1"}},
		{name: "two trials swapped inside one cell", mutate: func(rs []run) {
			i, j := at("a/y", 0), at("a/y", 1)
			rs[i], rs[j] = rs[j], rs[i]
		}, want: []string{"a/y trial=0", "a/x trial=0"}},
		{name: "a failed run is skipped, not compared", mutate: func(rs []run) {
			rs[at("a/y", 1)] = run{Err: errors.New("aborted")} // digest 0: would disagree
		}},
		{name: "the first run of a group failed: the next completed one anchors it", mutate: func(rs []run) {
			rs[at("a/x", 2)] = run{Err: errors.New("aborted")}
			rs[at("a/z", 2)].Result.Digest++
		}, want: []string{"a/z trial=2", "a/y trial=2"}},
		{name: "only one run of a group completed", mutate: func(rs []run) {
			rs[at("b/x", 0)] = run{Err: errors.New("aborted")}
			rs[at("b/y", 0)].Result.Digest++
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
	rs := []run{{Result: apps.Result{Digest: 1}}, {Result: apps.Result{Digest: 2}}}
	err := sameResults([]cell{{label: "p", key: "k"}, {label: "q", key: "k"}}, 1, rs)
	if err == nil || !strings.Contains(err.Error(), "q digest 0x2 != p digest 0x1") {
		t.Errorf("single-trial message: %v", err)
	}
}

// run is one slot of what RunOpts.run returns.
type run = experiment.Outcome[apps.Result]

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
	grid := func() []run {
		rs := make([]run, len(cells))
		for i := range rs {
			rs[i].Result.Digest = uint64(0xA0 + i/4) // per seed
		}
		return rs
	}
	for _, tc := range []struct {
		name   string
		mutate func(rs []run)
		want   string // "": must pass
	}{
		{name: "clean", mutate: func([]run) {}},
		{name: "policies differ", mutate: func(rs []run) { rs[6].Result.Digest, rs[7].Result.Digest = 0xB, 0xB },
			want: "bench: same input, different final memory: cross seed=2 AT/fwdptr/sim digest 0xb != cross seed=2 NoHM/fwdptr/sim digest 0xa1"},
		{name: "engines differ", mutate: func(rs []run) { rs[3].Result.Digest = 0xB },
			want: "bench: same input, different final memory: cross seed=1 AT/fwdptr/live digest 0xb != cross seed=1 NoHM/fwdptr/sim digest 0xa0"},
		{name: "a failed run in a group is skipped", mutate: func(rs []run) { rs[1] = run{Err: errors.New("oracle: 1 violation(s)")} }},
		{name: "a disagreement past a failed run is still found", mutate: func(rs []run) {
			rs[4] = run{Err: errors.New("aborted")}
			rs[7].Result.Digest = 0xB
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
		st, err := Sweep(tc.engines, 1, 8, 0, nil)
		if err != nil {
			t.Fatalf("%v: %v (failures: %v)", tc.engines, err, st.Failures)
		}
		if st.Scenarios != tc.scenarios || st.Runs != tc.runs || st.ReadsChecked != tc.checked {
			t.Errorf("%v: %d scenarios, %d runs, %d checked reads; the parent had %d, %d, %d",
				tc.engines, st.Scenarios, st.Runs, st.ReadsChecked, tc.scenarios, tc.runs, tc.checked)
		}
	}
}
