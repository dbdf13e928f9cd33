package scenario

import (
	"fmt"
	"testing"

	"repro/internal/migration"
)

// TestCrossEngineEquivalence is the satellite gate in test form: N
// scenario seeds, every builtin migration policy, both engines — each
// run must pass all three verdicts and the live digest must equal the
// sim digest per (seed, policy). Runs under -race in CI, where the live
// engine's real goroutines get the detector's full attention.
func TestCrossEngineEquivalence(t *testing.T) {
	count := 12
	if testing.Short() {
		count = 4
	}
	st, err := Sweep([]string{"sim", "live"}, 1, count, 0, nil)
	if err != nil {
		for _, f := range st.Failures {
			t.Error(f)
		}
		t.Fatal(err)
	}
	wantRuns := 0
	for i := 0; i < count; i++ {
		wantRuns += 2 * len(Policies(Generate(1+uint64(i)).Nodes))
	}
	if st.Runs != wantRuns {
		t.Fatalf("runs = %d, want %d", st.Runs, wantRuns)
	}
	if st.ReadsChecked == 0 || st.OracleOps == 0 {
		t.Fatalf("gate checked nothing: %d reads, %d oracle ops", st.ReadsChecked, st.OracleOps)
	}
}

// TestLiveEngineCatchesSabotage re-runs the oracle self-test on the
// live engine: a protocol that drops every diff must be flagged by at
// least one of the verdicts, proving the live wiring of the oracle and
// engine check is not vacuously green.
func TestLiveEngineCatchesSabotage(t *testing.T) {
	p := Generate(7)
	pol := migration.NoHM{}
	res, err := p.Run(pol, RunOpts{Engine: "live", DropDiffs: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed() {
		t.Fatal("DropDiffs run passed all live verdicts — the oracle wiring is broken")
	}
}

// TestSweepReproducesParentCounts pins the one sweep driver against the
// two it replaced: over {sim} and over {sim, live} on seeds 1..8 it does
// the work scenario.Sweep and scenario.CrossSweep did at the commit that
// still had both (counts captured there; oracle ops are left out, the live
// engine's vary with the schedule).
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

// TestJudgeDigestMismatchText forces the two digest disagreements a sweep
// exists to catch and holds judge to the failure lines the separate
// drivers printed.
func TestJudgeDigestMismatchText(t *testing.T) {
	p := Generate(1)
	pols := Policies(p.Nodes)[:2]
	lc := Locators[0]
	// runs builds one scenario's runs, engine fastest, from digests in
	// that order.
	runs := func(engines []string, digests ...uint64) []*sweepRun {
		var out []*sweepRun
		for _, pol := range pols {
			for _, eng := range engines {
				out = append(out, &sweepRun{p: p, lc: lc, pol: pol, eng: eng, res: &Result{Digest: digests[len(out)]}})
			}
		}
		return out
	}
	where := fmt.Sprintf("seed 1 %s %s/%s", p.Family, pols[1].Name(), lc)
	for _, tc := range []struct {
		name    string
		engines []string
		digests []uint64
		want    string
	}{
		{"policies", []string{"sim"}, []uint64{0xA, 0xB},
			where + ": digest 0xb differs from first policy's 0xa — migration changed results"},
		{"policies, two engines", []string{"sim", "live"}, []uint64{0xA, 0xA, 0xB, 0xB},
			where + ": digest 0xb differs from first policy's 0xa — migration changed results"},
		{"engines", []string{"sim", "live"}, []uint64{0xA, 0xA, 0xA, 0xB},
			where + ": live digest 0xb != sim digest 0xa — engines disagree on final memory"},
	} {
		st, err := judge(runs(tc.engines, tc.digests...), len(tc.engines))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(st.Failures) != 1 || st.Failures[0] != tc.want {
			t.Errorf("%s: failures %q, want the one line %q", tc.name, st.Failures, tc.want)
		}
	}
}
