package dsm_test

import (
	"fmt"
	"testing"

	dsm "repro"
	"repro/internal/apps"
	"repro/internal/bench"
)

// TestFig2SmallestConfigDeterministic is the golden-stats regression for
// the simulation kernel: Figure 2's smallest configuration (the ASP
// benchmark on 2 processors) run twice must produce byte-identical
// metrics — the same virtual execution time, the same final quiesce time,
// the same protocol counters, and the same kernel event/activation
// counts. Any scheduling, queueing or allocation-reuse change that
// perturbs event order shows up here immediately.
func TestFig2SmallestConfigDeterministic(t *testing.T) {
	for _, pol := range []string{"NoHM", "AT"} {
		s := bench.DefaultSizes()
		run := func() apps.Result {
			res, err := apps.RunASP(s.ASPN, apps.Options{Config: dsm.Config{Nodes: 2, Policy: pol}})
			if err != nil {
				t.Fatalf("%s: %v", pol, err)
			}
			return res
		}
		m1, m2 := run().Metrics, run().Metrics
		if m1.ExecTime != m2.ExecTime {
			t.Errorf("%s: ExecTime %v vs %v", pol, m1.ExecTime, m2.ExecTime)
		}
		if m1.FinalTime != m2.FinalTime {
			t.Errorf("%s: FinalTime %v vs %v", pol, m1.FinalTime, m2.FinalTime)
		}
		if m1.Kernel != m2.Kernel {
			t.Errorf("%s: kernel stats %+v vs %+v", pol, m1.Kernel, m2.Kernel)
		}
		if m1.Counters != m2.Counters {
			t.Errorf("%s: protocol counters diverge:\n%+v\nvs\n%+v", pol, m1.Counters, m2.Counters)
		}
		if m1.Kernel.Events == 0 || m1.TotalMsgs(true) == 0 {
			t.Errorf("%s: implausibly empty run: %+v", pol, m1.Kernel)
		}
	}
}

// TestFig3SmallestConfigDeterministic pins Figure 3's smallest grid —
// ASP and SOR at size 128, the FT2-vs-AT comparison on eight nodes —
// through the full bench pipeline (the grid's pool, reassembly, paired
// percentage computation). Two runs must produce byte-identical rows:
// the improvement percentages are quotients of virtual times and
// message counts, so any kernel or protocol nondeterminism is amplified
// here, not averaged away.
func TestFig3SmallestConfigDeterministic(t *testing.T) {
	run := func() string {
		// Check exercises the policy-independence digest gate too: FT2
		// and AT must leave identical final memory at every point.
		rows, err := bench.Fig3([]int{128}, []int{128}, 0, 0, bench.RunOpts{Check: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2 {
			t.Fatalf("got %d rows, want 2", len(rows))
		}
		return fmt.Sprintf("%+v", rows)
	}
	r1, r2 := run(), run()
	if r1 != r2 {
		t.Errorf("fig3 rows diverge across identical runs:\n%s\nvs\n%s", r1, r2)
	}
}

// TestFig5SmallestConfigDeterministic pins Figure 5's smallest
// configuration — the synthetic single-writer benchmark at repetition 2
// under all four protocols (NM, FT1, FT2, AT) — the same way. The
// normalized columns divide by the slowest protocol in the group, so a
// single perturbed run skews every row of the group.
func TestFig5SmallestConfigDeterministic(t *testing.T) {
	run := func() string {
		rows, err := bench.Fig5(bench.Fig5Config{Repetitions: []int{2}}, bench.RunOpts{Check: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(bench.Fig5Protocols) {
			t.Fatalf("got %d rows, want %d", len(rows), len(bench.Fig5Protocols))
		}
		return fmt.Sprintf("%+v", rows)
	}
	r1, r2 := run(), run()
	if r1 != r2 {
		t.Errorf("fig5 rows diverge across identical runs:\n%s\nvs\n%s", r1, r2)
	}
}
