package scenario

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/flight"
	"repro/internal/live"
	"repro/internal/live/transport/faulty"
	"repro/internal/locator"
)

// TestGenerateDeterministic: the same seed must yield byte-identical
// programs (scripts, init, expected memory) — scenario failures have to
// be replayable from their seed alone.
func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		a, b := Generate(seed), Generate(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: non-deterministic generation", seed)
		}
	}
}

// TestFamiliesCovered: a modest seed range must exercise every family —
// a generator regression that collapses the family mix would silently
// narrow coverage.
func TestFamiliesCovered(t *testing.T) {
	seen := map[Family]bool{}
	for seed := uint64(1); seed <= 64; seed++ {
		seen[Generate(seed).Family] = true
	}
	for f := Family(0); f < numFamilies; f++ {
		if !seen[f] {
			t.Errorf("family %s never generated in seeds 1..64", f)
		}
	}
}

// TestProgramsDoRealWork: generated programs must actually exercise the
// protocol — checked reads, oracle events and (for non-trivial programs)
// cross-node traffic. A program that degenerates to local no-ops would
// make the sweep vacuous.
func TestProgramsDoRealWork(t *testing.T) {
	pols := Policies(4)
	var totalChecked, totalOps int
	var totalMsgs int64
	for seed := uint64(1); seed <= 10; seed++ {
		p := Generate(seed)
		res, err := p.Run(pols[0], RunOpts{Locator: locator.ForwardingPointer})
		if err != nil {
			t.Fatal(err)
		}
		totalChecked += res.ReadsChecked
		totalOps += res.OracleOps
		totalMsgs += res.Metrics.TotalMsgs(true)
	}
	if totalChecked < 50 {
		t.Errorf("only %d checked reads across 10 seeds", totalChecked)
	}
	if totalOps < 500 {
		t.Errorf("only %d oracle ops across 10 seeds", totalOps)
	}
	if totalMsgs == 0 {
		t.Error("no network traffic at all across 10 seeds")
	}
}

// TestRunCleanAcrossLocators runs a handful of programs under every
// locator with the paper's policy: the verdicts must be clean and the
// digest locator-independent (the locator changes routing, never data).
func TestRunCleanAcrossLocators(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		p := Generate(seed)
		at := Policies(p.Nodes)[3] // Adaptive
		if at.Name() != "AT" {
			t.Fatalf("builtin order changed: got %s at index 3", at.Name())
		}
		var digest uint64
		for i, lc := range Locators {
			res, err := p.Run(at, RunOpts{Locator: lc})
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range res.Mismatches {
				t.Errorf("seed %d %s/%s: %s", seed, p.Family, lc, m)
			}
			for _, v := range res.Violations {
				t.Errorf("seed %d %s/%s: oracle: %s", seed, p.Family, lc, v)
			}
			if res.InvariantErr != nil {
				t.Errorf("seed %d %s/%s: %v", seed, p.Family, lc, res.InvariantErr)
			}
			if i == 0 {
				digest = res.Digest
			} else if res.Digest != digest {
				t.Errorf("seed %d %s: digest differs under %s", seed, p.Family, lc)
			}
		}
	}
}

// TestSweepSmoke is the short-range version of the oracle package's
// 200-seed acceptance sweep, kept here so engine regressions fail in
// the package that owns them.
func TestSweepSmoke(t *testing.T) {
	n := 12
	if testing.Short() {
		n = 4
	}
	st, err := Sweep([]string{"sim"}, 1, n, 0, nil)
	if err != nil {
		t.Fatalf("%v (failures: %v)", err, st.Failures)
	}
	if st.Runs != st.Scenarios*len(Policies(2)) {
		t.Errorf("runs %d != scenarios %d × builtin policies", st.Runs, st.Scenarios)
	}
}

// TestChaosKillAborts: an immediate scheduled kill must end the live
// run through the engine's clean abort path — errors.Is(live.ErrAborted)
// — never a hang or a panic.
func TestChaosKillAborts(t *testing.T) {
	p := Generate(3)
	faults := faulty.Options{Seed: 3, KillNode: 0, KillAfter: 1}
	done := make(chan error, 1)
	go func() {
		_, err := p.Run(Policies(p.Nodes)[0], RunOpts{Locator: locator.ForwardingPointer, Engine: "live", Faults: &faults})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, live.ErrAborted) {
			t.Fatalf("killed run returned %v, want an ErrAborted wrap", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("killed run hung")
	}
}

// TestChaosDelaysPreserveResults: delay/jitter alone must never change
// results — the run completes, passes every verdict, and reproduces
// the fault-free sim digest.
func TestChaosDelaysPreserveResults(t *testing.T) {
	p := Generate(5)
	pol := Policies(p.Nodes)[3] // Adaptive
	sim, err := p.Run(pol, RunOpts{Locator: locator.Manager})
	if err != nil {
		t.Fatal(err)
	}
	faults := faulty.Options{Seed: 5, MaxDelay: 500 * time.Microsecond}
	res, err := p.Run(pol, RunOpts{Locator: locator.Manager, Engine: "live", Faults: &faults})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("delayed run failed verdicts: %v %v %v", res.Mismatches, res.Violations, res.InvariantErr)
	}
	if res.Digest != sim.Digest {
		t.Fatalf("delayed live digest %#x != sim digest %#x", res.Digest, sim.Digest)
	}
}

// TestChaosSweepSmoke: the chaos gate in miniature — every seeded run
// either completes with sim parity or aborts cleanly, none hang.
func TestChaosSweepSmoke(t *testing.T) {
	n := 10
	if testing.Short() {
		n = 4
	}
	st, err := ChaosSweep(1, n, 0, time.Minute, nil)
	if err != nil {
		t.Fatalf("%v (failures: %v)", err, st.Failures)
	}
	if st.Completed+st.Aborted != st.Runs {
		t.Fatalf("outcomes do not partition: %d completed + %d aborted != %d runs",
			st.Completed, st.Aborted, st.Runs)
	}
	if st.Completed == 0 {
		t.Error("no chaos run completed — fault mix too aggressive to test parity")
	}
	t.Logf("chaos: %d completed, %d aborted of %d", st.Completed, st.Aborted, st.Runs)
}

// TestChaosAbortDumpsFlight: a killed run with recorders attached must
// leave the post-mortem — each node's trailing flight events with
// attribution, the injected fault among them — and the merged result of
// a surviving run must carry the fault-free timeline.
func TestChaosAbortDumpsFlight(t *testing.T) {
	p := Generate(3)
	faults := faulty.Options{Seed: 3, KillNode: 0, KillAfter: 1}
	var dump bytes.Buffer
	done := make(chan error, 1)
	go func() {
		_, err := p.Run(Policies(p.Nodes)[0], RunOpts{
			Locator: locator.ForwardingPointer, Engine: "live",
			Faults: &faults, FlightCap: 256, FlightDump: &dump,
		})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, live.ErrAborted) {
			t.Fatalf("killed run returned %v, want an ErrAborted wrap", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("killed run hung")
	}
	out := dump.String()
	for node := 0; node < p.Nodes; node++ {
		if !strings.Contains(out, fmt.Sprintf("flight: node %d,", node)) {
			t.Errorf("dump lacks node %d attribution:\n%s", node, out)
		}
	}
	if !strings.Contains(out, "fault-injected") {
		t.Errorf("dump does not show the injected fault:\n%s", out)
	}
	if !strings.Contains(out, "abort") {
		t.Errorf("dump does not show the abort event:\n%s", out)
	}
}

// TestScenarioFlightTimeline: a clean run with recorders on yields a
// merged HLC-ordered timeline on either engine, and the sim engine's is
// byte-identical across repeated runs of the same seed.
func TestScenarioFlightTimeline(t *testing.T) {
	p := Generate(7)
	pol := Policies(p.Nodes)[3] // Adaptive
	render := func(engine string) string {
		res, err := p.Run(pol, RunOpts{Locator: locator.ForwardingPointer, Engine: engine, FlightCap: 2048})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Flight) == 0 {
			t.Fatalf("%s: no flight timeline", engine)
		}
		for i := 1; i < len(res.Flight); i++ {
			if res.Flight[i].Stamp().Less(res.Flight[i-1].Stamp()) {
				t.Fatalf("%s: timeline out of HLC order at %d", engine, i)
			}
		}
		var buf bytes.Buffer
		if err := flight.WriteText(&buf, res.Flight); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := render("sim"), render("sim"); a != b {
		t.Errorf("sim flight timeline diverges across identical runs:\n%s\nvs\n%s", a, b)
	}
	render("live")
}
