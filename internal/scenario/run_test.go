package scenario_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	dsm "repro"

	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/flight"
	"repro/internal/live"
	"repro/internal/live/transport"
	"repro/internal/live/transport/faulty"
	"repro/internal/scenario"
)

// The package exports a script, not a runner; these tests drive the
// generated programs end to end through the layers that run them —
// apps.RunScenario for one checked run, internal/bench for the sweeps —
// so a generator regression fails in the package that owns it.

// checked is the full gate of a run of p: model, oracle, invariants,
// digest.
func checked(policy, locator, engine string) apps.Options {
	return apps.Options{
		Config: dsm.Config{Policy: policy, Locator: locator, Engine: engine, DebugWire: true},
		Check:  true,
	}
}

// faulted is checked on the live engine over the fault-injecting
// transport; a non-nil rings asks for flight rings on every node (the
// injected fault logged into node 0's) and receives them once the cluster
// is built.
func faulted(p *scenario.Program, policy, locator string, faults faulty.Options, rings *[]*flight.Recorder) apps.Options {
	o := checked(policy, locator, "live")
	ft := faulty.Wrap(transport.NewChanLoop(p.Nodes), p.Nodes, faults)
	o.Transport = ft
	if rings != nil {
		o.FlightCap = 256
		o.OnCluster = func(c *dsm.Cluster) {
			*rings = c.FlightRecorders()
			ft.SetFlight((*rings)[0])
		}
	}
	return o
}

// TestProgramsDoRealWork: generated programs must actually exercise the
// protocol — checked reads, oracle events and (for non-trivial programs)
// cross-node traffic. A program that degenerates to local no-ops would
// make the sweep vacuous.
func TestProgramsDoRealWork(t *testing.T) {
	var totalChecked, totalOps int
	var totalMsgs int64
	for seed := uint64(1); seed <= 10; seed++ {
		p := scenario.Generate(seed)
		res, err := apps.RunScenario(p, checked("NoHM", "fwdptr", "sim"))
		if err != nil {
			t.Fatal(err)
		}
		totalChecked += p.CheckedReads()
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
// locator with the paper's policy: the gate must be clean and the
// digest locator-independent (the locator changes routing, never data).
func TestRunCleanAcrossLocators(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		p := scenario.Generate(seed)
		var digest uint64
		for i, lc := range bench.Locators {
			res, err := apps.RunScenario(p, checked("AT", lc, "sim"))
			if err != nil {
				t.Fatalf("seed %d %s/%s: %v", seed, p.Family, lc, err)
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
// 200-seed acceptance sweep, kept here so generator regressions fail in
// the package that owns them.
func TestSweepSmoke(t *testing.T) {
	n := 12
	if testing.Short() {
		n = 4
	}
	st, err := bench.Sweep([]string{"sim"}, 1, n, bench.RunOpts{})
	if err != nil {
		t.Fatalf("%v (failures: %v)", err, st.Failures)
	}
	if st.Runs != st.Scenarios*len(bench.Policies()) {
		t.Errorf("runs %d != scenarios %d × builtin policies", st.Runs, st.Scenarios)
	}
}

// TestCrossEngineEquivalence is the cross-engine gate in test form: N
// scenario seeds, every builtin migration policy, both engines — each
// run must pass the whole gate and the live digest must equal the sim
// digest per (seed, policy). Runs under -race in CI, where the live
// engine's real goroutines get the detector's full attention.
func TestCrossEngineEquivalence(t *testing.T) {
	count := 12
	if testing.Short() {
		count = 4
	}
	st, err := bench.Sweep([]string{"sim", "live"}, 1, count, bench.RunOpts{})
	if err != nil {
		for _, f := range st.Failures {
			t.Error(f)
		}
		t.Fatal(err)
	}
	if want := 2 * count * len(bench.Policies()); st.Runs != want {
		t.Fatalf("runs = %d, want %d", st.Runs, want)
	}
	if st.ReadsChecked == 0 || st.OracleOps == 0 {
		t.Fatalf("gate checked nothing: %d reads, %d oracle ops", st.ReadsChecked, st.OracleOps)
	}
}

// runBounded runs p under o and fails the test if the run has not ended
// within 30 seconds — a faulted run may abort, never hang.
func runBounded(t *testing.T, p *scenario.Program, o apps.Options) (apps.Result, error) {
	t.Helper()
	type ended struct {
		res apps.Result
		err error
	}
	done := make(chan ended, 1)
	go func() {
		res, err := apps.RunScenario(p, o)
		done <- ended{res, err}
	}()
	select {
	case e := <-done:
		return e.res, e.err
	case <-time.After(30 * time.Second):
		t.Fatal("faulted run hung")
		return apps.Result{}, nil
	}
}

// TestChaosKillAborts: an immediate scheduled kill must end the live
// run through the engine's clean abort path — errors.Is(live.ErrAborted)
// — never a hang or a panic.
func TestChaosKillAborts(t *testing.T) {
	p := scenario.Generate(3)
	faults := faulty.Options{Seed: 3, KillNode: 0, KillAfter: 1}
	_, err := runBounded(t, p, faulted(p, "NoHM", "fwdptr", faults, nil))
	if !errors.Is(err, live.ErrAborted) {
		t.Fatalf("killed run returned %v, want an ErrAborted wrap", err)
	}
}

// TestChaosDelaysPreserveResults: delay/jitter alone must never change
// results — the run completes, passes the whole gate, and reproduces
// the fault-free sim digest.
func TestChaosDelaysPreserveResults(t *testing.T) {
	p := scenario.Generate(5)
	sim, err := apps.RunScenario(p, checked("AT", "manager", "sim"))
	if err != nil {
		t.Fatal(err)
	}
	faults := faulty.Options{Seed: 5, MaxDelay: 500 * time.Microsecond}
	res, err := runBounded(t, p, faulted(p, "AT", "manager", faults, nil))
	if err != nil {
		t.Fatalf("delayed run failed its gate: %v", err)
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
	st, err := bench.ChaosSweep(1, n, bench.RunOpts{})
	if err != nil {
		t.Fatalf("%v (failures: %v)", err, st.Failures)
	}
	if st.Completed+st.Aborted != st.Scenarios {
		t.Fatalf("outcomes do not partition: %d completed + %d aborted != %d seeds",
			st.Completed, st.Aborted, st.Scenarios)
	}
	if st.Completed == 0 {
		t.Error("no chaos run completed — fault mix too aggressive to test parity")
	}
	t.Logf("chaos: %d completed, %d aborted of %d", st.Completed, st.Aborted, st.Scenarios)
}

// TestChaosAbortDumpsFlight: a killed run with recorders attached must
// leave the post-mortem — each node's trailing flight events with
// attribution, the injected fault and the abort among them.
func TestChaosAbortDumpsFlight(t *testing.T) {
	p := scenario.Generate(3)
	faults := faulty.Options{Seed: 3, KillNode: 0, KillAfter: 1}
	var rings []*flight.Recorder
	_, err := runBounded(t, p, faulted(p, "NoHM", "fwdptr", faults, &rings))
	if !errors.Is(err, live.ErrAborted) {
		t.Fatalf("killed run returned %v, want an ErrAborted wrap", err)
	}
	var dump bytes.Buffer
	flight.DumpLastN(&dump, rings, 32)
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
	p := scenario.Generate(7)
	render := func(engine string) string {
		o := checked("AT", "fwdptr", engine)
		o.FlightCap = 2048
		res, err := apps.RunScenario(p, o)
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
