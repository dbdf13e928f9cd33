package bench

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/flight"
)

// TestParallelSweepByteIdenticalFig2 is the tentpole's determinism
// golden test: the same Fig. 2 sweep run strictly sequentially (-par 1)
// and on a wide pool (-par 8) must produce deeply equal rows and a
// byte-identical printed table.
func TestParallelSweepByteIdenticalFig2(t *testing.T) {
	s := tinySizes()
	procs := []int{2, 4}
	seq, err := Fig2(s, procs, RunOpts{Par: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Fig2(s, procs, RunOpts{Par: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("par-8 rows diverge from par-1:\n%+v\nvs\n%+v", par, seq)
	}
	var bseq, bpar bytes.Buffer
	PrintFig2(&bseq, s, seq)
	PrintFig2(&bpar, s, par)
	if !bytes.Equal(bseq.Bytes(), bpar.Bytes()) {
		t.Fatalf("par-8 table not byte-identical to par-1:\n%s\nvs\n%s", bpar.String(), bseq.String())
	}
}

// TestParallelSweepByteIdenticalFig5 is the same golden check for the
// synthetic sweep, covering both printed panels and the per-run metrics
// embedded in the rows (breakdowns, migrations, elimination stats).
func TestParallelSweepByteIdenticalFig5(t *testing.T) {
	cfg := Fig5Config{Repetitions: []int{2, 8}, Workers: 4, TotalUpdates: 256}
	seq, err := Fig5(cfg, RunOpts{Par: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Fig5(cfg, RunOpts{Par: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("par-8 rows diverge from par-1:\n%+v\nvs\n%+v", par, seq)
	}
	var bseq, bpar bytes.Buffer
	PrintFig5a(&bseq, seq)
	PrintFig5b(&bseq, seq)
	PrintFig5a(&bpar, par)
	PrintFig5b(&bpar, par)
	if !bytes.Equal(bseq.Bytes(), bpar.Bytes()) {
		t.Fatalf("par-8 panels not byte-identical to par-1:\n%s\nvs\n%s", bpar.String(), bseq.String())
	}
}

// TestParallelAblationDeterministic extends the golden check to an
// ablation sweep (rows reassemble in declaration order).
func TestParallelAblationDeterministic(t *testing.T) {
	seq, err := AblateLambda(RunOpts{Par: 1, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	par, err := AblateLambda(RunOpts{Par: 8, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel ablation rows diverge:\n%+v\nvs\n%+v", par, seq)
	}
}

// TestAblationCheckGate drives the digest comparison through a real
// sweep: the tinit ablation varies only the initial threshold over ASP's
// canonical input, so every variant must leave identical final memory.
func TestAblationCheckGate(t *testing.T) {
	if _, err := AblateTInit(RunOpts{Check: true}); err != nil {
		t.Fatal(err)
	}
}

// TestFig2MultiTrial checks the -trials path: per-trial seeds perturb
// the inputs, rows aggregate to mean with a min..max envelope, and the
// printed table grows the spread columns.
func TestFig2MultiTrial(t *testing.T) {
	s := tinySizes()
	rows, err := Fig2(s, []int{2}, RunOpts{Trials: 3, Par: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Apps) {
		t.Fatalf("rows = %d, want %d", len(rows), len(Apps))
	}
	for _, r := range rows {
		if r.Trials != 3 {
			t.Errorf("%s: Trials = %d", r.App, r.Trials)
		}
		if r.NoHMAgg.Min > r.NoHM || r.NoHM > r.NoHMAgg.Max || r.NoHMAgg.Min <= 0 {
			t.Errorf("%s: NoHM mean %v outside [%v, %v]", r.App, r.NoHM, r.NoHMAgg.Min, r.NoHMAgg.Max)
		}
		if r.HMAgg.Min > r.HM || r.HM > r.HMAgg.Max || r.HMAgg.Min <= 0 {
			t.Errorf("%s: HM mean %v outside [%v, %v]", r.App, r.HM, r.HMAgg.Min, r.HMAgg.Max)
		}
	}
	// Seeded inputs must actually differ across trials for at least one
	// seed-sensitive app (ASP's graph, SOR's grid, ...): a degenerate
	// aggregator would report Min == Max everywhere.
	spread := false
	for _, r := range rows {
		if r.NoHMAgg.Min != r.NoHMAgg.Max || r.HMAgg.Min != r.HMAgg.Max {
			spread = true
		}
	}
	if !spread {
		t.Error("three seeded trials produced zero spread in every app")
	}
	var buf bytes.Buffer
	PrintFig2(&buf, s, rows)
	if !strings.Contains(buf.String(), "NoHM range (s)") {
		t.Error("multi-trial table lacks spread columns")
	}
	// Multi-trial sweeps must stay deterministic too.
	again, err := Fig2(s, []int{2}, RunOpts{Trials: 3, Par: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, again) {
		t.Error("multi-trial sweep not deterministic across pool widths")
	}
}

// TestPrintFig2ZeroTimeRendersNA pins the unguarded-division fix: a row
// with a zero HM time must print "n/a", not +Inf or NaN.
func TestPrintFig2ZeroTimeRendersNA(t *testing.T) {
	rows := []Fig2Row{{App: "ASP", Procs: 2, NoHM: 1000, HM: 0, Trials: 1}}
	var buf bytes.Buffer
	PrintFig2(&buf, tinySizes(), rows)
	out := buf.String()
	if !strings.Contains(out, "n/a") {
		t.Errorf("zero HM time not rendered as n/a:\n%s", out)
	}
	for _, bad := range []string{"Inf", "NaN"} {
		if strings.Contains(out, bad) {
			t.Errorf("table contains %s:\n%s", bad, out)
		}
	}
}

// tagged is a run named s<i> that sleeps d and returns a result tagged i.
func tagged(i int, d time.Duration) run {
	return run{fmt.Sprintf("s%d", i), func() (apps.Result, error) {
		time.Sleep(d)
		return apps.Result{Digest: uint64(i)}, nil
	}}
}

// TestPoolKeepsDeclarationOrder: with durations inverted, so that runs
// finish in the reverse of their order under any parallel schedule, every
// outcome lands in its run's slot at widths 1, 3 and 8.
func TestPoolKeepsDeclarationOrder(t *testing.T) {
	const n = 40
	runs := make([]run, n)
	for i := range runs {
		runs[i] = tagged(i, time.Duration(n-i)*100*time.Microsecond)
	}
	for _, par := range []int{1, 3, 8} {
		outs := RunOpts{Par: par}.runAll(runs, 0)
		if len(outs) != n {
			t.Fatalf("par=%d: %d outcomes, want %d", par, len(outs), n)
		}
		for i, o := range outs {
			if o.err != nil || o.result.Digest != uint64(i) || o.label != runs[i].label {
				t.Errorf("par=%d: slot %d holds %q: run %d, %v", par, i, o.label, o.result.Digest, o.err)
			}
		}
	}
}

// TestPoolReturnsEachResultByIndex: every slot holds the whole result of
// its own run, slice fields included, and no two slots share storage — a
// write through one slot's flight timeline is seen by no other slot.
func TestPoolReturnsEachResultByIndex(t *testing.T) {
	const n = 23
	runs := make([]run, n)
	for i := range runs {
		runs[i] = run{fmt.Sprintf("s%d", i), func() (apps.Result, error) {
			time.Sleep(time.Duration(n-i) * 50 * time.Microsecond)
			return apps.Result{App: fmt.Sprint(i), Digest: uint64(i), Flight: []flight.Event{{Wall: int64(i)}}}, nil
		}}
	}
	for _, par := range []int{1, 4} {
		outs := RunOpts{Par: par}.runAll(runs, 0)
		for i := range outs {
			if outs[i].err != nil {
				t.Fatalf("par=%d slot %d: %v", par, i, outs[i].err)
			}
			outs[i].result.Flight[0].Wall += 1000
		}
		for i, o := range outs {
			r := o.result
			if r.App != fmt.Sprint(i) || r.Digest != uint64(i) || len(r.Flight) != 1 || r.Flight[0].Wall != int64(i)+1000 {
				t.Errorf("par=%d: slot %d holds app %q digest %d flight %+v, want run %d and its own timeline", par, i, r.App, r.Digest, r.Flight, i)
			}
		}
	}
}

// TestPoolRunsEachRunOnce: over a run count no width divides, every run
// executes exactly once.
func TestPoolRunsEachRunOnce(t *testing.T) {
	const n = 101
	var counts [n]atomic.Int64
	runs := make([]run, n)
	for i := range runs {
		runs[i] = run{fmt.Sprintf("s%d", i), func() (apps.Result, error) {
			counts[i].Add(1)
			return apps.Result{}, nil
		}}
	}
	RunOpts{Par: 7}.runAll(runs, 0)
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Errorf("run %d ran %d times", i, c)
		}
	}
}

// TestPoolIdleWorkersSteal pins the load balancing: with two workers, run
// 0 slow and the rest instant, the worker that did not claim run 0 runs
// runs 1 and 2 — where a static split {0, 1} / {2, 3} would leave run 1
// waiting behind the slow one. A run's worker is the goroutine that
// claimed it, the one that reports its progress line.
func TestPoolIdleWorkersSteal(t *testing.T) {
	runs := []run{tagged(0, 300*time.Millisecond), tagged(1, time.Millisecond), tagged(2, time.Millisecond), tagged(3, time.Millisecond)}
	ranBy := map[string]string{}
	RunOpts{Par: 2, Progress: func(line string) {
		ranBy[strings.Fields(line)[1]] = gid() // under the pool's lock
	}}.runAll(runs, 0)
	if ranBy["s1"] == ranBy["s0"] || ranBy["s1"] != ranBy["s2"] {
		t.Errorf("runs 1 and 2 not stolen by the idle worker (worker by run: %v)", ranBy)
	}
}

// gid is the current goroutine's id, from its stack header.
func gid() string {
	b := make([]byte, 64)
	return strings.Fields(string(b[:runtime.Stack(b, false)]))[1]
}

// TestPoolContainsAPanic: a panicking run fails its own outcome, and the
// sweep names it by its label, while the runs beside it complete.
func TestPoolContainsAPanic(t *testing.T) {
	vs := policies("AT")
	ws := []workload{
		{name: "fine", nodes: 2, run: func(apps.Options) (apps.Result, error) { return apps.Result{Digest: 1}, nil }},
		{name: "boom r=4", nodes: 2, run: func(apps.Options) (apps.Result, error) { panic("kaboom") }},
		{name: "also fine", nodes: 2, run: func(apps.Options) (apps.Result, error) { return apps.Result{Digest: 2}, nil }},
	}
	tab, err := RunOpts{Par: 2}.sweep(vs, ws, figLabel("g", vs, ws))
	if err == nil || !strings.HasPrefix(err.Error(), "g boom r=4 AT: panicked: kaboom") {
		t.Errorf("sweep error %v, want the panicking run's label and panic", err)
	}
	if o := tab.runs; o[0].err != nil || o[2].err != nil || o[0].result.Digest != 1 || o[2].result.Digest != 2 {
		t.Errorf("healthy runs failed beside a panic: %+v", o)
	}
}

// TestSweepFailsOnTheFirstFailureInDeclarationOrder: of two failed runs,
// the sweep's error is the one declared first, under its label, though it
// finished last.
func TestSweepFailsOnTheFirstFailureInDeclarationOrder(t *testing.T) {
	first := errors.New("first failure")
	vs := policies("AT")
	ws := []workload{
		{name: "ok", nodes: 2, run: func(apps.Options) (apps.Result, error) { return apps.Result{}, nil }},
		{name: "bad1", nodes: 2, run: func(apps.Options) (apps.Result, error) {
			time.Sleep(5 * time.Millisecond)
			return apps.Result{}, first
		}},
		{name: "bad2", nodes: 2, run: func(apps.Options) (apps.Result, error) { return apps.Result{}, errors.New("later failure") }},
	}
	_, err := RunOpts{Par: 3}.sweep(vs, ws, figLabel("g", vs, ws))
	if !errors.Is(err, first) || !strings.HasPrefix(err.Error(), "g bad1 AT: ") {
		t.Errorf("err = %v, want the first declared failure under its label", err)
	}
}

// TestPoolProgressLines: a progress line per run, delivered serially,
// counting 1..n, FAILED on a failed run; an eta while runs remain, none
// on the last.
func TestPoolProgressLines(t *testing.T) {
	const n = 9
	runs := make([]run, n)
	for i := range runs {
		runs[i] = tagged(i, 0)
	}
	runs[4].do = func() (apps.Result, error) { return apps.Result{}, errors.New("nope") }
	var inside atomic.Bool
	var lines []string
	RunOpts{Par: 3, Progress: func(line string) {
		if inside.Swap(true) {
			t.Error("two progress lines delivered at once")
		}
		time.Sleep(100 * time.Microsecond)
		lines = append(lines, line)
		inside.Store(false)
	}}.runAll(runs, 0)
	if len(lines) != n {
		t.Fatalf("%d lines, want %d", len(lines), n)
	}
	failed := 0
	for d, line := range lines {
		if !strings.HasPrefix(line, fmt.Sprintf("[%d/%d] s", d+1, n)) {
			t.Errorf("line %d = %q", d, line)
		}
		if strings.Contains(line, " FAILED") {
			failed++
			if !strings.Contains(line, "s4 (") {
				t.Errorf("a healthy run marked FAILED: %q", line)
			}
		}
	}
	if failed != 1 || strings.Contains(lines[n-1], "eta") {
		t.Errorf("%d FAILED lines, last line %q", failed, lines[n-1])
	}
	if s := progressLine(3, 10, outcome{label: "x"}, 2*time.Millisecond, time.Second); s != "[3/10] x (2ms) eta 2.3s" {
		t.Errorf("progressLine mid-grid = %q", s)
	}
	if s := progressLine(10, 10, outcome{label: "y", err: errors.New("nope")}, time.Millisecond, time.Second); s != "[10/10] y (1ms) FAILED" {
		t.Errorf("progressLine of a failed last run = %q", s)
	}
}

// TestPoolEmptyAndOneRunGrids: a grid without cells runs nothing, and a
// one-run grid hands its outcome back whatever the width.
func TestPoolEmptyAndOneRunGrids(t *testing.T) {
	if tab := (RunOpts{Par: 8}).grid(policies("AT"), nil, nil, 0); len(tab.runs) != 0 || len(tab.cells) != 0 {
		t.Fatalf("empty grid: %+v", tab)
	}
	one := []workload{{name: "one", nodes: 2, run: func(apps.Options) (apps.Result, error) { return apps.Result{Digest: 7}, nil }}}
	tab := RunOpts{Par: 8}.grid(policies("AT"), one, figLabel("g", policies("AT"), one), 0)
	if len(tab.runs) != 1 || tab.runs[0].result.Digest != 7 || tab.runs[0].label != "g one AT" {
		t.Fatalf("one-run grid: %+v", tab.runs)
	}
}

// TestTrialSeed pins the trial seeds every multi-trial table was made
// with: trial 0, and any below it, is the canonical input, seed 0.
func TestTrialSeed(t *testing.T) {
	for trial, want := range map[int]uint64{
		-3: 0, 0: 0,
		1: 0x910a2dec89025cc1, 2: 0x975835de1c9756ce, 3: 0x1d0b14e4db018fed, 1000: 0x3c1eba8b4dccc148,
	} {
		if got := trialSeed(trial); got != want {
			t.Errorf("trialSeed(%d) = %#x, want %#x", trial, got, want)
		}
	}
}

// TestWidth: the one place a worker count of "as many as there are cores"
// is resolved, read by the pool and by dsmbench's banner alike.
func TestWidth(t *testing.T) {
	if got, want := Width(0), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("Width(0) = %d, want GOMAXPROCS = %d", got, want)
	}
	if Width(-1) != Width(0) || Width(3) != 3 {
		t.Errorf("Width(-1), Width(3) = %d, %d", Width(-1), Width(3))
	}
}
