package bench

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
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
