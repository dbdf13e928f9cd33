package bench

import (
	"bytes"
	"strings"
	"testing"
)

// tinySizes keeps harness tests fast; figure *shape* assertions use
// slightly larger runs below.
func tinySizes() Sizes {
	return Sizes{ASPN: 32, SORN: 32, SORIters: 4, NbodyN: 32, NbodySteps: 2, TSPCities: 7}
}

func TestFig2ProducesAllRows(t *testing.T) {
	rows, err := Fig2(tinySizes(), []int{2, 4}, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Apps)*2 {
		t.Fatalf("rows = %d, want %d", len(rows), len(Apps)*2)
	}
	for _, r := range rows {
		if r.NoHM <= 0 || r.HM <= 0 {
			t.Fatalf("%s p=%d: zero time", r.App, r.Procs)
		}
	}
	var buf bytes.Buffer
	PrintFig2(&buf, tinySizes(), rows)
	if !strings.Contains(buf.String(), "Figure 2") || !strings.Contains(buf.String(), "ASP") {
		t.Fatal("Fig2 table incomplete")
	}
}

func TestFig2ShapeASPAndSORFavorHM(t *testing.T) {
	// The qualitative claim of §5.1: home migration improves ASP and SOR
	// a lot, and is near-neutral for Nbody and TSP.
	s := Sizes{ASPN: 64, SORN: 64, SORIters: 12, NbodyN: 128, NbodySteps: 12, TSPCities: 8}
	rows, err := Fig2(s, []int{8}, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	byApp := map[string]Fig2Row{}
	for _, r := range rows {
		byApp[r.App] = r
	}
	for _, app := range []string{"ASP", "SOR"} {
		r := byApp[app]
		if r.HM >= r.NoHM {
			t.Errorf("%s: HM (%v) not faster than NoHM (%v)", app, r.HM, r.NoHM)
		}
		if r.HMMsgs >= r.NoHMMsgs {
			t.Errorf("%s: HM msgs %d not fewer than NoHM %d", app, r.HMMsgs, r.NoHMMsgs)
		}
	}
	for _, app := range []string{"Nbody", "TSP"} {
		r := byApp[app]
		ratio := float64(r.HM) / float64(r.NoHM)
		// "Little impact" band. At these scaled sizes Nbody carries a
		// visible one-time relocation cost (every multiple-writer chunk
		// migrates once and readers pay one redirect each); the paper's
		// full-size runs (dsmbench -fig 2 -full) amortize it further.
		if ratio > 1.20 || ratio < 0.5 {
			t.Errorf("%s: HM/NoHM time ratio %.2f, want near-neutral", app, ratio)
		}
	}
}

func TestFig3ProducesImprovements(t *testing.T) {
	rows, err := Fig3(Sizes{SORIters: 6, Fig3ASP: []int{48, 96}, Fig3SOR: []int{48, 96}}, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	// AT must beat FT2 on message number for these single-writer apps
	// (§5.1: "AT improves the performance of ASP and SOR compared with
	// FT").
	for _, r := range rows {
		if r.MsgPct <= 0 {
			t.Errorf("%s n=%d: AT did not reduce messages vs FT2 (%.1f%%)", r.App, r.Size, r.MsgPct)
		}
	}
	var buf bytes.Buffer
	PrintFig3(&buf, rows)
	if !strings.Contains(buf.String(), "Figure 3") {
		t.Fatal("Fig3 table incomplete")
	}
}

func TestFig5ShapeMatchesPaper(t *testing.T) {
	rows, err := Fig5(Fig5Config{Repetitions: []int{2, 16}, Workers: 4, TotalUpdates: 512}, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	get := func(rep int, pol string) Fig5Row {
		for _, r := range rows {
			if r.Repetition == rep && r.Protocol == pol {
				return r
			}
		}
		t.Fatalf("missing row %d/%s", rep, pol)
		return Fig5Row{}
	}
	// Lasting pattern (r=16): FT1 eliminates the bulk of fault-ins and
	// diffs (§5.2 reports 87.2%); AT matches FT1's sensitivity.
	if e := get(16, "FT1").EliminationPct; e < 60 {
		t.Errorf("FT1 elimination at r=16 = %.1f%%, want large", e)
	}
	if e := get(16, "AT").EliminationPct; e < 60 {
		t.Errorf("AT elimination at r=16 = %.1f%%, want large", e)
	}
	// Transient pattern (r=2): FT2 prohibits migration in steady state
	// (the final writer's termination check can trigger one terminal
	// migration); AT suppresses redirection relative to FT1.
	if m := get(2, "FT2").Migrations; m > 1 {
		t.Errorf("FT2 migrated %d times at r=2, paper: prohibits migration", m)
	}
	if at, ft1 := get(2, "AT").Breakdown.Redir, get(2, "FT1").Breakdown.Redir; at >= ft1 {
		t.Errorf("AT redir %d not below FT1 %d at r=2", at, ft1)
	}
	// Normalization: every group has a 1.0 max.
	for _, rep := range []int{2, 16} {
		var maxT, maxM float64
		for _, pol := range Fig5Protocols {
			r := get(rep, pol)
			if r.NormTime > maxT {
				maxT = r.NormTime
			}
			if r.NormMsgs > maxM {
				maxM = r.NormMsgs
			}
		}
		if maxT != 1 || maxM != 1 {
			t.Errorf("r=%d: normalization maxima = %v/%v, want 1/1", rep, maxT, maxM)
		}
	}
	var buf bytes.Buffer
	PrintFig5a(&buf, rows)
	PrintFig5b(&buf, rows)
	out := buf.String()
	if !strings.Contains(out, "Figure 5(a)") || !strings.Contains(out, "Figure 5(b)") {
		t.Fatal("Fig5 tables incomplete")
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations in -short mode")
	}
	loc, err := AblateLocator(RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(loc) != 6 {
		t.Fatalf("locator rows = %d", len(loc))
	}
	lam, err := AblateLambda(RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(lam) != 5 {
		t.Fatalf("lambda rows = %d", len(lam))
	}
	ti, err := AblateTInit(RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// T_init=1 must relocate at least as fast as larger initial
	// thresholds (the §4.2 argument).
	if ti[0].Time > ti[len(ti)-1].Time {
		t.Errorf("T_init=1 slower than T_init=8: %v vs %v", ti[0].Time, ti[len(ti)-1].Time)
	}
	rel, err := AblateRelated(RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rel) != 10 {
		t.Fatalf("related rows = %d", len(rel))
	}
	pig, err := AblatePiggyback(RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// Piggybacking must strictly reduce standalone messages for NM.
	if pig[0].Msgs >= pig[1].Msgs {
		t.Errorf("piggyback on (%d msgs) not fewer than off (%d)", pig[0].Msgs, pig[1].Msgs)
	}
	var buf bytes.Buffer
	PrintAblation(&buf, "locator", loc)
	if !strings.Contains(buf.String(), "fwdptr") {
		t.Fatal("ablation table incomplete")
	}
}

// TestHeadlineNumbers pins the reproduction's headline statistics at the
// paper's exact synthetic configuration (8 workers, r=16). Deterministic
// simulation makes these stable; if a protocol change moves them, this
// test forces the change to be deliberate (README "Determinism").
func TestHeadlineNumbers(t *testing.T) {
	if testing.Short() {
		t.Skip("full-config headline runs in -short mode")
	}
	rows, err := Fig5(Fig5Config{Repetitions: []int{2, 16}}, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	get := func(rep int, pol string) Fig5Row {
		for _, r := range rows {
			if r.Repetition == rep && r.Protocol == pol {
				return r
			}
		}
		t.Fatalf("missing %d/%s", rep, pol)
		return Fig5Row{}
	}
	// Paper §5.2: 87.2% of fault-ins+diffs eliminated by FT1 at r=16.
	// Our measured band: mid-80s.
	if e := get(16, "FT1").EliminationPct; e < 80 || e > 92 {
		t.Errorf("FT1 elimination at r=16 = %.1f%%, expected ~85.8%% (paper: 87.2%%)", e)
	}
	// AT matches FT1 exactly at r=16 (sensitivity).
	ft1, at := get(16, "FT1"), get(16, "AT")
	if ft1.Breakdown != at.Breakdown {
		t.Errorf("AT != FT1 at r=16:\nFT1 %+v\nAT  %+v", ft1.Breakdown, at.Breakdown)
	}
	// Robustness at r=2: AT suppresses ≥90% of FT1's redirections.
	if atR, ftR := get(2, "AT").Breakdown.Redir, get(2, "FT1").Breakdown.Redir; atR*10 > ftR {
		t.Errorf("AT redirections %d vs FT1 %d at r=2: suppression below 90%%", atR, ftR)
	}
	// FT2 prohibits steady-state migration at r=2.
	if m := get(2, "FT2").Migrations; m > 1 {
		t.Errorf("FT2 migrations at r=2 = %d", m)
	}
}
