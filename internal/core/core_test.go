package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/memory"
)

// fixedAlpha returns a Params with a constant α, isolating threshold
// arithmetic from the Hockney deduction.
func fixedAlpha(a float64) Params {
	return Params{Lambda: 1, TInit: 1, Alpha: func(o, d int) float64 { return a }}
}

func TestInitialThresholdIsTInit(t *testing.T) {
	p := fixedAlpha(2)
	s := NewState(p, 1024)
	if got := s.Threshold(p); got != 1 {
		t.Fatalf("T_0 = %v, want 1 (§4.2: initial threshold set to 1)", got)
	}
}

func TestConsecutiveRemoteWritesSameWriter(t *testing.T) {
	p := fixedAlpha(2)
	s := NewState(p, 1024)
	for i := 1; i <= 5; i++ {
		s.RemoteWrite(3, 64)
		if s.C != i {
			t.Fatalf("after %d writes C = %d", i, s.C)
		}
	}
	if s.LastWriter != 3 {
		t.Fatalf("LastWriter = %d", s.LastWriter)
	}
}

func TestDifferentWriterResetsRun(t *testing.T) {
	p := fixedAlpha(2)
	s := NewState(p, 1024)
	s.RemoteWrite(3, 64)
	s.RemoteWrite(3, 64)
	s.RemoteWrite(7, 64)
	if s.C != 1 || s.LastWriter != 7 {
		t.Fatalf("C=%d last=%d, want 1/7", s.C, s.LastWriter)
	}
}

func TestHomeWriteBreaksRun(t *testing.T) {
	p := fixedAlpha(2)
	s := NewState(p, 1024)
	s.RemoteWrite(3, 64)
	s.RemoteWrite(3, 64)
	s.HomeWrite(p)
	if s.C != 0 || s.LastWriter != memory.NoNode {
		t.Fatalf("home write did not break run: C=%d last=%d", s.C, s.LastWriter)
	}
}

func TestExclusiveHomeWriteDefinition(t *testing.T) {
	// §4.1: exclusive home write = no remote write between it and an
	// earlier home write. The first home write has no earlier one.
	p := fixedAlpha(2)
	s := NewState(p, 1024)
	if s.HomeWrite(p) {
		t.Fatal("first home write counted as exclusive")
	}
	if !s.HomeWrite(p) {
		t.Fatal("second consecutive home write not exclusive")
	}
	s.RemoteWrite(4, 64)
	if s.HomeWrite(p) {
		t.Fatal("home write after remote write counted as exclusive")
	}
	if !s.HomeWrite(p) {
		t.Fatal("home write after home write not exclusive")
	}
	if s.E != 2 {
		t.Fatalf("E = %d, want 2", s.E)
	}
}

func TestThresholdDecreasesWithE(t *testing.T) {
	// Positive feedback (E) must monotonically lower the threshold until
	// it clamps at T_init (§4: "monotonously decreasing with increased
	// likelihood of the lasting single-writer pattern").
	p := fixedAlpha(1.5)
	s := NewState(p, 1024)
	s.est.TBase = 10
	s.HomeWrite(p)
	prev := s.Threshold(p)
	for i := 0; i < 20; i++ {
		s.HomeWrite(p)
		cur := s.Threshold(p)
		if cur > prev {
			t.Fatalf("threshold rose with E: %v -> %v", prev, cur)
		}
		prev = cur
	}
	if prev != 1 {
		t.Fatalf("threshold floor = %v, want clamp at T_init=1", prev)
	}
}

func TestThresholdIncreasesWithR(t *testing.T) {
	p := fixedAlpha(2)
	s := NewState(p, 1024)
	s.Redirected(3)
	if got := s.Threshold(p); got != 4 {
		t.Fatalf("T after 3 redirection hops = %v, want 1+3=4", got)
	}
	s.Redirected(2)
	if got := s.Threshold(p); got != 6 {
		t.Fatalf("T after 5 hops = %v, want 6", got)
	}
}

func TestRedirectedIgnoresNonPositive(t *testing.T) {
	p := fixedAlpha(2)
	s := NewState(p, 1024)
	s.Redirected(0)
	s.Redirected(-5)
	if s.R != 0 {
		t.Fatalf("R = %d, want 0", s.R)
	}
}

func TestEquationTwo(t *testing.T) {
	// T_i = max(T_{i-1} + λ(R_i − αE_i), T_init) with λ=1, α=2:
	// T_{i-1}=5, R=4, E=3 ⇒ 5 + (4 − 6) = 3.
	p := fixedAlpha(2)
	s := NewState(p, 1024)
	s.est.TBase = 5
	s.Redirected(4)
	s.HomeWrite(p)
	for i := 0; i < 3; i++ {
		s.HomeWrite(p) // 3 exclusive home writes
	}
	if got := s.Threshold(p); math.Abs(got-3) > 1e-12 {
		t.Fatalf("T = %v, want 3", got)
	}
}

func TestLambdaScalesFeedback(t *testing.T) {
	p := Params{Lambda: 0.5, TInit: 1, Alpha: func(o, d int) float64 { return 2 }}
	s := NewState(p, 1024)
	s.est.TBase = 5
	s.Redirected(4)
	// 5 + 0.5*4 = 7
	if got := s.Threshold(p); got != 7 {
		t.Fatalf("T = %v, want 7", got)
	}
}

func TestMigrateFreezesAndRecordRoundTrips(t *testing.T) {
	p := fixedAlpha(2)
	s := NewState(p, 512)
	s.RemoteWrite(3, 100)
	s.RemoteWrite(3, 60)
	s.Redirected(2)
	tBefore := s.Threshold(p)
	rec := s.Migrate(p)
	if rec.TBase != tBefore {
		t.Fatalf("Record.TBase = %v, want frozen threshold %v", rec.TBase, tBefore)
	}
	if rec.Epoch != 1 {
		t.Fatalf("Record.Epoch = %d, want 1", rec.Epoch)
	}
	ns := FromRecord(p, 512, *rec)
	if ns.C != 0 || ns.R != 0 || ns.E != 0 {
		t.Fatalf("new epoch state not reset: %v", ns)
	}
	if ns.Threshold(p) != tBefore {
		t.Fatalf("new epoch threshold = %v, want %v", ns.Threshold(p), tBefore)
	}
	if ns.Epoch != 1 {
		t.Fatalf("new epoch = %d", ns.Epoch)
	}
	// Diff-size estimate survives the migration.
	if math.Abs(ns.est.AvgDiff-80) > 1e-9 {
		t.Fatalf("avgDiff = %v, want 80", ns.est.AvgDiff)
	}
}

func TestFromRecordClampsTBase(t *testing.T) {
	p := fixedAlpha(2)
	ns := FromRecord(p, 64, Record{TBase: 0.2})
	if got := ns.Threshold(p); got != 1 {
		t.Fatalf("threshold from sub-TInit record = %v, want 1", got)
	}
}

func TestDiffSizeEstimateConverges(t *testing.T) {
	p := fixedAlpha(2)
	s := NewState(p, 8192)
	for i := 0; i < 100; i++ {
		s.RemoteWrite(1, 200)
	}
	if math.Abs(s.est.AvgDiff-200) > 40 {
		t.Fatalf("avgDiff = %v, want ≈200", s.est.AvgDiff)
	}
}

func TestAlphaUsesObjectAndDiffSize(t *testing.T) {
	var gotO, gotD int
	p := Params{Lambda: 1, TInit: 1, Alpha: func(o, d int) float64 {
		gotO, gotD = o, d
		return 1
	}}
	s := NewState(p, 4096)
	s.RemoteWrite(1, 128)
	s.Alpha(p)
	if gotO != 4096 || gotD != 128 {
		t.Fatalf("Alpha called with o=%d d=%d", gotO, gotD)
	}
}

func TestStringContainsCounters(t *testing.T) {
	p := fixedAlpha(2)
	s := NewState(p, 64)
	s.RemoteWrite(5, 8)
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

// Property: the threshold never drops below T_init regardless of the
// event sequence (Eq. 2's max with T_init).
func TestThresholdFloorProperty(t *testing.T) {
	p := fixedAlpha(3)
	f := func(events []uint8) bool {
		s := NewState(p, 256)
		for _, ev := range events {
			switch ev % 4 {
			case 0:
				s.RemoteWrite(memory.NodeID(ev%8), int(ev))
			case 1:
				s.HomeWrite(p)
			case 2:
				s.Redirected(int(ev % 5))
			case 3:
				if s.C > 0 && float64(s.C) >= s.Threshold(p) {
					rec := s.Migrate(p)
					s = FromRecord(p, 256, *rec)
				}
			}
			if s.Threshold(p) < p.TInit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: C counts the length of the trailing same-writer run exactly.
func TestConsecutiveRunProperty(t *testing.T) {
	p := fixedAlpha(2)
	f := func(writers []uint8) bool {
		s := NewState(p, 64)
		run, last := 0, memory.NoNode
		for _, w := range writers {
			n := memory.NodeID(w % 4)
			s.RemoteWrite(n, 8)
			if n == last {
				run++
			} else {
				run, last = 1, n
			}
			if s.C != run || s.LastWriter != last {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: with only positive feedback the sequence of thresholds across
// migrations is non-increasing (the "monotonously decreasing with
// increased likelihood" claim of §4).
func TestThresholdMonotoneUnderPositiveFeedbackProperty(t *testing.T) {
	p := fixedAlpha(2)
	f := func(nWrites uint8) bool {
		s := NewState(p, 256)
		s.est.TBase = 8
		prev := s.Threshold(p)
		s.HomeWrite(p)
		for i := 0; i < int(nWrites%50); i++ {
			s.HomeWrite(p)
			cur := s.Threshold(p)
			if cur > prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
