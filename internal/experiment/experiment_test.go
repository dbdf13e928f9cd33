package experiment

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stats"
)

// metricTagged fabricates a distinguishable Metrics value, identifying a
// run by a tag stashed in Migrations.
func metricTagged(tag int64) stats.Metrics {
	var m stats.Metrics
	m.Migrations = tag
	return m
}

func TestPoolPreservesSpecOrder(t *testing.T) {
	const n = 40
	specs := make([]Spec[stats.Metrics], n)
	for i := 0; i < n; i++ {
		specs[i] = Spec[stats.Metrics]{
			Label: fmt.Sprintf("spec%d", i),
			Run: func() (stats.Metrics, error) {
				// Reverse-skewed durations so completion order inverts
				// spec order under any parallel schedule.
				time.Sleep(time.Duration(n-i) * 100 * time.Microsecond)
				return metricTagged(int64(i)), nil
			},
		}
	}
	for _, workers := range []int{1, 3, 8} {
		outs := Run(&Pool{Workers: workers}, specs)
		if len(outs) != n {
			t.Fatalf("workers=%d: %d outcomes, want %d", workers, len(outs), n)
		}
		for i, o := range outs {
			if o.Err != nil {
				t.Fatalf("workers=%d spec %d: %v", workers, i, o.Err)
			}
			if o.Result.Migrations != int64(i) {
				t.Errorf("workers=%d: outcome %d holds run %d", workers, i, o.Result.Migrations)
			}
			if o.Label != specs[i].Label {
				t.Errorf("workers=%d: outcome %d labeled %q", workers, i, o.Label)
			}
		}
	}
}

func TestPoolRunsEverySpecExactlyOnce(t *testing.T) {
	const n = 101 // not a multiple of the worker count: uneven deques
	var counts [n]atomic.Int64
	specs := make([]Spec[stats.Metrics], n)
	for i := 0; i < n; i++ {
		specs[i] = Spec[stats.Metrics]{Label: fmt.Sprintf("s%d", i), Run: func() (stats.Metrics, error) {
			counts[i].Add(1)
			return stats.Metrics{}, nil
		}}
	}
	Run(&Pool{Workers: 7}, specs)
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Errorf("spec %d ran %d times", i, c)
		}
	}
}

// TestPoolStealsWork pins the load-balancing property. With two workers,
// spec 0 is slow and the rest are instant, so the worker that did not
// claim spec 0 must run spec 1 (and 2) — rather than idle while the slow
// worker works through a block of its own sequentially, as a static split
// {0, 1} / {2, 3} would have it.
func TestPoolStealsWork(t *testing.T) {
	var mu sync.Mutex
	ranBy := map[int]string{}
	mk := func(i int, d time.Duration) Spec[stats.Metrics] {
		return Spec[stats.Metrics]{Label: fmt.Sprintf("s%d", i), Run: func() (stats.Metrics, error) {
			id := gid()
			time.Sleep(d)
			mu.Lock()
			ranBy[i] = id
			mu.Unlock()
			return stats.Metrics{}, nil
		}}
	}
	specs := []Spec[stats.Metrics]{
		mk(0, 300*time.Millisecond),
		mk(1, time.Millisecond),
		mk(2, time.Millisecond),
		mk(3, time.Millisecond),
	}
	Run(&Pool{Workers: 2}, specs)
	if ranBy[1] == ranBy[0] {
		t.Errorf("spec 1 ran on the slow worker's goroutine: not stolen (ranBy=%v)", ranBy)
	}
	if ranBy[1] != ranBy[2] {
		t.Errorf("spec 1 not stolen by the idle worker (ranBy=%v)", ranBy)
	}
}

// gid returns the current goroutine's id from its stack header — a cheap
// worker identifier for the stealing test.
func gid() string {
	b := make([]byte, 64)
	n := runtime.Stack(b, false)
	return strings.Fields(string(b[:n]))[1]
}

func TestPoolPanicBecomesSpecError(t *testing.T) {
	specs := []Spec[stats.Metrics]{
		{Label: "fine", Run: func() (stats.Metrics, error) { return metricTagged(1), nil }},
		{Label: "boom r=4", Run: func() (stats.Metrics, error) { panic("kaboom") }},
		{Label: "also fine", Run: func() (stats.Metrics, error) { return metricTagged(2), nil }},
	}
	done := make(chan []Outcome[stats.Metrics], 1)
	go func() { done <- Run(&Pool{Workers: 2}, specs) }()
	var outs []Outcome[stats.Metrics]
	select {
	case outs = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("pool deadlocked after a panicking run")
	}
	if outs[0].Err != nil || outs[2].Err != nil {
		t.Fatalf("healthy specs failed: %v / %v", outs[0].Err, outs[2].Err)
	}
	if outs[1].Err == nil {
		t.Fatal("panicking spec reported no error")
	}
	for _, want := range []string{"boom r=4", "kaboom", "experiment_test.go"} {
		if !strings.Contains(outs[1].Err.Error(), want) {
			t.Errorf("panic error lacks %q:\n%v", want, outs[1].Err)
		}
	}
}

// (Named for Pool.Metrics, whose "first failure" FirstErr kept when the
// pool became generic; the behaviour pinned is the same.)
func TestMetricsReturnsFirstErrorInSpecOrder(t *testing.T) {
	errA := errors.New("first failure")
	specs := []Spec[stats.Metrics]{
		{Label: "ok", Run: func() (stats.Metrics, error) { return stats.Metrics{}, nil }},
		{Label: "bad1", Run: func() (stats.Metrics, error) {
			time.Sleep(5 * time.Millisecond) // finishes after bad2
			return stats.Metrics{}, errA
		}},
		{Label: "bad2", Run: func() (stats.Metrics, error) { return stats.Metrics{}, errors.New("later failure") }},
	}
	err := FirstErr(Run(&Pool{Workers: 3}, specs))
	if err == nil || !errors.Is(err, errA) {
		t.Fatalf("err = %v, want the spec-order-first error %v", err, errA)
	}
	if !strings.Contains(err.Error(), "bad1") {
		t.Errorf("error lacks spec label: %v", err)
	}
}

func TestPoolProgressEvents(t *testing.T) {
	const n = 9
	specs := make([]Spec[stats.Metrics], n)
	for i := range specs {
		specs[i] = Spec[stats.Metrics]{Label: fmt.Sprintf("s%d", i), Run: func() (stats.Metrics, error) {
			return stats.Metrics{}, nil
		}}
	}
	var mu sync.Mutex
	var events []Event
	p := &Pool{Workers: 3, Progress: func(e Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}}
	Run(p, specs)
	if len(events) != n {
		t.Fatalf("%d events, want %d", len(events), n)
	}
	seenDone := map[int]bool{}
	for _, e := range events {
		if e.Total != n {
			t.Errorf("event Total = %d, want %d", e.Total, n)
		}
		if seenDone[e.Done] {
			t.Errorf("Done=%d emitted twice", e.Done)
		}
		seenDone[e.Done] = true
	}
	if !seenDone[n] {
		t.Error("no completion event with Done == Total")
	}
	last := Event{Done: 3, Total: 10, Label: "x", Wall: 2 * time.Millisecond, ETA: 3 * time.Second}
	if s := last.String(); !strings.Contains(s, "[3/10] x") || !strings.Contains(s, "eta") {
		t.Errorf("Event.String = %q", s)
	}
	failed := Event{Done: 10, Total: 10, Label: "y", Err: errors.New("nope")}
	if s := failed.String(); !strings.Contains(s, "FAILED") || strings.Contains(s, "eta") {
		t.Errorf("failed-terminal Event.String = %q", s)
	}
}

func TestPoolEmptyAndTiny(t *testing.T) {
	if outs := Run[stats.Metrics](&Pool{Workers: 8}, nil); len(outs) != 0 {
		t.Fatalf("empty specs gave %d outcomes", len(outs))
	}
	outs := Run(&Pool{Workers: 8}, []Spec[stats.Metrics]{{Label: "one", Run: func() (stats.Metrics, error) {
		return metricTagged(7), nil
	}}})
	if len(outs) != 1 || outs[0].Result.Migrations != 7 {
		t.Fatalf("single-spec pool: %+v", outs)
	}
}

// TestPoolReturnsAnyResultByIndex: the pool is generic over what a run
// produces. A struct holding a slice comes back whole in its spec's slot
// at any width, and no two slots share storage — the property that lets a
// client take digests and verdicts from the outcomes instead of writing
// them into slots of its own from inside Run.
func TestPoolReturnsAnyResultByIndex(t *testing.T) {
	type result struct {
		Digest uint64
		Notes  []string
	}
	const n = 23
	specs := make([]Spec[result], n)
	for i := range specs {
		specs[i] = Spec[result]{Label: fmt.Sprintf("s%d", i), Run: func() (result, error) {
			time.Sleep(time.Duration(n-i) * 50 * time.Microsecond)
			return result{Digest: uint64(i), Notes: []string{fmt.Sprint(i)}}, nil
		}}
	}
	for _, workers := range []int{1, 4} {
		outs := Run(&Pool{Workers: workers}, specs)
		if err := FirstErr(outs); err != nil {
			t.Fatal(err)
		}
		for i := range outs {
			outs[i].Result.Notes[0] += "!"
		}
		for i, o := range outs {
			r := o.Result
			if want := fmt.Sprint(i) + "!"; r.Digest != uint64(i) || len(r.Notes) != 1 || r.Notes[0] != want {
				t.Errorf("workers=%d: slot %d holds %+v, want digest %d and its own note %q", workers, i, r, i, want)
			}
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

func TestTrialSeed(t *testing.T) {
	if TrialSeed(0) != 0 {
		t.Fatal("trial 0 must map to the canonical seed 0")
	}
	if TrialSeed(-3) != 0 {
		t.Fatal("negative trials must map to 0")
	}
	seen := map[uint64]int{}
	for i := 1; i <= 1000; i++ {
		s := TrialSeed(i)
		if s == 0 {
			t.Fatalf("trial %d mapped to the canonical seed", i)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("trials %d and %d collide on seed %#x", prev, i, s)
		}
		seen[s] = i
	}
	if TrialSeed(5) != TrialSeed(5) {
		t.Fatal("TrialSeed not deterministic")
	}
}
