package stats

import (
	"testing"

	"repro/internal/sim"
)

func mkMetrics(t sim.Time, msgs, migr int64) Metrics {
	var m Metrics
	m.ExecTime = t
	m.FinalTime = t + 10
	m.Msgs[ObjReq] = msgs
	m.Bytes[ObjReq] = msgs * 100
	m.Msgs[LockMsg] = 5 // sync traffic, excluded from Msgs aggregates
	m.Migrations = migr
	m.Kernel.Events = uint64(msgs) * 3
	return m
}

// A single trial must aggregate to itself exactly — the invariant that
// keeps -trials 1 sweep tables byte-identical to the pre-aggregation
// output.
func TestAggregateSingleTrialIsIdentity(t *testing.T) {
	m := mkMetrics(1000, 42, 7)
	a := Aggregate([]Metrics{m})
	if a.N != 1 {
		t.Fatalf("N = %d", a.N)
	}
	if a.Mean != m {
		t.Errorf("Mean differs from the single trial:\n%+v\nvs\n%+v", a.Mean, m)
	}
	if a.ExecTime != (TimeAgg{Mean: 1000, Min: 1000, Max: 1000}) {
		t.Errorf("ExecTime agg = %+v", a.ExecTime)
	}
	if got := a.Mean.TotalMsgs(false); got != 42 {
		t.Errorf("Mean msgs = %d, want 42 (sync traffic must be excluded)", got)
	}
}

func TestAggregateMeanMinMax(t *testing.T) {
	ms := []Metrics{
		mkMetrics(1000, 10, 1),
		mkMetrics(2000, 20, 2),
		mkMetrics(3000, 30, 6),
	}
	a := Aggregate(ms)
	if a.N != 3 {
		t.Fatalf("N = %d", a.N)
	}
	if a.ExecTime != (TimeAgg{Mean: 2000, Min: 1000, Max: 3000}) {
		t.Errorf("ExecTime agg = %+v", a.ExecTime)
	}
	if got := a.Mean.TotalMsgs(false); got != 20 {
		t.Errorf("Mean msgs = %d, want 20", got)
	}
	if got := a.Mean.TotalBytes(false); got != 2000 {
		t.Errorf("Mean bytes = %d, want 2000", got)
	}
	if a.Mean.Migrations != 3 {
		t.Errorf("Mean migrations = %d, want 3", a.Mean.Migrations)
	}
	if a.Mean.Msgs[ObjReq] != 20 || a.Mean.Bytes[ObjReq] != 2000 {
		t.Errorf("Mean counters = %d msgs / %d bytes", a.Mean.Msgs[ObjReq], a.Mean.Bytes[ObjReq])
	}
	if a.Mean.Kernel.Events != 60 {
		t.Errorf("Mean kernel events = %d", a.Mean.Kernel.Events)
	}
	if a.Mean.FinalTime != 2010 {
		t.Errorf("Mean FinalTime = %v", a.Mean.FinalTime)
	}
}

func TestMeanOfIdenticalRunsIsThatRun(t *testing.T) {
	m := mkMetrics(1234, 56, 3)
	got := MeanOf([]Metrics{m, m, m})
	if got != m {
		t.Errorf("mean of identical runs differs:\n%+v\nvs\n%+v", got, m)
	}
}

func TestAggregatePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Aggregate(nil) did not panic")
		}
	}()
	Aggregate(nil)
}
