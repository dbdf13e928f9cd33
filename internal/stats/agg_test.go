package stats

import (
	"reflect"
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

// numericFields lists every numeric field of the struct v points to,
// depth first through nested structs and arrays, so a field added to
// Metrics later is covered without touching the tests below.
func numericFields(t *testing.T, v reflect.Value) []reflect.Value {
	t.Helper()
	switch v.Kind() {
	case reflect.Pointer:
		return numericFields(t, v.Elem())
	case reflect.Struct:
		var out []reflect.Value
		for i := 0; i < v.NumField(); i++ {
			out = append(out, numericFields(t, v.Field(i))...)
		}
		return out
	case reflect.Array:
		var out []reflect.Value
		for i := 0; i < v.Len(); i++ {
			out = append(out, numericFields(t, v.Index(i))...)
		}
		return out
	case reflect.Int, reflect.Int32, reflect.Int64, reflect.Uint32, reflect.Uint64:
		return []reflect.Value{v}
	}
	t.Fatalf("Metrics has a %s field: teach MeanOf, Add and this test about it", v.Type())
	return nil
}

// fieldValue reads a numeric field as an int64.
func fieldValue(v reflect.Value) int64 {
	if v.CanInt() {
		return v.Int()
	}
	return int64(v.Uint())
}

// distinctMetrics sets the i-th numeric field of a Metrics to i+1.
func distinctMetrics(t *testing.T) Metrics {
	var m Metrics
	for i, f := range numericFields(t, reflect.ValueOf(&m)) {
		if f.CanInt() {
			f.SetInt(int64(i + 1))
		} else {
			f.SetUint(uint64(i + 1))
		}
	}
	return m
}

// Every field survives the mean: wall time, live frame counts and queue
// peaks included, and the latency histograms are averaged, not summed.
func TestMeanOfKeepsEveryField(t *testing.T) {
	m := distinctMetrics(t)
	for _, k := range []int{2, 3} {
		ms := make([]Metrics, k)
		for i := range ms {
			ms[i] = m
		}
		got := MeanOf(ms)
		want := numericFields(t, reflect.ValueOf(&m))
		for i, f := range numericFields(t, reflect.ValueOf(&got)) {
			if fieldValue(f) != fieldValue(want[i]) {
				t.Errorf("K=%d: numeric field %d (%s) = %d, want %d", k, i, f.Type(), fieldValue(f), fieldValue(want[i]))
			}
		}
	}
}

func TestMetricsAddDoublesEveryField(t *testing.T) {
	m := distinctMetrics(t)
	d := m
	d.Add(&m)
	for i, f := range numericFields(t, reflect.ValueOf(&d)) {
		if got, want := fieldValue(f), 2*int64(i+1); got != want {
			t.Errorf("numeric field %d (%s) = %d after Add, want %d", i, f.Type(), got, want)
		}
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
