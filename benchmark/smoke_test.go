package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/prng"
)

// The children of a launch are re-exec'd from the running binary; under
// `go test` that is the test binary, so TestMain doubles as their entry.
func TestMain(m *testing.M) {
	if len(os.Args) > 2 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2]))
	}
	os.Exit(m.Run())
}

const toyDeadline = 30 * time.Second

func toyParams(skew int) runParams {
	return runParams{Warm: 4, Units: 2 * epochs, Seed: 7, Skew: skew}
}

// TestHistQuantilesAgainstExactSamples: the log-linear histogram's
// quantiles stay within 3 % of the exact order statistics, merged or not,
// and recording allocates nothing.
func TestHistQuantilesAgainstExactSamples(t *testing.T) {
	r := prng.New(42)
	var a, b, merged hist
	var exact []float64
	for i := 0; i < 200000; i++ {
		// Log-uniform over 100 ns .. 100 ms, the range of real latencies.
		v := int64(100 * math.Pow(10, 6*r.Float64()))
		exact = append(exact, float64(v))
		if i%2 == 0 {
			a.record(v)
		} else {
			b.record(v)
		}
	}
	merged.merge(&a)
	var viaWire hist
	viaWire.addSparse(b.sparse())
	merged.merge(&viaWire)
	sort.Float64s(exact)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
		want := exact[int(math.Ceil(q*float64(len(exact))))-1]
		got := merged.quantile(q)
		if rel := math.Abs(got-want) / want; rel > 0.03 {
			t.Errorf("quantile(%g) = %g, exact %g: off by %.1f%%", q, got, want, 100*rel)
		}
	}
	// The trimmed mean, against the exact samples of the same ranks.
	lo, hi := len(exact)/20, len(exact)-len(exact)/20
	var sum float64
	for _, v := range exact[lo:hi] {
		sum += v
	}
	want := sum / float64(hi-lo)
	if got := merged.meanBetween(0.05, 0.95); math.Abs(got-want)/want > 0.01 {
		t.Errorf("meanBetween(0.05, 0.95) = %g, exact %g", got, want)
	}
	if got, all := merged.meanBetween(0, 1), merged.meanBetween(0.5, 1); got <= 0 || all <= got {
		t.Errorf("mean of all %g, of the upper half %g", got, all)
	}
	if merged.n != int64(len(exact)) {
		t.Errorf("merged count %d, want %d", merged.n, len(exact))
	}
	for i := 1; i < histBuckets; i++ {
		low, width := histBounds(i)
		if histIndex(low) != i || histIndex(low+width-1) != i {
			t.Fatalf("bucket %d [%d,+%d) does not hold its own bounds", i, low, width)
		}
		if low >= histSub && float64(width)/float64(low) > 0.03 {
			t.Fatalf("bucket %d is %.1f%% wide", i, 100*float64(width)/float64(low))
		}
	}
	if n := testing.AllocsPerRun(100, func() { a.record(12345) }); n != 0 {
		t.Errorf("record allocates %v times", n)
	}
}

// TestSpecMatchesBenchmarkJSON: the names, units and directions in
// BENCHMARK.json are the ones the code reports.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	bj, err := readBenchmarkJSON(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in code", i, bj.Workloads[i].Name, w.Name)
		}
	}
	check := func(kind string, got []boundedMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s metric %d: %+v in BENCHMARK.json, %+v in code", kind, i, g, d)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

// TestSmokeWorkloads runs every workload at toy size: every end-to-end
// metric is present, finite and unit-tagged, the kernels validate (the
// children check the counter and the bit-exact SOR grid), and each
// kernel's final memory digest is the same on the simulator, the
// in-process live engine and the 4-process TCP cluster. On the simulator
// the protocol counts and the virtual time repeat bit for bit.
func TestSmokeWorkloads(t *testing.T) {
	digests := map[string]map[string]uint64{"lock": {}, "sor": {}}
	for _, kernel := range []string{"lock", "sor"} {
		for _, engine := range []string{"sim", "inproc", "tcp"} {
			if liveSORUnderRace(kernel, engine) {
				continue
			}
			w := workload{Name: kernel + "-" + engine, Kernel: kernel, Engine: engine, Policy: "AT"}
			res := launch(w, toyParams(0), false, "", toyDeadline)
			if res.Err != nil {
				t.Fatalf("%s: %v\n%s", w.Name, res.Err, res.Stderr)
			}
			s := summarize(res)
			digests[kernel][engine] = s.digest
			// workers x turns x r, or threads x iterations x phases;
			// warm-up included.
			want := int64(lockWorkers * (4 + 2*epochs) * lockReps)
			if kernel == "sor" {
				want = clusterNodes * (4 + 2*epochs) * 2
			}
			if s.totalOps != want {
				t.Errorf("%s: %d ops, want %d", w.Name, s.totalOps, want)
			}
			if engine == "sim" {
				again := summarize(launch(w, toyParams(0), false, "", toyDeadline))
				m1, b1 := s.msgsAndBytes()
				m2, b2 := again.msgsAndBytes()
				if m1 == 0 || m1 != m2 || b1 != b2 || s.metrics.ExecTime != again.metrics.ExecTime {
					t.Errorf("%s: two runs differ: %d/%d msgs, %d/%d bytes, %v/%v virtual time",
						w.Name, m1, m2, b1, b2, s.metrics.ExecTime, again.metrics.ExecTime)
				}
			}
		}
	}
	for kernel, d := range digests {
		for _, engine := range []string{"inproc", "tcp"} {
			if got, ran := d[engine]; d["sim"] == 0 || ran && got != d["sim"] {
				t.Errorf("%s kernel: digests differ across engines: %#x", kernel, d)
			}
		}
	}
	if liveSORUnderRace("sor", "tcp") {
		t.Log("race detector on: skipped SOR on the live engines")
		return
	}
	// The no-migration baseline computes the same grid.
	nohm := launch(workload{Name: "sor-nohm", Kernel: "sor", Engine: "tcp", Policy: "NoHM"}, toyParams(0), false, "", toyDeadline)
	if nohm.Err != nil {
		t.Fatalf("sor-nohm: %v\n%s", nohm.Err, nohm.Stderr)
	}
	if got := summarize(nohm).digest; got != digests["sor"]["sim"] {
		t.Errorf("sor under NoHM: digest %#x, under AT %#x: migration changed the result", got, digests["sor"]["sim"])
	}
}

// liveSORUnderRace reports a launch the race detector would fail for a
// reason the live engine documents (internal/live's package comment): a
// fault-in served from a row while its owner writes the other colour's
// cells through a bulk view is a torn read LRC permits, word-disjoint
// here, but a Go-level race on the row's memory.
func liveSORUnderRace(kernel, engine string) bool {
	return raceDetector() && kernel == "sor" && engine != "sim"
}

// raceDetector reports that this test binary, and so every child it
// re-execs, is built with -race.
func raceDetector() bool {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestEndToEndMetricsPresent measures one toy workload the way the gate
// does and checks the metric set.
func TestEndToEndMetricsPresent(t *testing.T) {
	w, _ := findWorkload("lock-inproc")
	w.Warm, w.Launches = 20, 3
	m := measureEndToEnd(w, 0.05, 1, 0)
	if m.Failed != 0 || len(m.Errors) > 0 {
		t.Fatalf("failed %d of %d: %v", m.Failed, m.Attempted, m.Errors)
	}
	set := fill(endToEnd, m.Values)
	for _, d := range endToEnd {
		v, ok := set[d.Name]
		if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value <= 0 {
			t.Errorf("metric %s = %+v (present %t): want a positive finite value in %s", d.Name, v, ok, d.Unit)
		}
	}
}

// TestLayerMetricsPresent runs the probes (quick batches) and a traced
// toy run: every per-layer metric is present and finite, the budget rows
// are non-negative and add up to the measured median, whether the probes
// stay under it or overshoot, and the Chrome-trace file loads.
func TestLayerMetricsPresent(t *testing.T) {
	probes, err := runProbes(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range probeMetrics {
		if v, ok := probes[d.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Errorf("probe %s = %v (present %t)", d.Name, v, ok)
		}
	}
	for name := range probes {
		if !strings.Contains(name, ".") {
			t.Errorf("probe %q is not named layer.metric", name)
		}
	}
	w, _ := findWorkload("lock-tcp")
	w.Warm = 10
	trace := filepath.Join(t.TempDir(), "trace.json")
	m := measureLayers(w, 0.05, 1, probes, trace)
	if m.Failed != 0 || len(m.Errors) > 0 {
		t.Fatalf("failed %d of %d: %v", m.Failed, m.Attempted, m.Errors)
	}
	set := fill(perLayer, m.Values)
	for _, d := range perLayer {
		if v := set[d.Name]; v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("metric %s = %+v", d.Name, v)
		}
	}
	overshot := map[string]float64{}
	budget(overshot, w, probes, 0.001, 1e6) // a fault median below what the probes claim
	if overshot["budget.fault.overshoot_us"] <= 0 || overshot["budget.fault.unattributed_us"] != 0 ||
		overshot["budget.fault.wire_us"] != m.Values["budget.fault.wire_us"] {
		t.Errorf("probes beyond the median: rows %v, want them as measured, the excess as overshoot", overshot)
	}
	for _, v := range []map[string]float64{m.Values, overshot} {
		for _, call := range []string{"fault", "sync"} {
			get := func(part string) float64 {
				x := v["budget."+call+"."+part+"_us"]
				if x < 0 {
					t.Errorf("budget.%s.%s_us = %g is negative", call, part, x)
				}
				return x
			}
			p50 := get("p50")
			sum := get("wire") + get("hop") + get("proto") + get("unattributed") - get("overshoot")
			if p50 <= 0 || math.Abs(sum-p50) > 1e-9*p50 {
				t.Errorf("budget.%s: rows add up to %g, the measured median is %g", call, sum, p50)
			}
		}
	}
	if m.Values["thread.acquire_us_per_op"] <= 0 || m.Values["transport.send_calls_per_op"] <= 0 {
		t.Errorf("traced run recorded no spans: %v", m.Values)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var loaded struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &loaded); err != nil || len(loaded.TraceEvents) == 0 {
		t.Fatalf("chrome trace: %d events, err %v", len(loaded.TraceEvents), err)
	}
	if left, _ := filepath.Glob(filepath.Join(filepath.Dir(trace), "spans-*")); len(left) > 0 {
		t.Errorf("span directories left behind: %v", left)
	}
}

// TestWrongExpectationFails: a run whose validation expects the wrong
// result counts every op as failed, and the gate exits non-zero.
func TestWrongExpectationFails(t *testing.T) {
	for _, w := range []workload{
		{Name: "lock-tcp", Kernel: "lock", Engine: "tcp", Policy: "AT"},
		{Name: "sor-sim", Kernel: "sor", Engine: "sim", Policy: "NoHM"},
	} {
		name := w.Name
		res := launch(w, toyParams(1), false, "", toyDeadline)
		if res.Err == nil {
			t.Fatalf("%s: a skewed expectation passed validation", name)
		}
		var m measurement
		m.note(res, summarize(res))
		wr := workloadResult{}
		wr.count(m)
		wr.finish()
		if wr.FailedShare != 1 {
			t.Errorf("%s: failed_share = %g, want 1 (%d of %d)", name, wr.FailedShare, m.Failed, m.Attempted)
		}
	}
	sim, _ := findWorkload("lock-sim")
	sim.Launches = 3
	if code := gateMain(sim, 1, 0.05, 0, 1); code == 0 {
		t.Error("the gate exited 0 on a run that failed validation")
	}
}

// TestDeadlineKillsChildren: a launch that cannot finish in time is cut
// off and recorded as failed instead of hanging.
func TestDeadlineKillsChildren(t *testing.T) {
	w, _ := findWorkload("lock-tcp")
	start := time.Now()
	res := launch(w, runParams{Warm: w.Warm, Units: w.timedUnits(30), Seed: 1}, false, "", 500*time.Millisecond)
	if res.Err == nil || !strings.Contains(res.Err.Error(), "deadline") {
		t.Fatalf("err = %v, want a deadline failure", res.Err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("launch took %v to give up", d)
	}
}

func TestCompareVerdicts(t *testing.T) {
	bj := &benchmarkJSON{
		EndToEnd: []boundedMetric{
			{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.08},
			{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.10},
		},
	}
	bj.Workloads = append(bj.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	file := func(ops, lat []float64, failedShare float64) *resultFile {
		return &resultFile{Workloads: map[string]*workloadResult{"w": {
			EndToEnd: map[string]*series{
				"ops_per_s": {Unit: "1/s", Values: ops},
				"op_p50_us": {Unit: "us", Values: lat},
			},
			FailedShare: failedShare,
		}}}
	}
	steady := []float64{100, 101, 99, 100, 100.5}
	base := file(steady, steady, 0)
	cases := []struct {
		name   string
		b      *resultFile
		ok     bool
		expect string
	}{
		{"same", file(steady, steady, 0), true, "ok"},
		{"slower", file([]float64{90, 91, 89, 90, 90}, steady, 0), false, "worse"},
		{"latency up", file(steady, []float64{112, 113, 111, 112, 112}, 0), false, "worse"},
		{"noisy", file([]float64{80, 120, 100, 90, 115}, steady, 0), true, "unresolved"},
		{"faster though noisy", file([]float64{150, 190, 170, 160, 185}, steady, 0), true, "ok"},
		{"more failures", file(steady, steady, 0.5), false, "worse"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if got := compare(&out, bj, base, c.b); got != c.ok {
			t.Errorf("%s: acceptable = %t, want %t\n%s", c.name, got, c.ok, out.String())
		}
		if !strings.Contains(out.String(), c.expect) {
			t.Errorf("%s: no %q row\n%s", c.name, c.expect, out.String())
		}
	}
	// A workload or a metric missing from either file is not "no regression".
	noMetric := file(steady, steady, 0)
	delete(noMetric.Workloads["w"].EndToEnd, "op_p50_us")
	for name, pair := range map[string][2]*resultFile{
		"workload missing in B": {base, {Workloads: map[string]*workloadResult{}}},
		"metric missing in B":   {base, noMetric},
		"metric missing in A":   {noMetric, base},
	} {
		var out bytes.Buffer
		if compare(&out, bj, pair[0], pair[1]) || !strings.Contains(out.String(), "missing in "+name[len(name)-1:]) {
			t.Errorf("%s: accepted, or no row says so\n%s", name, out.String())
		}
	}
	// lock-sim's counts and virtual time are held to bound 0.
	bj.Workloads[0].Name = "lock-sim"
	bj.EndToEnd = []boundedMetric{{Name: "msgs_per_op", Unit: "count", Better: "lower", Bound: 0.02}}
	sim := func(msgs, virt float64) *resultFile {
		return &resultFile{Workloads: map[string]*workloadResult{"lock-sim": {
			EndToEnd: map[string]*series{
				"msgs_per_op":  {Unit: "count", Values: []float64{msgs, msgs}},
				"bytes_per_op": {Unit: "B", Values: []float64{228, 228}},
			},
			PerLayer: metricSet{"virt_us_per_op": {Value: virt, Unit: "us"}},
		}}}
	}
	for _, c := range []struct {
		b  *resultFile
		ok bool
	}{{sim(4.25, 264), true}, {sim(4.2501, 264), false}, {sim(4.25, 264.01), false}, {sim(4.2, 260), true}} {
		var out bytes.Buffer
		if got := compare(&out, bj, sim(4.25, 264), c.b); got != c.ok {
			t.Errorf("exact metrics: acceptable = %t, want %t\n%s", got, c.ok, out.String())
		}
	}
	// The quartiles are Python's statistics.quantiles(v, n=4).
	if q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
}
