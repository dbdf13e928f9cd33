package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

// benchmarkJSON is the part of BENCHMARK.json the tool reads.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkJSON(path string) (*benchmarkJSON, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// quartiles returns the first and third quartile of v the way Python's
// statistics.quantiles(v, n=4) does, which is how the gate computes
// spread.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance of v as a share of its median;
// 0 when there are too few values to tell.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	med := median(v)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / med
}

type verdict string

const (
	verdictOK         verdict = "ok"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// judge compares runs b of a metric against runs a under bound: worse
// when b's median is worse than a's by more than the bound; unresolved
// when it is not, but either side's spread is wider than the bound and
// b's runs do not all beat a's; ok otherwise.
func judge(a, b []float64, better string, bound float64) verdict {
	ma, mb := median(a), median(b)
	worsening := mb - ma // positive is worse for "lower"
	if better == "higher" {
		worsening = ma - mb
	}
	if ma != 0 && worsening/ma > bound || ma == 0 && worsening > 0 {
		return verdictWorse
	}
	if max(spread(a), spread(b)) > bound && !allBetter(a, b, better) {
		return verdictUnresolved
	}
	return verdictOK
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(a, b []float64, better string) bool {
	sa := append([]float64(nil), a...)
	sb := append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	bounds := fs.String("bounds", "BENCHMARK.json", "the file that fixes each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare [-bounds BENCHMARK.json] A.json B.json")
		return 2
	}
	bj, err := readBenchmarkJSON(*bounds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	var files [2]*resultFile
	for i := range files {
		if files[i], err = readResultFile(fs.Arg(i)); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark compare:", err)
			return 2
		}
	}
	if files[0].Seconds != files[1].Seconds {
		// Per-op counts include the fixed warm-up, so they depend on length.
		fmt.Fprintf(os.Stderr, "benchmark compare: A ran -seconds %g, B -seconds %g: not comparable\n", files[0].Seconds, files[1].Seconds)
		return 2
	}
	if !compare(os.Stdout, bj, files[0], files[1]) {
		return 1
	}
	return 0
}

// runs returns the values wr holds for a metric: the end-to-end series,
// or the one value of a per-layer metric.
func (wr *workloadResult) runs(name string) []float64 {
	if wr == nil {
		return nil
	}
	if s := wr.EndToEnd[name]; s != nil {
		return s.Values
	}
	if m, ok := wr.PerLayer[name]; ok {
		return []float64{m.Value}
	}
	return nil
}

// compare prints one row per (workload, end-to-end metric) of
// BENCHMARK.json, plus the workload's exact metrics at bound 0, and
// reports whether B is acceptable: no metric worse than its bound, none
// missing from either file, no higher failed_share.
func compare(w io.Writer, bj *benchmarkJSON, a, b *resultFile) bool {
	ok := true
	fmt.Fprintf(w, "%-14s %-16s %14s %14s %8s %7s %7s  %s\n",
		"workload", "metric", "A median", "B median", "change", "spread", "bound", "verdict")
	for _, wl := range bj.Workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		metrics := append([]boundedMetric(nil), bj.EndToEnd...)
		for _, name := range exact[wl.Name] {
			i := slices.IndexFunc(metrics, func(m boundedMetric) bool { return m.Name == name })
			if i < 0 { // a per-layer metric
				i, metrics = len(metrics), append(metrics, boundedMetric{Name: name, Better: "lower"})
			}
			metrics[i].Bound = 0
		}
		for _, m := range metrics {
			va, vb := ra.runs(m.Name), rb.runs(m.Name)
			if len(va) == 0 || len(vb) == 0 {
				// A run that crashed or was cut short must not pass for
				// no regression.
				side := "B"
				if len(va) == 0 {
					side = "A"
				}
				fmt.Fprintf(w, "%-14s %-16s %14s %14s %8s %7s %6.1f%%  %s (missing in %s)\n",
					wl.Name, m.Name, "-", "-", "", "", 100*m.Bound, verdictUnresolved, side)
				ok = false
				continue
			}
			v := judge(va, vb, m.Better, m.Bound)
			ma, mb := median(va), median(vb)
			change := 0.0
			if ma != 0 {
				change = (mb - ma) / ma
			}
			fmt.Fprintf(w, "%-14s %-16s %14.6g %14.6g %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				wl.Name, m.Name, ma, mb, 100*change,
				100*max(spread(va), spread(vb)), 100*m.Bound, v)
			ok = ok && v != verdictWorse
		}
		if ra == nil || rb == nil {
			continue
		}
		v := verdictOK
		if rb.FailedShare > ra.FailedShare {
			v, ok = verdictWorse, false
		}
		fmt.Fprintf(w, "%-14s %-16s %14.6g %14.6g %8s %7s %7s  %s\n",
			wl.Name, "failed_share", ra.FailedShare, rb.FailedShare, "", "", "0", v)
	}
	return ok
}
