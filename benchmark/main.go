// Command benchmark is the repository's one end-to-end and per-layer
// benchmark: five closed-loop workloads (the paper's §5.2 lock kernel and
// red-black SOR) over a 4-process loopback TCP cluster, the in-process
// live engine and the simulator, measured from outside through the
// public dsm API, plus timed probes into each layer and a traced run
// that splits an op's cost by layer. See README.md.
//
//	go run ./benchmark                        every workload, all metrics, one result file
//	go run ./benchmark compare A.json B.json  judge B against A by BENCHMARK.json's bounds
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1
//	                                          one measurement, one JSON line (the gate's contract)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

const outDir = ".bench_build" // everything the benchmark writes lands here

func main() {
	if len(os.Args) > 2 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2]))
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "measure this one workload and print one JSON line")
		seed    = flag.Uint64("seed", 1, "input seed (perturbs the SOR grid; the lock kernel has no input)")
		seconds = flag.Float64("seconds", 20, "length of each timed region")
		trace   = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		runs    = flag.Int("runs", 1, "suite: end-to-end runs per workload (compare needs several to see spread)")
		out     = flag.String("out", filepath.Join(outDir, "benchmark-result.json"), "suite: result file")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *seconds <= 0 || *runs < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive and -runs at least 1")
		os.Exit(2)
	}
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		os.Exit(gateMain(w, *seed, *seconds, *trace, 0))
	}
	os.Exit(suiteMain(*seed, *seconds, *runs, *out))
}

// gateResult is the one JSON object the gate reads from the last line
// of standard output.
type gateResult struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func tracePath(workload string) string {
	return filepath.Join(outDir, "trace-"+workload+".json")
}

// gateMain measures one workload once. With trace 0 that is the
// end-to-end run; with trace 1 the probes, then an untraced reference and
// the traced run, each over a third of the work. A non-zero skew makes
// validation expect the wrong result (self-test).
func gateMain(w workload, seed uint64, seconds float64, trace, skew int) int {
	name := w.Name
	var m measurement
	var defs []metricDef
	switch trace {
	case 0:
		m, defs = measureEndToEnd(w, seconds, seed, skew), endToEnd
	case 1:
		probes, err := runProbeChild()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		m, defs = measureLayers(w, seconds/3, seed, probes, tracePath(name)), perLayer
	default:
		fmt.Fprintln(os.Stderr, "benchmark: -trace must be 0 or 1")
		return 2
	}
	for _, e := range m.Errors {
		fmt.Fprintln(os.Stderr, "benchmark:", e)
	}
	res := gateResult{
		Correct: m.Failed == 0 && len(m.Errors) == 0, Attempted: max(m.Attempted, 1), Failed: m.Failed,
		Metrics: fill(defs, m.Values),
	}
	for n, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fmt.Fprintf(os.Stderr, "benchmark: metric %s is not finite\n", n)
			return 1
		}
	}
	printMetrics(os.Stdout, name, defs, m.Values, m.Samples)
	if trace == 0 {
		printHostFactor(os.Stdout, name, m)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// suiteMain runs every workload — end to end `runs` times, then a traced
// run at a tenth of the length — after the probes, prints every metric
// and writes the result file.
func suiteMain(seed uint64, seconds float64, runs int, out string) int {
	probes, err := runProbeChild()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	file := resultFile{Env: environment(), Seconds: seconds, Seed: seed, Workloads: map[string]*workloadResult{}, Probes: probes}
	failed := false
	for _, w := range workloads {
		wr := &workloadResult{Why: w.Why, EndToEnd: map[string]*series{}}
		file.Workloads[w.Name] = wr
		var last measurement
		for r := 0; r < runs; r++ {
			last = measureEndToEnd(w, seconds, seed+uint64(r), 0)
			wr.add(last)
		}
		printMetrics(os.Stdout, w.Name, endToEnd, last.Values, last.Samples)
		printHostFactor(os.Stdout, w.Name, last)
		wr.Trace = tracePath(w.Name)
		lm := measureLayers(w, seconds/10, seed, probes, wr.Trace)
		wr.addLayers(lm)
		printMetrics(os.Stdout, w.Name, tracedMetrics, lm.Values, lm.Samples)
		wr.finish()
		fmt.Printf("%-14s %-34s %14.6g %s\n", w.Name, "failed_share", wr.FailedShare, "ratio")
		for _, e := range wr.Errors {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", w.Name, e)
		}
		failed = failed || wr.FailedShare > 0 || len(wr.Errors) > 0
	}
	printMetrics(os.Stdout, "probes", probeMetrics, probes, nil)
	printBudgets(os.Stdout, file.Workloads)
	if err := file.write(out); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("result file: %s\n", out)
	if failed {
		return 1
	}
	return 0
}
