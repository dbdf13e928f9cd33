package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// envInfo records where a result was measured, so two result files are
// compared knowingly.
type envInfo struct {
	NumCPU         int    `json:"nproc"`
	GoVersion      string `json:"go_version"`
	OS             string `json:"os"`
	Arch           string `json:"arch"`
	Kernel         string `json:"kernel"`
	Commit         string `json:"commit"`
	MemberProcs    int    `json:"gomaxprocs_member"`
	InProcessProcs int    `json:"gomaxprocs_inprocess"`
	ClusterNodes   int    `json:"cluster_nodes"`
}

func environment() envInfo {
	env := envInfo{
		NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		Kernel: "unknown", Commit: "unknown",
		MemberProcs: memberProcs, InProcessProcs: inProcessProcs, ClusterNodes: clusterNodes,
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(b))
	}
	return env
}

// series is one end-to-end metric over the runs of a suite.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

// workloadResult is everything the suite learned about one workload.
type workloadResult struct {
	Why         string             `json:"why"`
	EndToEnd    map[string]*series `json:"end_to_end"`
	PerLayer    metricSet          `json:"per_layer,omitempty"`
	FailedShare float64            `json:"failed_share"`
	Attempted   int64              `json:"attempted"`
	Failed      int64              `json:"failed"`
	Samples     map[string]int64   `json:"latency_samples"`
	WallS       []float64          `json:"wall_s"`
	EpochRates  [][]float64        `json:"epoch_ops_per_s"` // as measured, before the host factor
	HostFactor  []float64          `json:"host_factor"`
	SetupFactor []float64          `json:"setup_host_factor"`
	Units       []int              `json:"timed_units"`
	Digest      string             `json:"digest"`
	Trace       string             `json:"trace,omitempty"`
	Errors      []string           `json:"errors,omitempty"`
}

func (wr *workloadResult) count(m measurement) {
	wr.Attempted += m.Attempted
	wr.Failed += m.Failed
	wr.Errors = append(wr.Errors, m.Errors...)
}

func (wr *workloadResult) add(m measurement) {
	wr.count(m)
	for _, d := range endToEnd {
		s := wr.EndToEnd[d.Name]
		if s == nil {
			s = &series{Unit: d.Unit}
			wr.EndToEnd[d.Name] = s
		}
		s.Values = append(s.Values, m.Values[d.Name])
	}
	wr.Samples = m.Samples
	wr.WallS = append(wr.WallS, m.WallS)
	wr.EpochRates = append(wr.EpochRates, m.EpochRates)
	wr.HostFactor = append(wr.HostFactor, m.HostFactor)
	wr.SetupFactor = append(wr.SetupFactor, m.SetupFactor)
	wr.Units = append(wr.Units, m.Units)
	wr.Digest = fmt.Sprintf("%#x", m.Digest)
}

func (wr *workloadResult) addLayers(m measurement) {
	wr.count(m)
	wr.PerLayer = fill(perLayer, m.Values)
	if wr.Samples == nil {
		wr.Samples = map[string]int64{}
	}
	for k, n := range m.Samples {
		wr.Samples[k] = n
	}
}

func (wr *workloadResult) finish() {
	if wr.Attempted > 0 {
		wr.FailedShare = float64(wr.Failed) / float64(wr.Attempted)
	}
}

// resultFile is the suite's one output file, and compare's input.
type resultFile struct {
	Env       envInfo                    `json:"env"`
	Seconds   float64                    `json:"seconds"`
	Seed      uint64                     `json:"seed"`
	Workloads map[string]*workloadResult `json:"workloads"`
	Probes    map[string]float64         `json:"probes,omitempty"`
}

func (f *resultFile) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// printMetrics prints one row per metric: workload, name, value, unit,
// and the sample count behind a latency quantile.
func printMetrics(w io.Writer, workload string, defs []metricDef, v map[string]float64, samples map[string]int64) {
	for _, d := range defs {
		fmt.Fprintf(w, "%-14s %-34s %14.6g %s", workload, d.Name, v[d.Name], d.Unit)
		kind, _, ok := strings.Cut(d.Name, "_p") // thread.fault_p99_us
		if !ok {
			kind, _, ok = strings.Cut(d.Name, "_mean") // fault_mean_us
		}
		if ok && samples[kind] > 0 {
			fmt.Fprintf(w, "  (n=%d)", samples[kind])
		}
		fmt.Fprintln(w)
	}
}

// printHostFactor prints what the end-to-end timings above were divided
// by: the timed region's host factor, and for setup_s the set-up launches'.
func printHostFactor(w io.Writer, workload string, m measurement) {
	fmt.Fprintf(w, "%-14s %-34s %14.6g %s\n", workload, "host_factor", m.HostFactor, "ratio")
	fmt.Fprintf(w, "%-14s %-34s %14.6g %s\n", workload, "setup_host_factor", m.SetupFactor, "ratio")
}

// printBudgets prints the budget table: for each live workload, the
// measured fault-in and synchronization medians against the rows the
// probes account for, the remainder, and the probes' excess if any.
func printBudgets(w io.Writer, results map[string]*workloadResult) {
	names := make([]string, 0, len(results))
	for n := range results {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-40s %10s %10s %10s %10s %12s %10s\n", "budget (us)", "p50", "wire", "hop", "proto", "unattributed", "overshoot")
	for _, n := range names {
		wl, _ := findWorkload(n)
		wr := results[n]
		if wl.Engine == "sim" || wr.PerLayer == nil {
			continue
		}
		syncName := "acquire"
		if wl.Kernel == "sor" {
			syncName = "barrier"
		}
		for _, row := range [][2]string{{"fault", "fault"}, {"sync", syncName}} {
			get := func(part string) float64 { return wr.PerLayer["budget."+row[0]+"."+part+"_us"].Value }
			fmt.Fprintf(w, "%-40s %10.2f %10.2f %10.2f %10.2f %12.2f %10.2f\n",
				fmt.Sprintf("budget.%s_%s (%s)", row[1], wl.Engine, n),
				get("p50"), get("wire"), get("hop"), get("proto"), get("unattributed"), get("overshoot"))
		}
	}
}
