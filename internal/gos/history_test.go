package gos

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/wire"
)

// historyRow is one line of testdata/bench/history.jsonl, the checked-in
// perf history: one row per change that measured the benchmark. Only the
// fields that repeat on any host are read here; the row's paired medians
// and spreads, and the live workloads' traffic, are kept for the reader.
type historyRow struct {
	Parent       string             `json:"parent"`
	WireMsgBytes uintptr            `json:"wire_msg_bytes"`
	LockKernel   lockKernelCounts   `json:"lock_kernel"`
	LockSimExact map[string]float64 `json:"lock_sim_exact"`
}

// lockKernelCounts is what BenchmarkLockKernel reports at CI's
// -benchtime 24000x -cpu 1: act/op and ev/op unrounded, allocs/op and
// B/op rounded down as the benchmark prints them.
type lockKernelCounts struct {
	ActPerOp    float64 `json:"act_per_op"`
	EvPerOp     float64 `json:"ev_per_op"`
	AllocsPerOp uint64  `json:"allocs_per_op"`
	BytesPerOp  uint64  `json:"bytes_per_op"`
}

// TestPerfHistoryHoldsTheLastRow: the host-independent fields of the perf
// history's last row are what the tree measures now, at bound 0 — the
// size of a wire.Msg, the sim lock kernel's counts per counter update,
// and the lock-sim rows of testdata/bench/lock-sim.exact (which CI's
// "Exact rows" step holds to a benchmark run). A change that moves one
// appends a row saying why.
func TestPerfHistoryHoldsTheLastRow(t *testing.T) {
	last := lastHistoryRow(t, "../../testdata/bench/history.jsonl")
	if got := unsafe.Sizeof(wire.Msg{}); got != last.WireMsgBytes {
		t.Errorf("wire.Msg is %d B, the history's last row (parent %s) says %d", got, last.Parent, last.WireMsgBytes)
	}
	if got := measureLockKernel(t); got != last.LockKernel {
		t.Errorf("lock kernel per op %+v, the history's last row says %+v", got, last.LockKernel)
	}
	exact := readExact(t, "../../testdata/bench/lock-sim.exact")
	if len(exact) != len(last.LockSimExact) {
		t.Errorf("lock-sim.exact holds %v, the history's last row %v", exact, last.LockSimExact)
	}
	for name, want := range exact {
		if got, ok := last.LockSimExact[name]; !ok || got != want {
			t.Errorf("lock-sim.exact %s = %v, the history's last row says %v", name, want, got)
		}
	}
}

// measureLockKernel runs BenchmarkLockKernel's shape at CI's 24000
// counter updates on one P.
func measureLockKernel(t *testing.T) lockKernelCounts {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const turns = 1000
	c, ws := lockKernel(turns, nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := c.Run(ws)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const ops = turns * 24
	return lockKernelCounts{
		ActPerOp:    float64(m.Kernel.Activations) / ops,
		EvPerOp:     float64(m.Kernel.Events) / ops,
		AllocsPerOp: (after.Mallocs - before.Mallocs) / ops,
		BytesPerOp:  (after.TotalAlloc - before.TotalAlloc) / ops,
	}
}

// lastHistoryRow decodes the last non-empty line of the history.
func lastHistoryRow(t *testing.T, path string) historyRow {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	var row historyRow
	if err := json.Unmarshal(lines[len(lines)-1], &row); err != nil {
		t.Fatalf("%s: last row: %v", path, err)
	}
	return row
}

// readExact parses lock-sim.exact: "name value" lines, # comments.
func readExact(t *testing.T, path string) map[string]float64 {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]float64{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, value, _ := strings.Cut(line, " ")
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("%s: %q: %v", path, line, err)
		}
		out[name] = v
	}
	return out
}
