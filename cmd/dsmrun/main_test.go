package main

import (
	"errors"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	dsm "repro"

	"repro/internal/apps"
	"repro/internal/scenario"
)

// build compiles dsmrun into a temporary directory and returns its path;
// under -short the test that asks is skipped.
func build(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := filepath.Join(t.TempDir(), "dsmrun")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestScenarioSeedReproduces: a seed that fails a verdict sweep can be
// re-run here under every observation flag dsmrun has, because the sweep's
// cell and `dsmrun -app scenario -seed S` are the same apps.RunScenario
// call: the built binary prints the digest the cell for that (seed,
// policy, locator) left, on either engine.
func TestScenarioSeedReproduces(t *testing.T) {
	bin := build(t)
	cell, err := apps.RunScenario(scenario.Generate(5), apps.Options{
		Config: dsm.Config{Policy: "JUMP", Locator: "manager", DebugWire: true},
		Check:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	digestRE := regexp.MustCompile(`oracle OK \((\d+) ops\), digest (0x[0-9a-f]+)`)
	for _, engine := range []string{"sim", "live"} {
		out, err := exec.Command(bin, "-app", "scenario", "-seed", "5",
			"-policy", "JUMP", "-locator", "manager", "-engine", engine, "-check").CombinedOutput()
		if err != nil {
			t.Fatalf("%s: %v\n%s", engine, err, out)
		}
		m := digestRE.FindSubmatch(out)
		if m == nil {
			t.Fatalf("%s: no check line:\n%s", engine, out)
		}
		if got, _ := strconv.ParseUint(string(m[2]), 0, 64); got != cell.Digest {
			t.Errorf("%s: dsmrun digest %s, the sweep's cell left %#x", engine, m[2], cell.Digest)
		}
		if engine == "sim" && string(m[1]) != strconv.Itoa(cell.OracleOps) {
			t.Errorf("sim: dsmrun checked %s oracle ops, the cell %d", m[1], cell.OracleOps)
		}
	}
}

// TestFlightAnalyzeReadsTheWholeRun: -flight-analyze classifies every
// event of the run whatever the ring holds. A 1024-event ring keeps the
// last eighth of SOR's log; the report with it, and without any ring,
// must equal the one a ring large enough for the whole log gives.
func TestFlightAnalyzeReadsTheWholeRun(t *testing.T) {
	bin := build(t)
	report := func(flight ...string) string {
		args := append([]string{"-app", "sor", "-n", "128", "-iters", "8", "-nodes", "8", "-policy", "NoHM", "-flight-analyze"}, flight...)
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("dsmrun %v: %v\n%s", args, err, out)
		}
		_, rep, ok := strings.Cut(string(out), "\nobject ")
		if !ok {
			t.Fatalf("dsmrun %v printed no report:\n%s", args, out)
		}
		return rep
	}
	full := report("-flight", "1000000")
	for _, flight := range [][]string{{"-flight", "1024"}, nil} {
		if got := report(flight...); got != full {
			t.Errorf("report with %v differs from the full log's:\n%s\nwant\n%s", flight, got, full)
		}
	}
}

// TestExportWithoutFlightIsAUsageError: an export of the timeline without
// the recorder that fills it exits 2 naming -flight, before any run and
// without creating the file (it used to exit 0 leaving an empty one).
func TestExportWithoutFlightIsAUsageError(t *testing.T) {
	bin := build(t)
	for _, export := range []string{"-flight-text", "-flight-trace"} {
		path := filepath.Join(t.TempDir(), "timeline")
		out, err := exec.Command(bin, "-app", "asp", "-n", "16", "-nodes", "2", export, path).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "add -flight") {
			t.Errorf("%s without -flight: %v, want exit status 2 naming -flight\n%s", export, err, out)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s without -flight left %s behind (%v)", export, path, err)
		}
	}
}

// TestRejectedSelectionIsOneLine: a selection dsm.New rejects exits 1
// with one dsmrun: line on stderr, not a goroutine dump; -nodes 0 still
// runs the synthetic benchmark, whose cluster apps.Run grows.
func TestRejectedSelectionIsOneLine(t *testing.T) {
	bin := build(t)
	for _, flags := range [][]string{
		{"-policy", "bogus"}, {"-locator", "bogus"}, {"-network", "bogus"},
		{"-engine", "bogus"}, {"-nodes", "0"}, {"-lambda", "NaN"},
	} {
		cmd := exec.Command(bin, append([]string{"-app", "asp", "-n", "16"}, flags...)...)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%v: %v, want exit status 1", flags, err)
		}
		msg := stderr.String()
		if strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "dsmrun: ") || strings.Contains(msg, "goroutine") {
			t.Errorf("%v: stderr is not one dsmrun: line:\n%s", flags, msg)
		}
	}
	out, err := exec.Command(bin, "-app", "synthetic", "-nodes", "0", "-r", "2", "-updates", "64", "-workers", "2").CombinedOutput()
	if err != nil {
		t.Errorf("synthetic -nodes 0: %v\n%s", err, out)
	}
}

// TestFlightRouteWithoutRings: /flight of a run without -flight answers 404
// and says why, on either engine (the live one used to list a ring slot per
// node, all empty, and answer 200 with no body); with rings it renders them.
func TestFlightRouteWithoutRings(t *testing.T) {
	for _, engine := range []string{"sim", "live"} {
		for _, rings := range []int{0, 64} {
			o := apps.Options{Config: dsm.Config{Nodes: 2, Engine: engine, FlightCap: rings}}
			srv := serveObs("127.0.0.1:0", &o)
			o.OnCluster(dsm.New(o.Config))
			resp, err := http.Get("http://" + srv.Addr() + "/flight")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			want := http.StatusOK
			if rings == 0 {
				want = http.StatusNotFound
			}
			if resp.StatusCode != want {
				t.Errorf("%s, -flight %d: /flight answered %d, want %d", engine, rings, resp.StatusCode, want)
			}
			if err := srv.Close(); err != nil {
				t.Error(err)
			}
		}
	}
}
