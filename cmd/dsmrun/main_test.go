package main

import (
	"net/http"
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

// TestScenarioSeedReproduces: a seed that fails a verdict sweep can be
// re-run here under every observation flag dsmrun has, because the sweep's
// cell and `dsmrun -app scenario -seed S` are the same apps.RunScenario
// call: the built binary prints the digest the cell for that (seed,
// policy, locator) left, on either engine.
func TestScenarioSeedReproduces(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	cell, err := apps.RunScenario(scenario.Generate(5), apps.Options{
		Config: dsm.Config{Policy: "JUMP", Locator: "manager", DebugWire: true},
		Check:  true, Oracle: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "dsmrun")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
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
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := filepath.Join(t.TempDir(), "dsmrun")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
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
