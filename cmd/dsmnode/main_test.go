package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	dsm "repro"
	"repro/internal/apps"
)

// The dsmnode binary is built once in TestMain (a per-test TempDir
// would vanish when its owning test ends).
var builtPath string
var buildErr error

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "dsmnode-test")
	if err != nil {
		buildErr = err
		os.Exit(m.Run())
	}
	defer os.RemoveAll(dir)
	builtPath = filepath.Join(dir, "dsmnode")
	if out, err := exec.Command("go", "build", "-o", builtPath, ".").CombinedOutput(); err != nil {
		buildErr = fmt.Errorf("go build: %v\n%s", err, out)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func dsmnodeBinary(t *testing.T) string {
	t.Helper()
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return builtPath
}

// freeAddrs reserves n distinct loopback ports and releases them just
// before the daemons start (Go listeners use SO_REUSEADDR; on loopback
// the reuse window is not contended in practice).
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

var digestRE = regexp.MustCompile(`digest (0x[0-9a-f]+)`)

// runCluster launches one dsmnode process per node with the given app
// flags and returns node 0's stdout. Any nonzero exit fails the test.
func runCluster(t *testing.T, nodes int, appFlags ...string) string {
	t.Helper()
	bin := dsmnodeBinary(t)
	peers := strings.Join(freeAddrs(t, nodes), ",")
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	type proc struct {
		id  int
		out []byte
		err error
	}
	results := make(chan proc, nodes)
	for id := 0; id < nodes; id++ {
		go func(id int) {
			args := append([]string{
				"-id", fmt.Sprint(id), "-peers", peers, "-nodes", fmt.Sprint(nodes), "-check",
			}, appFlags...)
			out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
			results <- proc{id: id, out: out, err: err}
		}(id)
	}
	var node0 string
	for i := 0; i < nodes; i++ {
		p := <-results
		if p.err != nil {
			t.Fatalf("dsmnode %d failed: %v\n%s", p.id, p.err, p.out)
		}
		if p.id == 0 {
			node0 = string(p.out)
		}
	}
	return node0
}

func digestOf(t *testing.T, out string) string {
	t.Helper()
	m := digestRE.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no digest in node 0 output:\n%s", out)
	}
	return m[1]
}

// TestFourProcessASP is the acceptance gate as a test: a 4-node
// multi-process localhost cluster runs ASP over the TCP backend with
// -check clean, and its final-memory digest matches the simulator's
// for the same configuration (the sim digest equals the in-process
// live engine's by the PR-4 cross-engine gate).
func TestFourProcessASP(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke skipped in -short")
	}
	out := runCluster(t, 4, "-app", "asp", "-n", "24")
	got := digestOf(t, out)
	ref, err := apps.RunASP(24, apps.Options{Config: dsm.Config{Nodes: 4}, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("%#x", ref.Digest); got != want {
		t.Fatalf("cluster digest %s != sim digest %s\n%s", got, want, out)
	}
	if !strings.Contains(out, "oracle OK") {
		t.Fatalf("check line missing oracle verdict:\n%s", out)
	}
}

// TestFourProcessSOR: the second registered application over the same
// path, exercising bulk views and migration under FT1 as well.
func TestFourProcessSOR(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke skipped in -short")
	}
	out := runCluster(t, 4, "-app", "sor", "-n", "20", "-iters", "3", "-policy", "FT1")
	got := digestOf(t, out)
	ref, err := apps.RunSOR(20, 3, apps.Options{Config: dsm.Config{Nodes: 4, Policy: "FT1"}, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("%#x", ref.Digest); got != want {
		t.Fatalf("cluster digest %s != sim digest %s\n%s", got, want, out)
	}
}

// TestFourProcessScenario: a generated program needs no code here — four
// processes given -app scenario and a 4-node seed reproduce the
// simulator's digest for that seed, through the flags dsmrun shares.
func TestFourProcessScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke skipped in -short")
	}
	out := runCluster(t, 4, "-app", "scenario", "-seed", "5", "-policy", "JUMP", "-locator", "manager")
	got := digestOf(t, out)
	ref, err := apps.Run(apps.Spec{App: "scenario"},
		apps.Options{Config: dsm.Config{Policy: "JUMP", Locator: "manager"}, Seed: 5, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("%#x", ref.Digest); got != want {
		t.Fatalf("cluster digest %s != sim digest %s\n%s", got, want, out)
	}
}

// TestConfigMismatchExitsNonzero: a member started with different app
// flags must be rejected and exit nonzero — the config-digest path end
// to end.
func TestConfigMismatchExitsNonzero(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke skipped in -short")
	}
	bin := dsmnodeBinary(t)
	peers := strings.Join(freeAddrs(t, 2), ",")
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	outc := make(chan error, 2)
	run := func(id int, size string) {
		out, err := exec.CommandContext(ctx, bin,
			"-id", fmt.Sprint(id), "-peers", peers, "-app", "asp", "-n", size).CombinedOutput()
		if err == nil {
			outc <- fmt.Errorf("node %d exited zero despite config mismatch:\n%s", id, out)
			return
		}
		if !strings.Contains(string(out), "config digest") && !strings.Contains(string(out), "rejected") {
			outc <- fmt.Errorf("node %d error does not explain the mismatch:\n%s", id, out)
			return
		}
		outc <- nil
	}
	go run(0, "24")
	go run(1, "32") // different problem size → different config digest
	for i := 0; i < 2; i++ {
		if err := <-outc; err != nil {
			t.Fatal(err)
		}
	}
}

// exitCodeOf extracts the process exit code from an exec error.
func exitCodeOf(err error) int {
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	return -1
}

// TestConfigMismatchExitCode: the handshake rejection must exit with
// the config-mismatch code (3) on both sides — whichever computed flag
// differs, application size or protocol selection alike.
func TestConfigMismatchExitCode(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke skipped in -short")
	}
	bin := dsmnodeBinary(t)
	for _, tc := range []struct {
		name string
		a, b []string // what node 0 and node 1 add to the common flags
	}{
		{"n", []string{"-n", "24"}, []string{"-n", "32"}},
		{"nopiggyback", nil, []string{"-nopiggyback"}},
		{"lambda", []string{"-lambda", "2"}, []string{"-lambda", "3"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			peers := strings.Join(freeAddrs(t, 2), ",")
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			done := make(chan struct{}, 2)
			run := func(id int, extra []string) {
				args := append([]string{"-id", fmt.Sprint(id), "-peers", peers, "-app", "asp"}, extra...)
				out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
				if code := exitCodeOf(err); code != 3 {
					t.Errorf("node %d exited %d, want 3 (config mismatch)\n%s", id, code, out)
				}
				done <- struct{}{}
			}
			go run(0, tc.a)
			go run(1, tc.b)
			<-done
			<-done
		})
	}
}

// TestCanonCoversComputedFlags: the string behind the handshake digest
// names every flag of the shared blocks that decide what the cluster
// computes (apps.Spec, apps.Options) with its value, plus the cluster
// size, and nothing else dsmnode accepts — observability and
// per-process flags may differ between members. The string is read off a
// real single-member run's -json artifact; the full flag list is the -h
// golden's.
func TestCanonCoversComputedFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("process launch skipped in -short")
	}
	// Every computed flag at a non-default value.
	set := map[string]string{
		"app": "asp", "n": "16", "iters": "5", "cities": "9", "r": "4", "updates": "512", "workers": "3",
		"policy": "FT2", "locator": "manager", "lambda": "2", "tinit": "3", "nopiggyback": "true",
		"threads": "2", "check": "true", "seed": "7",
	}
	shared := flag.NewFlagSet("shared", flag.ContinueOnError)
	new(apps.Spec).Register(shared)
	new(apps.Options).Register(shared)
	shared.VisitAll(func(f *flag.Flag) {
		if _, ok := set[f.Name]; !ok {
			t.Errorf("a shared block registers -%s; give it a value in this test", f.Name)
		}
	})
	args := []string{"-id", "0", "-peers", "unused", "-json",
		"-flight", "64", "-flight-dump", "4", "-v", "-deadline", "60s", "-join-timeout", "5s", "-telemetry-interval", "100ms"}
	for name, v := range set {
		args = append(args, "-"+name+"="+v)
	}
	cmd := exec.Command(dsmnodeBinary(t), args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("dsmnode: %v\n%s", err, stderr.Bytes())
	}
	var art struct{ Config string }
	if err := json.Unmarshal(out, &art); err != nil {
		t.Fatalf("artifact: %v\n%s", err, out)
	}
	// The string behind the handshake digest, as the binary produced it
	// when -seed was dsmnode's own flag: moving the registration into
	// apps.Options.Register must not change what members compare.
	const parent = "v2|nodes=1|app=asp|check=true|cities=9|iters=5|lambda=2|locator=manager|n=16|nopiggyback=true|policy=FT2|r=4|seed=7|threads=2|tinit=3|updates=512|workers=3"
	if art.Config != parent {
		t.Errorf("canon moved:\n got %s\nwant %s", art.Config, parent)
	}
	fields := strings.Split(art.Config, "|")
	if fields[0] != "v2" {
		t.Fatalf("canon %q does not start with the v2 prefix", art.Config)
	}
	got := map[string]string{}
	for _, f := range fields[1:] {
		name, v, _ := strings.Cut(f, "=")
		got[name] = v
	}
	set["nodes"] = "1" // the cluster size, from -peers
	for name, v := range set {
		if got[name] != v {
			t.Errorf("canon has %s=%q, want %q: %s", name, got[name], v, art.Config)
		}
	}
	help, err := os.ReadFile("../../testdata/help/dsmnode.txt")
	if err != nil {
		t.Fatal(err)
	}
	all := regexp.MustCompile(`(?m)^  -([a-z-]+)`).FindAllStringSubmatch(string(help), -1)
	if len(all) < 30 {
		t.Fatalf("only %d flags parsed from the -h golden", len(all))
	}
	for _, m := range all {
		if _, computed := set[m[1]]; !computed {
			if v, ok := got[m[1]]; ok {
				t.Errorf("canon carries the per-process flag %s=%s", m[1], v)
			}
		}
	}
	if len(got) != len(set) {
		t.Errorf("canon has %d fields, want %d: %s", len(got), len(set), art.Config)
	}
}

// TestBootstrapTimeoutExitCode: a member whose peers never start must
// give up within its join timeout and exit with the bootstrap code (4).
func TestBootstrapTimeoutExitCode(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke skipped in -short")
	}
	bin := dsmnodeBinary(t)
	peers := strings.Join(freeAddrs(t, 2), ",")
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	start := time.Now()
	out, err := exec.CommandContext(ctx, bin,
		"-id", "1", "-peers", peers, "-app", "asp", "-n", "24",
		"-join-timeout", "2s").CombinedOutput()
	if code := exitCodeOf(err); code != 4 {
		t.Fatalf("exit code %d, want 4 (bootstrap timeout)\n%s", code, out)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("gave up only after %v with a 2s join timeout", elapsed)
	}
	if !strings.Contains(string(out), "node 0") {
		t.Fatalf("error does not name the unreachable peer:\n%s", out)
	}
}

// TestChaosKillAbortsCluster is the multi-process chaos smoke: a
// 4-node cluster runs ASP while one member kills itself mid-run
// (-chaos-kill-after). Every process must exit nonzero within the
// deadline — the victim with the chaos code (7), every survivor with a
// failure-domain code, none by the watchdog alone hanging on.
func TestChaosKillAbortsCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke skipped in -short")
	}
	const nodes, victim = 4, 2
	bin := dsmnodeBinary(t)
	peers := strings.Join(freeAddrs(t, nodes), ",")
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	type proc struct {
		id   int
		code int
		out  string
	}
	results := make(chan proc, nodes)
	for id := 0; id < nodes; id++ {
		go func(id int) {
			args := []string{
				"-id", fmt.Sprint(id), "-peers", peers, "-nodes", fmt.Sprint(nodes),
				"-app", "asp", "-n", "32", "-check", "-deadline", "60s",
			}
			if id == victim {
				args = append(args, "-chaos-kill-after", "200")
			}
			out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
			results <- proc{id: id, code: exitCodeOf(err), out: string(out)}
		}(id)
	}
	start := time.Now()
	for i := 0; i < nodes; i++ {
		p := <-results
		if p.code == 0 {
			t.Fatalf("node %d exited zero despite the chaos kill\n%s", p.id, p.out)
		}
		if p.id == victim {
			if p.code != 7 {
				t.Errorf("victim exited %d, want 7 (chaos self-kill)\n%s", p.code, p.out)
			}
			continue
		}
		// Survivors abort on peer death (5); a survivor that was already
		// in the verdict exchange may surface it as a cluster failure
		// instead — any nonzero is the guarantee, 5 the common case.
		if p.code != 5 && p.code != 1 && p.code != 6 {
			t.Errorf("survivor %d exited %d, want a failure-domain code\n%s", p.id, p.code, p.out)
		}
		if p.code == 5 && !strings.Contains(p.out, "node") {
			t.Errorf("survivor %d abort message does not name a peer:\n%s", p.id, p.out)
		}
	}
	if elapsed := time.Since(start); elapsed > 75*time.Second {
		t.Fatalf("cluster took %v to die — the abort bound failed", elapsed)
	}
}
