package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
)

// TestAllMatchesGoldenCSV is the drift gate for the sim engine: every
// row `dsmbench -all -csv` produces (virtual times, message and byte
// counts, migrations, retries — 77 rows over all four figures and six
// ablations) must equal testdata/dsmbench_all.golden.csv byte for byte,
// and the tables it prints must equal testdata/dsmbench_all.golden.txt.
// A refactor that is supposed to be silent under virtual time leaves
// both files alone; regenerate them (`go run ./cmd/dsmbench -all -par 1 -q
// -csv testdata/dsmbench_all.golden.csv > testdata/dsmbench_all.golden.txt`
// from the repo root) only for a change that means to move the numbers or
// the layout, and say which rows and why.
func TestAllMatchesGoldenCSV(t *testing.T) {
	var tables bytes.Buffer
	report, err := produce(&tables, sweeps, false, bench.RunOpts{Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := report.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	sameAsGolden(t, "dsmbench_all.golden.csv", got.Bytes())
	sameAsGolden(t, "dsmbench_all.golden.txt", tables.Bytes())
}

// TestAllTrials2MatchesGoldenStdout pins what only a multi-trial sweep
// prints: the trial-mean cells and the min..max spread columns each table
// appends (`dsmbench -all -par 1 -trials 2 -q`, captured like the file
// above).
func TestAllTrials2MatchesGoldenStdout(t *testing.T) {
	var tables bytes.Buffer
	if _, err := produce(&tables, sweeps, false, bench.RunOpts{Trials: 2}); err != nil {
		t.Fatal(err)
	}
	sameAsGolden(t, "dsmbench_all_trials2.golden.txt", tables.Bytes())
}

// sameAsGolden compares got with testdata/<name> byte for byte and
// reports the lines that differ.
func sameAsGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile("../../testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Errorf("%s line %d:\n got %s\nwant %s", name, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Errorf("%s: got %d lines, want %d", name, len(gl), len(wl))
	}
}

// TestUnknownNameRejectedUpFront: a misspelt -fig or -ablate name used to
// surface only after every sweep before it had run and printed — minutes
// under -full, and no -csv/-json artifact. The built binary must exit 2
// with the name and the accepted list on stderr and nothing on stdout,
// even when a valid name comes first.
func TestUnknownNameRejectedUpFront(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := filepath.Join(t.TempDir(), "dsmbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-fig", "2,7", "-q"}, []string{`unknown -fig "7"`, "2,3,5a,5b"}},
		{[]string{"-ablate", "tinit", "-ablate", "lamda", "-q"}, []string{`unknown -ablate "lamda"`, "locator,lambda,tinit"}},
		{[]string{"-fig", "locator", "-scenarios", "1", "-q"}, []string{`unknown -fig "locator"`}},
	} {
		cmd := exec.Command(bin, tc.args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("dsmbench %v: %v, want exit status 2", tc.args, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("dsmbench %v ran something before failing; stdout:\n%s", tc.args, stdout.String())
		}
		for _, w := range tc.want {
			if !strings.Contains(stderr.String(), w) {
				t.Errorf("dsmbench %v: stderr lacks %q:\n%s", tc.args, w, stderr.String())
			}
		}
	}
}

// The historic bug: String() joined with commas but Set never split, so
// `-fig 2,3` failed downstream as unknown figure "2,3". Set must accept
// comma-separated lists (with stray whitespace and empty items) and
// compose with repeated flags.
func TestMultiFlagSetSplitsCommas(t *testing.T) {
	var m multiFlag
	for _, v := range []string{"2,3", " 5a , 5b ", "locator", ",,"} {
		if err := m.Set(v); err != nil {
			t.Fatalf("Set(%q): %v", v, err)
		}
	}
	want := multiFlag{"2", "3", "5a", "5b", "locator"}
	if !reflect.DeepEqual(m, want) {
		t.Fatalf("multiFlag = %v, want %v", m, want)
	}
	if m.String() != "2,3,5a,5b,locator" {
		t.Fatalf("String() = %q", m.String())
	}
}

// Duplicate flags (e.g. `-fig 5a -fig 5a,5b` or `-all` twice) must not
// rerun or reprint a figure: dedup keeps first-occurrence order.
func TestDedupPreservesOrder(t *testing.T) {
	in := multiFlag{"5a", "2", "5a", "5b", "2", "5b"}
	want := multiFlag{"5a", "2", "5b"}
	if got := dedup(in); !reflect.DeepEqual(got, want) {
		t.Fatalf("dedup(%v) = %v, want %v", in, got, want)
	}
	if got := dedup(nil); got != nil {
		t.Fatalf("dedup(nil) = %v", got)
	}
}

// TestSelectionKeepsRequestedOrder: tables print in the order asked for,
// figures before ablations, a repeated name once; a figure name under
// -ablate (or the reverse) is as unknown as a misspelt one.
func TestSelectionKeepsRequestedOrder(t *testing.T) {
	got, err := selection(multiFlag{"5b", "2", "5b", "5a"}, multiFlag{"tinit", "locator"})
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, s := range got {
		order = append(order, s.flag+" "+s.name)
	}
	want := []string{"fig 5b", "fig 2", "fig 5a", "ablate tinit", "ablate locator"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("selection = %v, want %v", order, want)
	}
	if _, err := selection(nil, multiFlag{"2"}); err == nil || !strings.Contains(err.Error(), `unknown -ablate "2"`) {
		t.Errorf("-ablate 2 = %v, want an unknown-name error", err)
	}
}

func TestHas(t *testing.T) {
	m := multiFlag{"5a", "5b"}
	if !slices.Contains(m, "5a") || slices.Contains(m, "2") {
		t.Fatal("has misbehaves")
	}
}
