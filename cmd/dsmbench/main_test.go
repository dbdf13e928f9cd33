package main

import (
	"bytes"
	"io"
	"os"
	"reflect"
	"testing"

	"repro/internal/bench"
)

// TestAllMatchesGoldenCSV is the drift gate for the sim engine: every
// row `dsmbench -all -csv` produces (virtual times, message and byte
// counts, migrations, retries — 77 rows over all four figures and six
// ablations) must equal testdata/dsmbench_all.golden.csv byte for byte.
// A refactor that is supposed to be silent under virtual time leaves
// this file alone; regenerate it (`go run ./cmd/dsmbench -all -par 1 -q
// -csv testdata/dsmbench_all.golden.csv` from the repo root) only for a
// change that means to move the numbers, and say which rows and why.
func TestAllMatchesGoldenCSV(t *testing.T) {
	want, err := os.ReadFile("../../testdata/dsmbench_all.golden.csv")
	if err != nil {
		t.Fatal(err)
	}
	report, err := produce(io.Discard, allFigs, allAblations, false, bench.RunOpts{Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := report.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Errorf("got %d lines, want %d", len(gl), len(wl))
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

func TestHas(t *testing.T) {
	m := multiFlag{"5a", "5b"}
	if !has(m, "5a") || has(m, "2") {
		t.Fatal("has misbehaves")
	}
}
