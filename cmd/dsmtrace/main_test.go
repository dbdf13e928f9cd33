package main

import (
	"bytes"
	"encoding/csv"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/bench"
)

// TestWhatIfRowsAreTheProtocols: the per-policy table of dsmtrace's two
// documented usages is a set of real runs, so for the five policies the
// related-work ablation also runs — same program, same cluster — every
// field of a row equals that ablation's row in the golden CSV. The table
// covers all seven builtins. The runs are checked, so under SOR every
// policy's final memory has the digest of the first (run returns the
// mismatch as its error otherwise). The census comes from the NoHM run's
// trace, as many events as a NoHM run records.
func TestWhatIfRowsAreTheProtocols(t *testing.T) {
	b, err := os.ReadFile("../../testdata/dsmbench_all.golden.csv")
	if err != nil {
		t.Fatal(err)
	}
	golden := records(t, b)
	for _, tc := range []struct {
		usage    string // the documented command line, main's defaults filled in
		spec     apps.Spec
		workload string
		header   string
	}{
		{"-app sor -n 128 -iters 8 -nodes 8", apps.Spec{App: "sor", N: 128, Iters: 8}, "SOR(128)",
			"4270 protocol events over 128 shared objects (traced under NoHM\n"},
		{"-app synthetic -r 4 -workers 8", apps.Spec{App: "synthetic", Rep: 4, Updates: 1024, Workers: 8}, "synthetic(r=4)",
			"2312 protocol events over 1 shared objects (traced under NoHM\n"},
	} {
		var out bytes.Buffer
		rows, err := run(&out, tc.spec, 8, 16)
		if err != nil {
			t.Fatalf("%s: %v", tc.usage, err)
		}
		if !strings.HasPrefix(out.String(), tc.header) {
			t.Errorf("%s: output starts %q, want %q", tc.usage, out.String()[:len(tc.header)], tc.header)
		}
		if got, want := len(rows), len(bench.Policies()); got != want {
			t.Fatalf("%s: %d rows, want one per builtin policy (%d)", tc.usage, got, want)
		}
		var buf bytes.Buffer
		if err := (&bench.Report{Ablations: rows}).WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		compared := 0
		for _, row := range records(t, buf.Bytes())[1:] {
			for _, g := range golden {
				// figure, study, variant, workload, then the measured fields
				if len(g) != len(row) || g[1] != "related" || g[2] != row[2] || g[3] != tc.workload {
					continue
				}
				compared++
				if !slices.Equal(row[4:], g[4:]) {
					t.Errorf("%s, %s: dsmtrace row %v, golden related row %v", tc.usage, row[2], row[4:], g[4:])
				}
			}
		}
		if compared != 5 {
			t.Errorf("%s: compared %d rows with the related ablation, want 5", tc.usage, compared)
		}
	}
}

// records parses blank-line-separated CSV sections of any width.
func records(t *testing.T, b []byte) [][]string {
	t.Helper()
	r := csv.NewReader(bytes.NewReader(b))
	r.FieldsPerRecord = -1
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return recs
}
