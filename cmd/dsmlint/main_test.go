package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestExitCodes holds dsmlint to its documented exit statuses. A
// pattern may name a fixture directory: the loader skips testdata only
// below the base of a "..." pattern.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		code int
		out  string // a line the findings on stdout must carry
	}{
		{"clean", []string{"./internal/prng"}, 0, ""},
		{"unknown analyzer", []string{"-analyzers=nosuch", "./internal/prng"}, 1, ""},
		{"findings", []string{"./internal/lint/testdata/src/fixture/errs"}, 2, "errlint: sentinel error ErrStale compared with =="},
		{"shape findings", []string{"-analyzers=shapelint", "./internal/lint/testdata/src/fixture/shape/..."}, 2,
			"shapelint: only the facade builds an engine: use of gos.New outside dsm.go"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("dsmlint %s: exit %d, want %d\nstdout:\n%sstderr:\n%s",
					strings.Join(tc.args, " "), code, tc.code, &stdout, &stderr)
			}
			if !strings.Contains(stdout.String(), tc.out) {
				t.Errorf("stdout lacks %q:\n%s", tc.out, &stdout)
			}
			if tc.code == 0 && stdout.Len() > 0 {
				t.Errorf("clean run printed findings:\n%s", &stdout)
			}
		})
	}
}
