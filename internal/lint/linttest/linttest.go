// Package linttest runs dsmlint analyzers over fixture packages and
// checks their findings against `// want` expectations, in the style
// of golang.org/x/tools/go/analysis/analysistest.
//
// Fixtures live under internal/lint/testdata/src/<import-path>/ and are
// loaded with that synthetic import path (the detlint fixture tree uses
// fixture/det/... so the analyzer's package classification kicks in).
// An expectation is a comment of the form
//
//	// want "regexp"
//	// want `regexp` `another`
//	// want@-1 `regexp`   (applies to the line above — for diagnostics
//	                       positioned on a directive comment's own line)
//
// A Markdown file beside the fixture's Go files (checks that read text,
// like shapelint's README row) carries the same clause anywhere on the
// line it applies to, e.g. inside <!-- -->. Every diagnostic must match
// an expectation on its line and every expectation must be hit, or the
// test fails.
package linttest

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
)

var (
	loaderOnce sync.Once
	loader     *lint.Loader
	loaderErr  error
)

// sharedLoader memoizes one Loader per test binary: the expensive part
// is type-checking the standard library from source, and the fixture
// packages can all share that work.
func sharedLoader(t *testing.T) *lint.Loader {
	t.Helper()
	loaderOnce.Do(func() {
		loader, loaderErr = lint.NewLoader(".")
	})
	if loaderErr != nil {
		t.Fatalf("linttest: loader: %v", loaderErr)
	}
	return loader
}

// expectation is one parsed want clause, keyed to a file line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

// wantRe matches the head of a want comment; quoted patterns follow.
var wantRe = regexp.MustCompile(`want(@[+-][0-9]+)?((?:\s+(?:"(?:[^"\\]|\\.)*"|` + "`[^`]*`" + `))+)`)

// patRe matches one quoted pattern (double-quoted or backquoted).
var patRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"|` + "`[^`]*`")

// Run loads each fixture package rooted at
// internal/lint/testdata/src/<path> and checks analyzer a's
// diagnostics against the fixtures' want comments (in the Go files, and
// in the Markdown files beside them), returning the diagnostics.
func Run(t *testing.T, a *lint.Analyzer, paths ...string) []lint.Diagnostic {
	t.Helper()
	l := sharedLoader(t)
	var all []lint.Diagnostic
	for _, path := range paths {
		dir := filepath.Join(l.Root, "internal", "lint", "testdata", "src", filepath.FromSlash(path))
		pkgs, err := l.LoadDir(dir, path)
		if err != nil {
			t.Fatalf("linttest: load %s: %v", path, err)
		}
		if len(pkgs) == 0 {
			t.Fatalf("linttest: no Go files in %s", dir)
		}
		diags, err := lint.RunAnalyzers(pkgs, []*lint.Analyzer{a})
		if err != nil {
			t.Fatalf("linttest: run %s on %s: %v", a.Name, path, err)
		}
		wants := append(collectWants(t, pkgs), markdownWants(t, dir)...)
		match(t, path, diags, wants)
		all = append(all, diags...)
	}
	return all
}

// collectWants parses the want comments out of every fixture file.
func collectWants(t *testing.T, pkgs []*lint.Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					pos := pkg.Fset.Position(c.Pos())
					wants = append(wants, parseWant(t, c.Text, pos.Filename, pos.Line)...)
				}
			}
		}
	}
	return wants
}

// markdownWants parses the want comments out of the Markdown files in
// dir, one per line, for checks that read text beside the Go files.
func markdownWants(t *testing.T, dir string) []*expectation {
	t.Helper()
	files, _ := filepath.Glob(filepath.Join(dir, "*.md"))
	var wants []*expectation
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("linttest: %v", err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			wants = append(wants, parseWant(t, line, file, i+1)...)
		}
	}
	return wants
}

// parseWant parses the want clause, if any, in text found at file:line.
func parseWant(t *testing.T, text, file string, line int) []*expectation {
	t.Helper()
	m := wantRe.FindStringSubmatch(text)
	if m == nil {
		return nil
	}
	if m[1] != "" {
		off, err := strconv.Atoi(m[1][1:])
		if err != nil {
			t.Fatalf("linttest: bad want offset %q", m[1])
		}
		line += off
	}
	var wants []*expectation
	for _, q := range patRe.FindAllString(m[2], -1) {
		pat := q[1 : len(q)-1]
		if q[0] == '"' {
			unq, err := strconv.Unquote(q)
			if err != nil {
				t.Fatalf("linttest: bad want pattern %s: %v", q, err)
			}
			pat = unq
		}
		re, err := regexp.Compile(pat)
		if err != nil {
			t.Fatalf("linttest: bad want regexp %q: %v", pat, err)
		}
		wants = append(wants, &expectation{file: file, line: line, re: re, raw: pat})
	}
	return wants
}

// match pairs diagnostics with expectations one-to-one.
func match(t *testing.T, path string, diags []lint.Diagnostic, wants []*expectation) {
	t.Helper()
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.hit || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic:\n  %s", path, d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s: expected diagnostic not reported at %s:%d: %q",
				path, relName(w.file), w.line, w.raw)
		}
	}
}

func relName(file string) string {
	if i := strings.LastIndex(file, "testdata"); i >= 0 {
		return file[i:]
	}
	return file
}
