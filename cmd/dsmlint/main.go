// Command dsmlint runs the repository's static-analysis suite (see
// internal/lint): detlint, framelint, errlint, hotlint and shapelint,
// whose table of shape rules keeps one protocol core under two engines
// (a row bans an import, confines a name to listed files, or bans it).
//
// It loads packages straight from the module tree, no build cache or
// network required:
//
//	go run ./cmd/dsmlint ./...
//	go run ./cmd/dsmlint -analyzers=framelint,errlint ./internal/live/...
//
// Exit status: 0 clean, 1 usage or load failure, 2 findings.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run loads package patterns from the module tree with the offline
// loader, reports every finding on stdout and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dsmlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("analyzers", "", "comma-separated analyzer names (default all)")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	analyzers, err := lint.ByName(*names)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	pkgs, err := loader.Load(fs.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	diags, err := lint.RunAnalyzers(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	cwd, _ := os.Getwd()
	for _, d := range diags {
		pos := d.Pos
		if rel, err := filepath.Rel(cwd, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			pos.Filename = rel
		}
		fmt.Fprintf(stdout, "%s: %s: %s\n", pos, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "dsmlint: %d finding(s)\n", len(diags))
		return 2
	}
	return 0
}
