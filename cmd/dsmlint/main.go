// Command dsmlint runs the repository's static-analysis suite (see
// internal/lint): detlint, framelint, errlint, hotlint.
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
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run())
}

// run loads package patterns from the module tree with the offline
// loader and reports every finding.
func run() int {
	fs := flag.NewFlagSet("dsmlint", flag.ExitOnError)
	names := fs.String("analyzers", "", "comma-separated analyzer names (default all)")
	fs.Parse(os.Args[1:])
	analyzers, err := lint.ByName(*names)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	pkgs, err := loader.Load(fs.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	diags, err := lint.RunAnalyzers(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	cwd, _ := os.Getwd()
	for _, d := range diags {
		pos := d.Pos
		if rel, err := filepath.Rel(cwd, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			pos.Filename = rel
		}
		fmt.Printf("%s: %s: %s\n", pos, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "dsmlint: %d finding(s)\n", len(diags))
		return 2
	}
	return 0
}
