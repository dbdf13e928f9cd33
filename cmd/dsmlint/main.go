// Command dsmlint runs the repository's static-analysis suite (see
// internal/lint): detlint, framelint, errlint, hotlint.
//
// Standalone mode loads packages straight from the module tree, no
// build cache or network required:
//
//	go run ./cmd/dsmlint ./...
//	go run ./cmd/dsmlint -analyzers=framelint,errlint ./internal/live/...
//
// It also speaks the go vet -vettool driver protocol (-V=full, -flags,
// and a *.cfg argument with pre-built export data), so a compiled
// binary plugs into the toolchain:
//
//	go build -o /tmp/dsmlint ./cmd/dsmlint
//	go vet -vettool=/tmp/dsmlint ./...
//
// Exit status: 0 clean, 1 usage or load failure, 2 findings.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	// The vet driver probes with -V=full and -flags before handing over
	// a vet.cfg; intercept those before normal flag parsing.
	if len(os.Args) == 2 {
		switch {
		case os.Args[1] == "-V=full":
			printVersion()
			return
		case os.Args[1] == "-flags":
			fmt.Println("[]")
			return
		case strings.HasSuffix(os.Args[1], ".cfg"):
			os.Exit(runVetCfg(os.Args[1]))
		}
	}
	os.Exit(runStandalone())
}

// printVersion emits the version line the go command uses as a cache
// key: any change to the binary must change the line, so hash the
// executable itself.
func printVersion() {
	progname, _ := os.Executable()
	h := sha256.New()
	if f, err := os.Open(progname); err == nil {
		io.Copy(h, f)
		f.Close()
	}
	fmt.Printf("%s version devel buildID=%02x\n", filepath.Base(progname), h.Sum(nil))
}

// runStandalone loads package patterns from the module tree with the
// offline loader and reports every finding.
func runStandalone() int {
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

// vetConfig mirrors the fields of the go command's vet.cfg handoff that
// this driver needs (the file carries more; unknown keys are ignored).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runVetCfg analyzes one package the way go vet hands it over:
// pre-listed Go files plus compiler export data for every import.
func runVetCfg(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsmlint: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "dsmlint: parsing %s: %v\n", path, err)
		return 1
	}
	// We track no cross-package facts, but the driver expects the vetx
	// output file to exist after a successful run.
	writeVetx := func() {
		if cfg.VetxOutput != "" {
			os.WriteFile(cfg.VetxOutput, nil, 0o666)
		}
	}
	if cfg.VetxOnly {
		writeVetx()
		return 0
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsmlint: %v\n", err)
			return 1
		}
		files = append(files, f)
	}
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	imp := importer.ForCompiler(fset, compiler, func(importPath string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[importPath]; ok {
			importPath = mapped
		}
		file, ok := cfg.PackageFile[importPath]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", importPath)
		}
		return os.Open(file)
	})
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	tconf := types.Config{Importer: imp, GoVersion: cfg.GoVersion}
	tpkg, err := tconf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			writeVetx()
			return 0
		}
		fmt.Fprintf(os.Stderr, "dsmlint: typecheck %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	pkg := &lint.Package{Path: cfg.ImportPath, Fset: fset, Files: files, Types: tpkg, Info: info}
	diags, err := lint.RunAnalyzers([]*lint.Package{pkg}, lint.All())
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsmlint: %v\n", err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s: %s\n", d.Pos, d.Analyzer, d.Message)
	}
	writeVetx()
	if len(diags) > 0 {
		return 2
	}
	return 0
}
