package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package ready for analysis. For source
// directories it includes in-package _test.go files (the analyzers see
// what the test build sees); external test packages (package foo_test)
// load as their own Package.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader loads and type-checks this module's packages without the go
// toolchain's package driver: module packages resolve straight from the
// module directory tree, standard-library imports type-check from
// GOROOT source via go/importer. Everything runs offline on a bare
// checkout — no build cache, no module proxy, no x/tools.
type Loader struct {
	Fset   *token.FileSet
	Root   string // module root (directory of go.mod)
	Module string // module path from go.mod

	std   types.Importer
	plain map[string]*types.Package // memoized import-view packages
	stack []string                  // import cycle detection
}

// NewLoader builds a Loader for the module rooted at or above dir.
func NewLoader(dir string) (*Loader, error) {
	root, module, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	// The source importer honors go/build's context; with cgo off the
	// standard library type-checks pure-Go everywhere (the net resolver
	// etc. fall back to their netgo variants), which is exactly what an
	// offline lint pass wants.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		Fset:   fset,
		Root:   root,
		Module: module,
		std:    importer.ForCompiler(fset, "source", nil),
		plain:  map[string]*types.Package{},
	}, nil
}

// findModule walks up from dir to the enclosing go.mod.
func findModule(dir string) (root, module string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// Import implements types.Importer: module-internal paths load from the
// module tree (import view: no test files), everything else defers to
// the GOROOT source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		return l.importModulePkg(path)
	}
	return l.std.Import(path)
}

func (l *Loader) importModulePkg(path string) (*types.Package, error) {
	if pkg, ok := l.plain[path]; ok {
		return pkg, nil
	}
	for _, p := range l.stack {
		if p == path {
			return nil, fmt.Errorf("lint: import cycle through %s", path)
		}
	}
	l.stack = append(l.stack, path)
	defer func() { l.stack = l.stack[:len(l.stack)-1] }()

	dir := filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(path, l.Module)))
	files, _, err := l.parseDir(dir, false)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	pkg, _, err := l.check(path, files)
	if err != nil {
		return nil, err
	}
	l.plain[path] = pkg
	return pkg, nil
}

// parseDir parses the directory's Go files, skipping those a build
// constraint excludes on this platform: files is the package, with its
// in-package _test.go files when withTests; external is its package
// foo_test files, only when withTests.
func (l *Loader) parseDir(dir string, withTests bool) (files, external []*ast.File, err error) {
	names, err := listGoFiles(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, name := range names {
		isTest := strings.HasSuffix(name, "_test.go")
		if isTest && !withTests {
			continue
		}
		f, err := l.parseFile(filepath.Join(dir, name))
		if err != nil {
			return nil, nil, err
		}
		switch {
		case f == nil:
		case !strings.HasSuffix(f.Name.Name, "_test"):
			files = append(files, f)
		case isTest:
			external = append(external, f)
		}
	}
	return files, external, nil
}

// parseFile parses one file, or returns nil for a file this platform's
// build would leave out (a //go:build constraint, a _GOOS suffix).
func (l *Loader) parseFile(path string) (*ast.File, error) {
	if match, err := build.Default.MatchFile(filepath.Split(path)); err != nil || !match {
		return nil, err
	}
	return parser.ParseFile(l.Fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
}

func listGoFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

// check type-checks one file set as package path.
func (l *Loader) check(path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	var errs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { errs = append(errs, err) },
	}
	pkg, _ := conf.Check(path, l.Fset, files, info)
	if len(errs) > 0 {
		msgs := make([]string, 0, len(errs))
		for i, e := range errs {
			if i == 8 {
				msgs = append(msgs, fmt.Sprintf("... and %d more", len(errs)-8))
				break
			}
			msgs = append(msgs, e.Error())
		}
		return nil, nil, fmt.Errorf("lint: type errors in %s:\n  %s", path, strings.Join(msgs, "\n  "))
	}
	return pkg, info, nil
}

// LoadDir loads the single directory dir as import path path, test
// files included, for analysis.
func (l *Loader) LoadDir(dir, path string) ([]*Package, error) {
	var pkgs []*Package
	files, ext, err := l.parseDir(dir, true)
	if err != nil {
		return nil, err
	}
	if len(files) > 0 {
		tpkg, info, err := l.check(path, files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, &Package{Path: path, Fset: l.Fset, Files: files, Types: tpkg, Info: info})
	}
	if len(ext) > 0 {
		tpkg, info, err := l.check(path+"_test", ext)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, &Package{Path: path + "_test", Fset: l.Fset, Files: ext, Types: tpkg, Info: info})
	}
	return pkgs, nil
}

// Load resolves package patterns ("./...", "./cmd/dsmlint",
// "./internal/...") against the module root and returns the
// type-checked packages, tests included.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs := map[string]bool{}
	for _, pat := range patterns {
		pat = strings.TrimPrefix(pat, l.Module+"/")
		pat = strings.TrimPrefix(pat, "./")
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			base := filepath.Join(l.Root, filepath.FromSlash(strings.TrimSuffix(rest, "/")))
			err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if p != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
					return filepath.SkipDir
				}
				names, err := listGoFiles(p)
				if err != nil {
					return err
				}
				if len(names) > 0 {
					dirs[p] = true
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		} else {
			dirs[filepath.Join(l.Root, filepath.FromSlash(pat))] = true
		}
	}
	sorted := make([]string, 0, len(dirs))
	for d := range dirs {
		sorted = append(sorted, d)
	}
	sort.Strings(sorted)
	var pkgs []*Package
	for _, dir := range sorted {
		rel, err := filepath.Rel(l.Root, dir)
		if err != nil {
			return nil, err
		}
		path := l.Module
		if rel != "." {
			path = l.Module + "/" + filepath.ToSlash(rel)
		}
		loaded, err := l.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, loaded...)
	}
	return pkgs, nil
}
