// Package lint is dsmlint: a static-analysis suite that turns this
// repository's load-bearing conventions — determinism of the simulation
// core, frame-buffer pooling discipline, sentinel-error handling,
// allocation-free hot paths, the shape of the protocol core and its two
// engines — into compile-time checks. Each analyzer encodes a bug class
// that was previously caught only dynamically (golden byte-identity
// tests, the LRC oracle, 4200-run chaos sweeps), by shell greps, or not
// at all.
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Diagnostic, testdata fixtures with `// want`
// expectations) but is implemented entirely on the standard library:
// the build environment pins zero third-party dependencies, and the
// go/types + go/importer toolchain is sufficient for every rule here.
// If the repo ever adopts x/tools, each Analyzer ports mechanically.
//
// Analyzers:
//
//   - detlint:   no wall-clock reads, math/rand, or order-dependent
//     map-range emission in the deterministic packages; wall-clock
//     users opt out per file with a justified //dsm:wallclock.
//   - framelint: every transport.GetFrame(For) or Frames.Get(For) buffer reaches
//     PutFrame or an ownership-transferring Send/Put/return on all
//     paths, and is never touched after the handoff.
//   - errlint:   sentinel errors flow through errors.Is, never == / !=
//     or error-text comparison.
//   - hotlint:   //dsm:hotpath functions reject allocating composite
//     literals, closures, fmt calls, and interface boxing.
//   - shapelint: one table of shape rules, shapeRules. A row is an
//     import rule (package P may not import Q), an only rule (X may
//     appear only in the listed files, optionally exactly n times in
//     each) or a ban (X may not appear in the listed packages). X is
//     resolved through types.Info: a func, method, type, field or
//     constant, a composite-literal type, a map type, a flag name
//     registered on flag or a *flag.FlagSet, a package clause — or,
//     for one row, a word in the README.md beside a package.
//
// Suppression: a finding can be silenced with a justified
// `//dsm:nolint <analyzer>: <reason>` comment on the flagged line or
// the line above. A bare, unjustified nolint does not suppress — the
// diagnostic is reported with a note instead, so every suppression in
// the tree carries its own audit trail.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //dsm:nolint
	// directives.
	Name string
	// Doc is the analyzer's one-paragraph description.
	Doc string
	// Run executes the check over one package, reporting findings
	// through the pass.
	Run func(*Pass) error
}

// A Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass carries one analyzer's view of one type-checked package,
// mirroring analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	dirs    *directiveIndex
	collect func(Diagnostic)
}

// Reportf records a finding at pos unless a justified //dsm:nolint
// directive for this analyzer covers the line. An unjustified nolint
// is ignored (and called out), keeping every suppression auditable.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if d, ok := p.dirs.nolintAt(position, p.Analyzer.Name); ok {
		if d.reason != "" {
			return // justified suppression
		}
		p.collect(Diagnostic{
			Pos:      position,
			Analyzer: p.Analyzer.Name,
			Message: fmt.Sprintf(format, args...) +
				" (unjustified //dsm:nolint ignored: add a reason after ':')",
		})
		return
	}
	p.collect(Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of expression e.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.TypesInfo.TypeOf(e) }

// ObjectOf resolves an identifier to its object (definition or use).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.TypesInfo.ObjectOf(id); o != nil {
		return o
	}
	return nil
}

// All returns every dsmlint analyzer, in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Det, Frame, Err, Hot, Shape}
}

// ByName resolves comma-separated analyzer names ("detlint,errlint");
// the empty string selects all of them.
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// RunAnalyzers applies every analyzer to every package and returns the
// findings sorted by position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		idx := indexDirectives(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				dirs:      idx,
				collect:   func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}
