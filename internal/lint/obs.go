package lint

import (
	"go/ast"
	"go/types"
)

// Obs is obslint: every flight.Recorder.Record call outside
// internal/flight must be behind a nil check. Protocol sites never hold a
// recorder — they emit through proto.Node.Emit, whose subscriber list is
// simply empty when nothing listens — but the transports' cold sites
// (heartbeats, injected faults, aborts) keep a *flight.Recorder field
// that is nil whenever recording is disabled, the default on every
// benchmark and production run. An unguarded call there is a nil
// dereference that only fires when recording is off, exactly when no
// test is watching.
//
// Accepted guards, innermost first:
//
//	if f := x.fl; f != nil { f.Record(...) }
//	if x.fl != nil { x.fl.Record(...) }
//	if x.fl == nil { return }  // earlier in the same block
//
// internal/flight itself is exempt: its recorders come from a
// constructor that never returns nil.
var Obs = &Analyzer{
	Name: "obslint",
	Doc:  "flight.Recorder.Record calls outside internal/flight must be nil-guarded",
	Run:  runObs,
}

const flightPkg = "repro/internal/flight"

func runObs(pass *Pass) error {
	if pass.Pkg != nil && pass.Pkg.Path() == flightPkg {
		return nil
	}
	for _, file := range pass.Files {
		var stack []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !isRecorderRecord(pass, sel) {
				return true
			}
			recv := types.ExprString(sel.X)
			if !guardedAgainstNil(stack, recv) {
				pass.Reportf(call.Pos(),
					"flight.Recorder.Record called without a nil check on %s "+
						"(the recorder is nil whenever recording is disabled)", recv)
			}
			return true
		})
	}
	return nil
}

// isRecorderRecord reports whether sel selects (*flight.Recorder).Record.
func isRecorderRecord(pass *Pass, sel *ast.SelectorExpr) bool {
	if sel.Sel.Name != "Record" {
		return false
	}
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	t := s.Recv()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == flightPkg && obj.Name() == "Recorder"
}

// guardedAgainstNil walks the enclosing nodes looking for an if whose
// condition establishes recv != nil, or an earlier early-return guard
// (if recv == nil { return }) in an enclosing block.
func guardedAgainstNil(stack []ast.Node, recv string) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.IfStmt:
			// The call must be in the guarded body, not the condition or
			// the else branch.
			if i+1 < len(stack) && stack[i+1] == n.Body && condChecksNonNil(n.Cond, recv) {
				return true
			}
		case *ast.BlockStmt:
			// An earlier `if recv == nil { return }` in this block.
			var cur ast.Node
			if i+1 < len(stack) {
				cur = stack[i+1]
			}
			for _, stmt := range n.List {
				if cur != nil && stmt == cur {
					break
				}
				ifs, ok := stmt.(*ast.IfStmt)
				if !ok || !blockTerminates(ifs.Body) {
					continue
				}
				if condChecksNil(ifs.Cond, recv) {
					return true
				}
			}
		}
	}
	return false
}

// condChecksNonNil reports whether cond contains `recv != nil`
// (possibly under &&).
func condChecksNonNil(cond ast.Expr, recv string) bool {
	return condChecks(cond, recv, "!=")
}

// condChecksNil reports whether cond contains `recv == nil`.
func condChecksNil(cond ast.Expr, recv string) bool {
	return condChecks(cond, recv, "==")
}

func condChecks(cond ast.Expr, recv, op string) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || be.Op.String() != op {
			return true
		}
		for _, pair := range [2][2]ast.Expr{{be.X, be.Y}, {be.Y, be.X}} {
			if types.ExprString(pair[0]) == recv && types.ExprString(pair[1]) == "nil" {
				found = true
			}
		}
		return !found
	})
	return found
}

// blockTerminates reports whether a block's last statement leaves the
// function (return, panic, continue — enough for a nil guard).
func blockTerminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch s := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}
