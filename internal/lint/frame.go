package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Frame is framelint: transport.GetFrame and GetFrameFor, and the Get and
// GetFor of an owner's own free list (transport.Frames), hand out a pooled
// buffer whose ownership
// must reach exactly one of PutFrame or the list's Put (recycled), an
// ownership-transferring call (Send/SendCtrl/Put, or a backend's deliver
// into the node's sink — the transport, queue or node owns it
// afterwards), or the caller (returned). A frame that
// reaches a function exit still owned leaks from the pool (the bug
// behind the tcp reader's early-return paths), and a frame touched
// after its handoff races whoever owns it now (the bug class behind
// PR 6's dup-before-enqueue fix).
//
// The other end of a push delivery is held to the same rule: a function
// handed to a SetSink call (transport.Pusher) receives a frame it owns,
// so its []byte parameter is tracked from entry as if GetFrame had
// produced it there — every path must recycle it or send it on (a
// relaying sink re-sends the original frame).
//
// The analysis is function-local and branch-sensitive over the AST:
// every variable initialized from either getter (possibly through
// append/Encode chains) is tracked through if/switch/select/for
// statements. It is a lint heuristic, not a proof — an alias the
// analysis cannot follow transfers ownership conservatively rather
// than reporting noise, and `defer PutFrame(f)` satisfies every exit.
// Frames that panic out of scope are exempt: a panicking daemon has
// already torn the process down.
var Frame = &Analyzer{
	Name: "framelint",
	Doc: "every transport.GetFrame(For) or Frames.Get(For) buffer must reach PutFrame, an " +
		"ownership-transferring Send/Put, or a return on all paths, " +
		"and must not be used after the handoff",
	Run: runFrame,
}

// Ownership states of a tracked frame variable.
type frameState uint8

const (
	stLive     frameState = iota // owns a pooled buffer
	stReleased                   // ownership gone: PutFrame/Send/alias/return
	stCondRel                    // released in an if-condition (Put(v) pattern):
	// branch bodies may legally release again
	stInert // rebound to a non-pooled value: no obligation
)

// transferMethods are call names that take frame ownership. Put covers
// transport.Queue enqueues (frames travel inside outFrame composites);
// Send/SendCtrl cover Transport implementations and the engine. The TCP
// backend wraps both ends: enqueue is its Put plus the writer wake-up,
// deliver its reader's hand-off to the node (the sink, or the inbox).
var transferMethods = map[string]bool{
	"Send": true, "SendCtrl": true, "Put": true, "PutFrame": true,
	"enqueue": true, "deliver": true,
}

func runFrame(pass *Pass) error {
	sinks := sinkFrames(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			analyzeFrameBody(pass, fn.Body, sinks[fn.Body])
		}
		// Closures are functions too: each FuncLit body is analyzed on
		// its own (frames it acquires must be discharged inside it; the
		// enclosing function's analysis treats the literal opaquely).
		ast.Inspect(file, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				analyzeFrameBody(pass, fl.Body, sinks[fl.Body])
			}
			return true
		})
	}
	return nil
}

// sinkFrames finds the package's frame sinks — the functions handed to
// a SetSink call, as literals or as names of functions and methods
// declared here — and maps each one's body to the parameter that
// arrives owning a frame: its first []byte. A sink passed along as a
// plain value (a delegating SetSink) is its installer's to check.
func sinkFrames(pass *Pass) map[*ast.BlockStmt]types.Object {
	decls := map[types.Object]*ast.FuncDecl{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				decls[pass.ObjectOf(fn.Name)] = fn
			}
		}
	}
	sinks := map[*ast.BlockStmt]types.Object{}
	add := func(ft *ast.FuncType, body *ast.BlockStmt) {
		for _, field := range ft.Params.List {
			if types.Identical(pass.TypesInfo.TypeOf(field.Type), types.NewSlice(types.Typ[types.Byte])) && len(field.Names) > 0 {
				sinks[body] = pass.ObjectOf(field.Names[0])
				return
			}
		}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, _ := calleeName(call); name != "SetSink" {
				return true
			}
			for _, arg := range call.Args {
				switch arg := arg.(type) {
				case *ast.FuncLit:
					add(arg.Type, arg.Body)
				case *ast.Ident:
					if fn := decls[pass.TypesInfo.Uses[arg]]; fn != nil {
						add(fn.Type, fn.Body)
					}
				case *ast.SelectorExpr:
					if fn := decls[pass.TypesInfo.Uses[arg.Sel]]; fn != nil {
						add(fn.Type, fn.Body)
					}
				}
			}
			return true
		})
	}
	return sinks
}

// analyzeFrameBody checks one function body; sinkFrame, when non-nil, is
// the parameter that owns a frame on entry.
func analyzeFrameBody(pass *Pass, body *ast.BlockStmt, sinkFrame types.Object) {
	if sinkFrame == nil && !mentionsGetFrame(pass, body) {
		return
	}
	fa := &frameAnalysis{pass: pass, deferRel: map[types.Object]bool{}}
	st := frameEnv{}
	if sinkFrame != nil {
		st[sinkFrame] = stLive
	}
	if terminated := fa.block(body.List, st); !terminated {
		fa.reportLeaks(st, leakAt{body.Rbrace})
	}
}

// mentionsGetFrame reports a GetFrame call in n outside any nested
// closure (closures are analyzed as their own function bodies).
func mentionsGetFrame(pass *Pass, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if _, ok := c.(*ast.FuncLit); ok {
			return false
		}
		if isGetFrameCall(pass, c) {
			found = true
		}
		return !found
	})
	return found
}

// isGetFrameCall reports a call of a frame source: transport.GetFrame or
// GetFrameFor, or (*transport.Frames).Get or GetFor.
func isGetFrameCall(pass *Pass, n ast.Node) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	var id *ast.Ident
	if ok {
		id = sel.Sel
	} else if ident, ok2 := call.Fun.(*ast.Ident); ok2 {
		id = ident
	} else {
		return false
	}
	obj := pass.TypesInfo.Uses[id]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "repro/internal/live/transport" {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Name() == "GetFrame" || fn.Name() == "GetFrameFor"
	}
	named, _ := types.Unalias(deref(recv.Type())).(*types.Named)
	return (fn.Name() == "Get" || fn.Name() == "GetFor") && named != nil && named.Obj().Name() == "Frames"
}

// deref strips one pointer.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// frameEnv maps tracked variables to their ownership state.
type frameEnv map[types.Object]frameState

func (e frameEnv) clone() frameEnv {
	c := make(frameEnv, len(e))
	for k, v := range e {
		c[k] = v
	}
	return c
}

type frameAnalysis struct {
	pass     *Pass
	deferRel map[types.Object]bool // released by defer: exempt at exits
}

// leakAt positions a fall-off-the-end leak report at the closing brace.
type leakAt struct{ pos token.Pos }

func (l leakAt) Pos() token.Pos { return l.pos }
func (l leakAt) End() token.Pos { return l.pos }

// block analyzes a statement list, mutating st; it reports whether the
// list definitely terminates (return or panic).
func (fa *frameAnalysis) block(stmts []ast.Stmt, st frameEnv) bool {
	for _, s := range stmts {
		if fa.stmt(s, st) {
			return true
		}
	}
	return false
}

// stmt analyzes one statement; true means control does not continue
// past it (return/panic).
func (fa *frameAnalysis) stmt(s ast.Stmt, st frameEnv) bool {
	switch s := s.(type) {
	case *ast.AssignStmt:
		fa.assign(s, st)
	case *ast.ExprStmt:
		if isPanicCall(fa.pass, s.X) {
			return true // frames may die with the process
		}
		fa.expr(s.X, st)
	case *ast.ReturnStmt:
		for _, res := range s.Results {
			fa.exprScan(res, st, nil, true)
			fa.markTransferred(res, st) // returning a frame transfers it
		}
		fa.reportLeaks(st, s)
		return true
	case *ast.DeferStmt:
		fa.deferCall(s, st)
	case *ast.GoStmt:
		// Ownership moves into the goroutine; unverifiable here.
		fa.markTransferred(s.Call, st)
	case *ast.IfStmt:
		return fa.ifStmt(s, st)
	case *ast.SwitchStmt:
		return fa.switchBranches(s.Init, s.Tag, s.Body, st, true)
	case *ast.TypeSwitchStmt:
		return fa.switchBranches(s.Init, nil, s.Body, st, true)
	case *ast.SelectStmt:
		return fa.switchBranches(nil, nil, s.Body, st, false)
	case *ast.ForStmt:
		if s.Init != nil {
			fa.stmt(s.Init, st)
		}
		if s.Cond != nil {
			fa.expr(s.Cond, st)
		}
		body := st.clone()
		fa.block(s.Body.List, body)
		fa.mergeLoop(st, body)
	case *ast.RangeStmt:
		fa.expr(s.X, st)
		body := st.clone()
		fa.block(s.Body.List, body)
		fa.mergeLoop(st, body)
	case *ast.BlockStmt:
		return fa.block(s.List, st)
	case *ast.LabeledStmt:
		return fa.stmt(s.Stmt, st)
	case *ast.SendStmt:
		fa.markTransferred(s.Value, st)
	case *ast.BranchStmt:
		// break/continue/goto: path leaves this block. Treat as
		// terminating for merge purposes; leak checking happens at the
		// enclosing loop's own exits.
		return true
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						fa.expr(v, st)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		fa.expr(s.X, st)
	}
	return false
}

// ifStmt analyzes an if with branch-sensitive states.
func (fa *frameAnalysis) ifStmt(s *ast.IfStmt, st frameEnv) bool {
	if s.Init != nil {
		fa.stmt(s.Init, st)
	}
	// A transfer call in the condition (`if !q.Put(v) { PutFrame(v) }`)
	// conditionally releases: Put==false means the frame was dropped
	// back to the caller, so a release inside either branch is legal.
	condTransfers := fa.condTransferVars(s.Cond, st)
	fa.expr(s.Cond, st)
	for _, v := range condTransfers {
		st[v] = stCondRel
	}
	thenSt := st.clone()
	thenTerm := fa.block(s.Body.List, thenSt)
	elseSt := st.clone()
	elseTerm := false
	switch e := s.Else.(type) {
	case *ast.BlockStmt:
		elseTerm = fa.block(e.List, elseSt)
	case *ast.IfStmt:
		elseTerm = fa.ifStmt(e, elseSt)
	}
	// Merge surviving branches back into st.
	for _, v := range condTransfers {
		// Whatever the branches did, the frame is gone after the if.
		thenSt[v] = stReleased
		elseSt[v] = stReleased
	}
	// A nil check partitions the obligation: on the branch where the
	// tracked variable is nil it holds no frame, so that path owes
	// nothing (`if dup != nil { PutFrame(dup) }` fully discharges dup).
	if v, nonNilThen, ok := fa.nilCheckedVar(s.Cond, st); ok {
		if nonNilThen {
			if elseSt[v] == stLive {
				elseSt[v] = stReleased
			}
		} else if thenSt[v] == stLive {
			thenSt[v] = stReleased
		}
	}
	merge(st, thenSt, thenTerm, elseSt, elseTerm)
	return thenTerm && elseTerm
}

// nilCheckedVar recognizes a condition that is exactly `v != nil` or
// `v == nil` for a tracked variable v; nonNilThen reports which branch
// sees the non-nil value. Compound conditions don't qualify — the
// complementary branch would not imply nilness.
func (fa *frameAnalysis) nilCheckedVar(cond ast.Expr, st frameEnv) (v types.Object, nonNilThen, ok bool) {
	be, isBin := cond.(*ast.BinaryExpr)
	if !isBin || (be.Op != token.NEQ && be.Op != token.EQL) {
		return nil, false, false
	}
	for _, pair := range [2][2]ast.Expr{{be.X, be.Y}, {be.Y, be.X}} {
		id, isIdent := pair[0].(*ast.Ident)
		if !isIdent {
			continue
		}
		nilIdent, isNil := pair[1].(*ast.Ident)
		if !isNil || nilIdent.Name != "nil" {
			continue
		}
		obj := fa.pass.TypesInfo.Uses[id]
		if obj == nil {
			continue
		}
		if _, tracked := st[obj]; !tracked {
			continue
		}
		return obj, be.Op == token.NEQ, true
	}
	return nil, false, false
}

// switchBranches analyzes switch/type-switch/select clause bodies.
func (fa *frameAnalysis) switchBranches(init ast.Stmt, tag ast.Expr, body *ast.BlockStmt, st frameEnv, hasImplicitFallthrough bool) bool {
	if init != nil {
		fa.stmt(init, st)
	}
	if tag != nil {
		fa.expr(tag, st)
	}
	allTerm := true
	hasDefault := false
	branchStates := []frameEnv{}
	for _, clause := range body.List {
		var stmts []ast.Stmt
		switch c := clause.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			for _, e := range c.List {
				fa.expr(e, st)
			}
			stmts = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			} else {
				fa.stmt(c.Comm, st)
			}
			stmts = c.Body
		}
		bst := st.clone()
		if !fa.block(stmts, bst) {
			allTerm = false
			branchStates = append(branchStates, bst)
		}
	}
	// Without a default, execution may skip every clause.
	if hasImplicitFallthrough && !hasDefault {
		allTerm = false
		branchStates = append(branchStates, st.clone())
	}
	mergeAll(st, branchStates)
	return allTerm && len(body.List) > 0
}

// merge joins two branch states into st: a frame still live on any
// surviving path stays live (leak checks fire at exits), released on
// every surviving path becomes released.
func merge(st frameEnv, a frameEnv, aTerm bool, b frameEnv, bTerm bool) {
	var states []frameEnv
	if !aTerm {
		states = append(states, a)
	}
	if !bTerm {
		states = append(states, b)
	}
	mergeAll(st, states)
}

func mergeAll(st frameEnv, states []frameEnv) {
	if len(states) == 0 {
		return // all branches terminated; st is unreachable afterwards
	}
	vars := map[types.Object]bool{}
	for _, s := range states {
		for v := range s {
			vars[v] = true
		}
	}
	for v := range vars {
		out := stReleased
		for _, s := range states {
			if got, ok := s[v]; ok {
				switch got {
				case stLive, stCondRel:
					out = stLive
				case stInert:
					if out != stLive {
						out = stInert
					}
				}
			}
		}
		st[v] = out
	}
}

// mergeLoop folds a loop body's end state into st: the body may run
// zero times, so live frames stay live.
func (fa *frameAnalysis) mergeLoop(st, body frameEnv) {
	mergeAll(st, []frameEnv{st.clone(), body})
}

// assign handles frame acquisition, rebinding and aliasing.
func (fa *frameAnalysis) assign(s *ast.AssignStmt, st frameEnv) {
	for i, rhs := range s.Rhs {
		var lhs ast.Expr
		if len(s.Lhs) == len(s.Rhs) {
			lhs = s.Lhs[i]
		} else if len(s.Rhs) == 1 {
			lhs = s.Lhs[0]
		}
		lhsID, _ := lhs.(*ast.Ident)
		var lhsObj types.Object
		if lhsID != nil {
			lhsObj = fa.pass.ObjectOf(lhsID)
		}
		if mentionsGetFrame(fa.pass, rhs) {
			// First check the RHS for reads of *other* tracked frames
			// (e.g. dup := append(GetFrame(), frame...)).
			fa.exprScan(rhs, st, lhsObj, true)
			if lhsObj == nil || lhsID.Name == "_" {
				// Not bound to a trackable variable: require immediate
				// consumption (Send(append(GetFrame(), ...))) — but in an
				// assignment there is none.
				fa.pass.Reportf(rhs.Pos(), "frame from transport.GetFrame assigned to an untrackable target; "+
					"bind it to a variable so its release is checkable")
				continue
			}
			if cur, ok := st[lhsObj]; ok && cur == stLive {
				fa.pass.Reportf(rhs.Pos(), "frame %s overwritten while still owned (missing PutFrame)", lhsID.Name)
			}
			st[lhsObj] = stLive
			continue
		}
		// RHS mentions a tracked frame?
		mentioned := fa.trackedIn(rhs, st)
		if len(mentioned) > 0 {
			// Calls inside the RHS get the usual call semantics: transfer
			// methods take ownership, anything else is a read (so
			// `err := fill(buf)` leaves buf owned by this function).
			fa.exprScan(rhs, st, nil, true)
			// Rebinding through the variable itself — buf = buf[:n] or
			// buf = append(buf, ...) — keeps ownership where it is.
			selfRebind := false
			for _, v := range mentioned {
				if v == lhsObj {
					selfRebind = true
				}
			}
			// Direct, call-free mentions alias the frame value into the
			// LHS; the alias escapes our tracking, so ownership transfers
			// conservatively.
			for _, v := range fa.directTracked(rhs, st) {
				if v == lhsObj {
					continue
				}
				fa.useOrTransfer(rhs, v, st, true)
			}
			if !selfRebind && lhsObj != nil {
				if cur, ok := st[lhsObj]; ok && cur == stLive {
					fa.pass.Reportf(s.Pos(), "frame %s overwritten while still owned (missing PutFrame)", lhsID.Name)
					st[lhsObj] = stInert
				}
			}
			continue
		}
		// Plain RHS: rebinding a tracked var to something else.
		if lhsObj != nil {
			if cur, ok := st[lhsObj]; ok {
				if cur == stLive {
					fa.pass.Reportf(s.Pos(), "frame %s overwritten while still owned (missing PutFrame)", lhsID.Name)
				}
				st[lhsObj] = stInert
			}
		}
		fa.expr(rhs, st)
	}
}

// deferCall handles defer: a deferred PutFrame/transfer satisfies every
// exit; anything else deferred that touches a frame is a read.
func (fa *frameAnalysis) deferCall(s *ast.DeferStmt, st frameEnv) {
	if name, ok := calleeName(s.Call); ok && transferMethods[name] {
		for _, v := range fa.trackedIn(s.Call, st) {
			fa.deferRel[v] = true
		}
		return
	}
	fa.expr(s.Call, st)
}

// expr scans an expression for frame events: transfers, reads after
// handoff, and dropped GetFrame results.
func (fa *frameAnalysis) expr(e ast.Expr, st frameEnv) {
	if e == nil {
		return
	}
	fa.exprScan(e, st, nil, false)
}

// exprScan walks e for frame events. skip names a variable whose reads
// are legal here (the assignment target being bound); bindOK permits a
// GetFrame call whose result is consumed by the surrounding context
// (an assignment binding it or a return transferring it).
func (fa *frameAnalysis) exprScan(e ast.Expr, st frameEnv, skip types.Object, bindOK bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			// A closure capturing a tracked frame takes ownership with
			// it; the literal's own body is analyzed separately.
			fa.markTransferred(fl, st)
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isGetFrameCall(fa.pass, call) {
			if !bindOK {
				fa.pass.Reportf(call.Pos(),
					"result of transport.GetFrame dropped: bind it or hand it to a transfer call")
			}
			return true
		}
		name, _ := calleeName(call)
		if transferMethods[name] {
			for _, v := range fa.trackedIn(call, st) {
				if v == skip {
					continue
				}
				fa.useOrTransfer(call, v, st, true)
			}
			return false // arguments handled
		}
		// Non-transfer call reading a tracked frame.
		for _, v := range fa.trackedIn(call, st) {
			if v == skip {
				continue
			}
			fa.useOrTransfer(call, v, st, false)
		}
		return true
	})
}

// useOrTransfer applies one event on tracked var v: transfer=true moves
// ownership; transfer=false is a read, illegal after release.
func (fa *frameAnalysis) useOrTransfer(at ast.Node, v types.Object, st frameEnv, transfer bool) {
	cur := st[v]
	switch {
	case transfer && (cur == stLive || cur == stCondRel):
		st[v] = stReleased
	case transfer && cur == stReleased:
		fa.pass.Reportf(at.Pos(), "frame %s released or sent twice (already handed off)", v.Name())
	case !transfer && cur == stReleased:
		fa.pass.Reportf(at.Pos(), "frame %s used after ownership handoff (transport owns it now)", v.Name())
	}
}

// markTransferred releases every tracked frame mentioned in e (return
// values, goroutine arguments, channel sends transfer ownership).
func (fa *frameAnalysis) markTransferred(e ast.Expr, st frameEnv) {
	for _, v := range fa.trackedIn(e, st) {
		if st[v] == stLive || st[v] == stCondRel {
			st[v] = stReleased
		}
	}
}

// reportLeaks flags frames still owned at a return.
func (fa *frameAnalysis) reportLeaks(st frameEnv, at ast.Node) {
	for v, s := range st {
		if s == stLive && !fa.deferRel[v] {
			fa.pass.Reportf(at.Pos(),
				"frame %s still owned at return: missing transport.PutFrame or ownership handoff on this path", v.Name())
		}
	}
}

// condTransferVars finds tracked vars passed to transfer calls inside a
// condition expression.
func (fa *frameAnalysis) condTransferVars(cond ast.Expr, st frameEnv) []types.Object {
	var out []types.Object
	ast.Inspect(cond, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, ok := calleeName(call); ok && transferMethods[name] {
			for _, v := range fa.trackedIn(call, st) {
				if st[v] == stLive {
					out = append(out, v)
				}
			}
		}
		return true
	})
	return out
}

// directTracked returns the tracked frame variables appearing in e
// outside any call expression: the frame value itself flows into the
// surrounding context (an alias), rather than being passed to a callee.
func (fa *frameAnalysis) directTracked(e ast.Expr, st frameEnv) []types.Object {
	var out []types.Object
	seen := map[types.Object]bool{}
	var addr ast.Expr // the operand of the last & met
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			return false // arguments are handled by exprScan's call rules
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				addr = ast.Unparen(n.X)
			}
		case *ast.IndexExpr:
			// An element read, frame[i], copies a byte out and aliases
			// nothing; &frame[i] does, and so does frames[i] of a slice.
			_, scalar := fa.pass.TypesInfo.TypeOf(n).(*types.Basic)
			return !scalar || n == addr
		case *ast.Ident:
			obj := fa.pass.TypesInfo.Uses[n]
			if _, tracked := st[obj]; obj != nil && tracked && !seen[obj] {
				seen[obj] = true
				out = append(out, obj)
			}
		}
		return true
	})
	return out
}

// trackedIn returns the tracked frame variables referenced in e.
func (fa *frameAnalysis) trackedIn(e ast.Node, st frameEnv) []types.Object {
	var out []types.Object
	seen := map[types.Object]bool{}
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := fa.pass.TypesInfo.Uses[id]
		if obj == nil {
			return true
		}
		if _, tracked := st[obj]; tracked && !seen[obj] {
			seen[obj] = true
			out = append(out, obj)
		}
		return true
	})
	return out
}

func calleeName(call *ast.CallExpr) (string, bool) {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name, true
	case *ast.SelectorExpr:
		return f.Sel.Name, true
	}
	return "", false
}

func isPanicCall(pass *Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return isBuiltin || pass.TypesInfo.Uses[id] == nil
}
