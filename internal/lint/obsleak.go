package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// NewObsLeak creates the pass that keeps the span pool honest: a span
// minted by (*obs.Collector).Begin or BeginChild must reach End (or
// otherwise escape the function — be passed along, stored or returned) on
// some path, or a sampled call permanently leaks a pooled span and its
// subtree never commits to the ring.
//
// A span is considered released when the identifier it was bound to
// appears as a call argument (End, or any helper that takes it over), is
// returned, is stored into another variable, composite literal or
// channel, or has its address taken into a call. Receiver-only use —
// sp.Context(), sp.Duration() — reads the span but releases nothing, so
// it does not count. Calling Begin/BeginChild and discarding the result
// (expression statement or blank assignment) is flagged at the call.
//
// The Step that (*obs.Stage).Begin returns is held to more: it must reach
// that stage's End on every path, as a later statement of the block that
// begins it — a deferred End, or an End with no return before it. A step
// handed to anything else, ended only in a branch, or discarded is
// flagged: an unended step loses its span and its count.
func NewObsLeak() Analyzer { return eachPackage(obsLeak) }

func obsLeak(pkg *Package) []Diagnostic {
	var diags []Diagnostic
	flag := func(pos token.Pos, format string, args ...interface{}) {
		diags = append(diags, Diagnostic{Pos: pkg.Fset.Position(pos), Pass: "obsleak", Message: fmt.Sprintf(format, args...)})
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			// Closures are walked with their declaration: they share its
			// scope, so a span begun in one and ended in another resolves.
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				checkBody(pkg, fn.Body, flag)
			}
		}
	}
	return diags
}

// checkBody finds every Begin in body, closures included: a discarded
// result is flagged at once, a bound step is checked in its block, and a
// bound span is checked once the whole body has been seen.
func checkBody(pkg *Package, body *ast.BlockStmt, flag func(token.Pos, string, ...interface{})) {
	type origin struct {
		method string
		pos    token.Pos
	}
	spans := make(map[types.Object]origin) // each span's first binding
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok && obsMethod(pkg, call, "Stage") == "Begin" {
				flag(call.Pos(), "result of Stage.Begin is discarded: its step can never reach End")
			} else if method, ok := beginCall(pkg, st.X); ok {
				flag(st.X.Pos(), "result of Collector.%s is discarded: a sampled span would never be released", method)
			}
		case *ast.AssignStmt:
			// Collector.Begin calls are single-valued, so LHS and RHS
			// align pairwise in every legal assignment that contains one.
			for i, rhs := range st.Rhs {
				method, ok := beginCall(pkg, rhs)
				if !ok || len(st.Lhs) != len(st.Rhs) {
					continue
				}
				if id, ok := st.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
					flag(rhs.Pos(), "result of Collector.%s is discarded: a sampled span would never be released", method)
				} else if obj := pkg.Info.ObjectOf(id); ok && obj != nil {
					if _, seen := spans[obj]; !seen {
						spans[obj] = origin{method: method, pos: id.Pos()}
					}
				}
			}
		case *ast.BlockStmt:
			for i, stmt := range st.List {
				if call, step := stageBegin(pkg, stmt); step != nil && step.Name == "_" {
					flag(call.Pos(), "result of Stage.Begin is discarded: its step can never reach End")
				} else if step != nil {
					if msg := stepEnded(pkg, st.List[i+1:], pkg.Info.ObjectOf(step)); msg != "" {
						flag(step.Pos(), "step %q from Stage.Begin %s", step.Name, msg)
					}
				}
			}
		}
		return true
	})
	for obj, o := range spans {
		if !isReleased(pkg, body, obj) {
			flag(o.pos, "span %q from Collector.%s never reaches End: release it on every return path", obj.Name(), o.method)
		}
	}
}

// beginCall reports whether e calls (*obs.Collector).Begin or
// BeginChild, returning the method name.
func beginCall(pkg *Package, e ast.Expr) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	name := obsMethod(pkg, call, "Collector")
	return name, name == "Begin" || name == "BeginChild"
}

// obsMethod returns the name of the method of obs.<typ> that call
// invokes, or "".
func obsMethod(pkg *Package, call *ast.CallExpr, typ string) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return ""
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() == nil || !isObsType(sig.Recv().Type(), typ) {
		return ""
	}
	return sel.Sel.Name
}

// isObsType reports whether t is obs.<name> or a pointer to it.
func isObsType(t types.Type, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "odp/internal/obs" && named.Obj().Name() == name
}

// isReleased reports whether obj escapes body in a way that can end the
// span: as a call argument (directly or by address), a return value, the
// source of another assignment, a composite-literal element or a channel
// send. A bare read — nil check, receiver of Context()/Duration() — is
// not a release.
func isReleased(pkg *Package, body *ast.BlockStmt, obj types.Object) bool {
	released := false
	ast.Inspect(body, func(n ast.Node) bool {
		var uses []ast.Expr
		switch st := n.(type) {
		case *ast.CallExpr:
			uses = st.Args
		case *ast.ReturnStmt:
			uses = st.Results
		case *ast.AssignStmt:
			uses = st.Rhs
		case *ast.CompositeLit:
			for _, elt := range st.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				uses = append(uses, elt)
			}
		case *ast.SendStmt:
			uses = []ast.Expr{st.Value}
		}
		for _, e := range uses {
			released = released || isIdentFor(pkg, e, obj)
		}
		return !released
	})
	return released
}

// isIdentFor reports whether e is obj's identifier, directly or behind a
// single address-of.
func isIdentFor(pkg *Package, e ast.Expr, obj types.Object) bool {
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = u.X
	}
	id, ok := e.(*ast.Ident)
	return ok && pkg.Info.Uses[id] == obj
}

// stageBegin returns the Stage.Begin call an assignment stmt makes, if
// any, and the identifier its step is bound to.
func stageBegin(pkg *Package, stmt ast.Stmt) (*ast.CallExpr, *ast.Ident) {
	as, ok := stmt.(*ast.AssignStmt)
	if !ok || len(as.Rhs) != 1 {
		return nil, nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || obsMethod(pkg, call, "Stage") != "Begin" {
		return nil, nil
	}
	results, _ := pkg.Info.TypeOf(call).(*types.Tuple)
	for i := range as.Lhs {
		if id, ok := as.Lhs[i].(*ast.Ident); ok && results != nil && isObsType(results.At(i).Type(), "Step") {
			return call, id
		}
	}
	return nil, nil
}

// stepEnded reports what keeps the statements after a Begin from ending
// step on every path, "" when nothing does.
func stepEnded(pkg *Package, rest []ast.Stmt, step types.Object) string {
	for _, stmt := range rest {
		var call *ast.CallExpr
		switch st := stmt.(type) {
		case *ast.DeferStmt:
			call = st.Call
		case *ast.ExprStmt:
			call, _ = st.X.(*ast.CallExpr)
		case *ast.AssignStmt: // End's instant kept
			call, _ = st.Rhs[0].(*ast.CallExpr)
		}
		if call != nil && obsMethod(pkg, call, "Stage") == "End" && len(call.Args) > 0 && isIdentFor(pkg, call.Args[0], step) {
			return ""
		}
		returns := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			_, ret := n.(*ast.ReturnStmt)
			_, lit := n.(*ast.FuncLit)
			returns = returns || ret
			return !returns && !lit
		})
		if returns {
			return "does not reach End on every path: a return comes before its End"
		}
	}
	return "never reaches Stage.End"
}
