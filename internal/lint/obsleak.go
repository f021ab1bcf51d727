package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// NewObsLeak creates the pass that keeps the stages' spans and counts
// honest: the Step that (*obs.Stage).Begin returns must reach that
// stage's End on every path, as a later statement of the block that
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
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				if call, ok := st.X.(*ast.CallExpr); ok && obsMethod(pkg, call, "Stage") == "Begin" {
					flag(call.Pos(), "result of Stage.Begin is discarded: its step can never reach End")
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
	}
	return diags
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
