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
func NewObsLeak() Analyzer { return eachPackage(obsLeak) }

func obsLeak(pkg *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				// Handled when visiting the enclosing declaration: closures
				// share the declaration's scope, so a span begun in one and
				// ended in another still resolves.
				return true
			default:
				return true
			}
			if body == nil {
				return true
			}
			diags = append(diags, checkBody(pkg, body)...)
			return true
		})
	}
	return diags
}

// checkBody finds every Begin/BeginChild call in body (closures
// included), then decides per bound identifier whether the span is ever
// released.
func checkBody(pkg *Package, body *ast.BlockStmt) []Diagnostic {
	var diags []Diagnostic
	// spans maps each identifier bound to a begun span to the method that
	// minted it and the position of its first binding.
	type origin struct {
		method string
		pos    token.Pos
	}
	spans := make(map[types.Object]origin)

	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				if method, ok := beginCall(pkg, call); ok {
					diags = append(diags, Diagnostic{
						Pos:  pkg.Fset.Position(call.Pos()),
						Pass: "obsleak",
						Message: fmt.Sprintf(
							"result of Collector.%s is discarded: a sampled span would never be released", method),
					})
				}
			}
		case *ast.AssignStmt:
			// Begin calls are single-valued, so LHS and RHS align
			// pairwise in every legal assignment that contains one.
			if len(st.Lhs) != len(st.Rhs) {
				return true
			}
			for i, rhs := range st.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok {
					continue
				}
				method, ok := beginCall(pkg, call)
				if !ok {
					continue
				}
				id, ok := st.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				if id.Name == "_" {
					diags = append(diags, Diagnostic{
						Pos:  pkg.Fset.Position(call.Pos()),
						Pass: "obsleak",
						Message: fmt.Sprintf(
							"result of Collector.%s is discarded: a sampled span would never be released", method),
					})
					continue
				}
				obj := pkg.Info.Defs[id]
				if obj == nil {
					obj = pkg.Info.Uses[id]
				}
				if obj == nil {
					continue
				}
				if _, seen := spans[obj]; !seen {
					spans[obj] = origin{method: method, pos: id.Pos()}
				}
			}
		}
		return true
	})

	for obj, o := range spans {
		if !isReleased(pkg, body, obj) {
			diags = append(diags, Diagnostic{
				Pos:  pkg.Fset.Position(o.pos),
				Pass: "obsleak",
				Message: fmt.Sprintf(
					"span %q from Collector.%s never reaches End: release it on every return path",
					obj.Name(), o.method),
			})
		}
	}
	return diags
}

// beginCall reports whether call invokes (*obs.Collector).Begin or
// BeginChild, returning the method name.
func beginCall(pkg *Package, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	if name != "Begin" && name != "BeginChild" {
		return "", false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	return name, isCollectorType(sig.Recv().Type())
}

// isCollectorType reports whether t is obs.Collector or a pointer to it.
func isCollectorType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "odp/internal/obs" && obj.Name() == "Collector"
}

// isReleased reports whether obj escapes body in a way that can end the
// span: as a call argument (directly or by address), a return value, the
// source of another assignment, a composite-literal element or a channel
// send. A bare read — nil check, receiver of Context()/Duration() — is
// not a release.
func isReleased(pkg *Package, body *ast.BlockStmt, obj types.Object) bool {
	released := false
	ast.Inspect(body, func(n ast.Node) bool {
		if released {
			return false
		}
		switch st := n.(type) {
		case *ast.CallExpr:
			for _, arg := range st.Args {
				if isIdentFor(pkg, arg, obj) {
					released = true
					return false
				}
			}
		case *ast.ReturnStmt:
			for _, res := range st.Results {
				if isIdentFor(pkg, res, obj) {
					released = true
					return false
				}
			}
		case *ast.AssignStmt:
			for _, rhs := range st.Rhs {
				if isIdentFor(pkg, rhs, obj) {
					released = true
					return false
				}
			}
		case *ast.CompositeLit:
			for _, elt := range st.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				if isIdentFor(pkg, elt, obj) {
					released = true
					return false
				}
			}
		case *ast.SendStmt:
			if isIdentFor(pkg, st.Value, obj) {
				released = true
				return false
			}
		}
		return true
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
