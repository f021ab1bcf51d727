package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// NewCtxDrop creates the pass that keeps cancellation propagating: a
// function that binds a context.Context parameter to a name and then
// never reads it has silently cut the cancellation chain — callers
// believe their deadline or Close reaches the work, but it does not.
//
// The fix is always one of two honest states: propagate the context to
// the blocking work, or rename the parameter to _ to declare in the
// signature that this implementation ignores cancellation. Uses inside
// closures count (capturing the context is propagation); unnamed and
// blank parameters are exempt by construction.
func NewCtxDrop() Analyzer { return eachPackage(ctxDrop) }

func ctxDrop(pkg *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var (
				ftype *ast.FuncType
				body  *ast.BlockStmt
				label string
			)
			switch fn := n.(type) {
			case *ast.FuncDecl:
				ftype, body = fn.Type, fn.Body
				label = fn.Name.Name
			case *ast.FuncLit:
				ftype, body = fn.Type, fn.Body
				label = "function literal"
			default:
				return true
			}
			if body == nil || ftype.Params == nil {
				return true
			}
			for _, field := range ftype.Params.List {
				for _, name := range field.Names {
					if name.Name == "_" {
						continue
					}
					obj := pkg.Info.Defs[name]
					if obj == nil || !isContextType(obj.Type()) {
						continue
					}
					if !usesObject(pkg, body, obj) {
						diags = append(diags, Diagnostic{
							Pos:  pkg.Fset.Position(name.Pos()),
							Pass: "ctxdrop",
							Message: fmt.Sprintf(
								"context parameter %q is dropped by %s: propagate it or rename it to _",
								name.Name, label),
						})
					}
				}
			}
			return true
		})
	}
	return diags
}

// isContextType reports whether t is exactly context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// usesObject reports whether any identifier inside body resolves to obj.
func usesObject(pkg *Package, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && pkg.Info.Uses[id] == obj {
			found = true
			return false
		}
		return true
	})
	return found
}
