package lint

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"maps"
)

// This file is the one held-lock walk behind the mutexheld and lockgraph
// passes: each function body is walked once, and both passes read the
// same held set. A lock operation is a call to Lock/RLock/TryLock/
// TryRLock (acquire) or Unlock/RUnlock (release) on:
//
//   - a sync.Mutex or sync.RWMutex value,
//   - a sync.Locker interface value (the method object lives in package
//     sync, so dynamic lockers behind the interface are covered), or
//   - a custom locker: any named type whose method set carries both a
//     niladic Lock and a niladic Unlock — the structural sync.Locker
//     contract — so a wrapper type that delegates to an embedded mutex
//     still counts.
//
// The walk's rules:
//
//   - the held set after an if is the intersection of the branches that
//     fall through;
//   - loop, case and select bodies each work on a copy of the held set;
//   - a TryLock guard acquires the lock only in its successful branch;
//   - defer, go and function-literal bodies start with nothing held.

// NewLocks creates the analyzer behind the two lock passes. mutexheld
// forbids channel operations and network transmission while a mutex is
// held — the class of bug behind the at-most-once ack race (DESIGN.md):
// anything that can block or re-enter the network stack inside a
// critical section couples lock hold time to network latency and invites
// deadlock. lockgraph proves the module's lock order acyclic (see
// lockgraph.go).
func NewLocks(cfg MutexHeldConfig) Analyzer { return &locks{cfg: cfg} }

type locks struct {
	cfg MutexHeldConfig
}

func (a *locks) Run(pkgs []*Package) []Diagnostic {
	var mh mutexHeld
	prog := newLGProgram(pkgs)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				w := &lockWalk{pkg: pkg, blocking: a.cfg.Blocking, vs: []lockVisitor{&mh, prog.function(pkg, fd)}}
				w.stmts(fd.Body.List, entryHeld(fd))
			}
		}
	}
	return append(mh, prog.run()...)
}

// heldLock is one lock in the held set: its canonical site ("" for locals
// and for the caller's mutex) and where this execution acquired it.
type heldLock struct {
	id  string
	pos token.Position
}

// lockVisitor receives the events of one held-lock walk, each before the
// walk updates the held set. A release needs no event: the walk drops the
// lock from the set.
type lockVisitor interface {
	// acquire reports h about to join held.
	acquire(h heldLock, held map[string]heldLock)
	// call reports a synchronous call to a function of the module.
	call(fn *types.Func, pos token.Position, held map[string]heldLock)
	// blocking reports an operation that can park the goroutine: a send,
	// a receive, a select without default, a range over a channel, or a
	// call on the deny-list. what names it ("channel send").
	blocking(pos token.Position, what string, held map[string]heldLock)
	// detached returns the visitor for a go or defer body: an execution
	// of its own.
	detached() lockVisitor
}

// lockWalk walks one function body, keying the held set by the rendered
// receiver expression (so a.mu and b.mu are distinct holdings even
// though they share a site).
type lockWalk struct {
	pkg      *Package
	blocking map[string][]string
	vs       []lockVisitor
}

func (w *lockWalk) pos(p token.Pos) token.Position { return w.pkg.Fset.Position(p) }

func (w *lockWalk) acquire(recv ast.Expr, pos token.Pos, held map[string]heldLock) {
	h := heldLock{id: lockID(w.pkg, recv), pos: w.pos(pos)}
	for _, v := range w.vs {
		v.acquire(h, held)
	}
	held[renderExpr(w.pkg.Fset, recv)] = h
}

func (w *lockWalk) block(pos token.Pos, what string, held map[string]heldLock) {
	at := w.pos(pos)
	for _, v := range w.vs {
		v.blocking(at, what, held)
	}
}

// stmts walks a statement list with the given held set (mutated in
// place), returning whether the list always terminates (return, goto)
// before falling through.
func (w *lockWalk) stmts(stmts []ast.Stmt, held map[string]heldLock) bool {
	for _, st := range stmts {
		if w.stmt(st, held) {
			return true
		}
	}
	return false
}

// stmt walks one statement, returning true when control never falls
// through to the next statement.
func (w *lockWalk) stmt(st ast.Stmt, held map[string]heldLock) bool {
	switch t := st.(type) {
	case *ast.ExprStmt:
		if call, ok := t.X.(*ast.CallExpr); ok {
			if recv, op := lockMethod(w.pkg, call); recv != nil {
				// A TryLock whose result is discarded is an acquire: the
				// author clearly believed it succeeds.
				if lockAcquireOps[op] {
					w.acquire(recv, call.Lparen, held)
				} else {
					delete(held, renderExpr(w.pkg.Fset, recv))
				}
				return false
			}
		}
		w.expr(t.X, held)
	case *ast.SendStmt:
		w.block(t.Arrow, "channel send", held)
		w.expr(t.Chan, held)
		w.expr(t.Value, held)
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held for the rest of the
		// function; any other deferred call runs at return, so its
		// arguments are evaluated now but the call is not.
		if recv, _ := lockMethod(w.pkg, t.Call); recv != nil {
			return false
		}
		for _, arg := range t.Call.Args {
			w.expr(arg, held)
		}
		w.detached(t.Call)
	case *ast.GoStmt:
		// The goroutine runs concurrently without the caller's locks.
		for _, arg := range t.Call.Args {
			w.expr(arg, held)
		}
		w.detached(t.Call)
	case *ast.AssignStmt:
		for _, e := range t.Rhs {
			w.expr(e, held)
		}
		for _, e := range t.Lhs {
			w.expr(e, held)
		}
	case *ast.DeclStmt:
		w.expr(t, held)
	case *ast.ReturnStmt:
		for _, e := range t.Results {
			w.expr(e, held)
		}
		return true
	case *ast.BranchStmt:
		return t.Tok == token.GOTO
	case *ast.IfStmt:
		w.stmt(t.Init, held) // a nil statement is a no-op
		w.expr(t.Cond, held)
		thenHeld, elseHeld := maps.Clone(held), maps.Clone(held)
		if recv, negated := tryLockCond(w.pkg, t.Init, t.Cond); recv != nil {
			into := thenHeld
			if negated {
				into = elseHeld
			}
			w.acquire(recv, t.Cond.Pos(), into)
		}
		thenTerm := w.stmts(t.Body.List, thenHeld)
		elseTerm := false
		if t.Else != nil {
			elseTerm = w.stmt(t.Else, elseHeld)
		}
		// A branch that returns does not constrain the held set after
		// the if.
		after := thenHeld
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			after = elseHeld
		case !elseTerm:
			maps.DeleteFunc(after, func(k string, _ heldLock) bool {
				_, ok := elseHeld[k]
				return !ok
			})
		}
		clear(held)
		maps.Copy(held, after)
	case *ast.BlockStmt:
		return w.stmts(t.List, held)
	case *ast.LabeledStmt:
		return w.stmt(t.Stmt, held)
	case *ast.ForStmt:
		w.stmt(t.Init, held)
		if t.Cond != nil {
			w.expr(t.Cond, held)
		}
		body := maps.Clone(held)
		w.stmts(t.Body.List, body)
		w.stmt(t.Post, body)
	case *ast.RangeStmt:
		if tv, ok := w.pkg.Info.Types[t.X]; ok && tv.Type != nil {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				w.block(t.For, "range over channel", held)
			}
		}
		w.expr(t.X, held)
		w.stmts(t.Body.List, maps.Clone(held))
	case *ast.SelectStmt:
		if !hasDefaultClause(t) {
			w.block(t.Select, "select", held)
		}
		for _, c := range t.Body.List {
			w.stmts(c.(*ast.CommClause).Body, maps.Clone(held))
		}
	case *ast.SwitchStmt:
		w.stmt(t.Init, held)
		if t.Tag != nil {
			w.expr(t.Tag, held)
		}
		w.cases(t.Body.List, held)
	case *ast.TypeSwitchStmt:
		w.stmt(t.Init, held)
		w.cases(t.Body.List, held)
	}
	return false
}

func (w *lockWalk) cases(clauses []ast.Stmt, held map[string]heldLock) {
	for _, c := range clauses {
		if cc, ok := c.(*ast.CaseClause); ok {
			w.stmts(cc.Body, maps.Clone(held))
		}
	}
}

// expr reports the receives and calls under n. A function literal's body
// is walked in place with nothing held: it may run on this execution, and
// a literal called while holding is covered by its invoker's call site.
func (w *lockWalk) expr(n ast.Node, held map[string]heldLock) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.FuncLit:
			w.stmts(t.Body.List, map[string]heldLock{})
			return false
		case *ast.UnaryExpr:
			if t.Op == token.ARROW {
				w.block(t.OpPos, "channel receive", held)
			}
		case *ast.CallExpr:
			// A TryLock in a guard position is handled at the if.
			if recv, _ := lockMethod(w.pkg, t); recv != nil {
				return true
			}
			fn := staticCallee(w.pkg, t)
			if fn == nil {
				return true
			}
			if name, ok := w.denied(fn); ok {
				w.block(t.Lparen, "call to "+name, held)
			}
			if isModuleInternal(fn.Pkg().Path(), w.pkg.Path) {
				at := w.pos(t.Lparen)
				for _, v := range w.vs {
					v.call(fn, at, held)
				}
			}
		}
		return true
	})
}

// detached walks the function literals under n as executions of their
// own (goroutine and defer bodies).
func (w *lockWalk) detached(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		fl, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		inner := &lockWalk{pkg: w.pkg, blocking: w.blocking, vs: make([]lockVisitor, len(w.vs))}
		for i, v := range w.vs {
			inner.vs[i] = v.detached()
		}
		inner.stmts(fl.Body.List, map[string]heldLock{})
		return false
	})
}

// staticCallee resolves call's static target, or nil.
func staticCallee(pkg *Package, call *ast.CallExpr) *types.Func {
	var ident *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		ident = fun.Sel
	case *ast.Ident:
		ident = fun
	default:
		return nil
	}
	fn, ok := pkg.Info.Uses[ident].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	return fn
}

// denied reports whether fn is on the deny-list, and its display name.
func (w *lockWalk) denied(fn *types.Func) (string, bool) {
	names, ok := w.blocking[fn.Pkg().Path()]
	if !ok {
		return "", false
	}
	qualified := fn.Name()
	if on := fn.Type().(*types.Signature).Recv(); on != nil {
		if named := namedOf(on.Type()); named != nil {
			qualified = named.Obj().Name() + "." + fn.Name()
		}
	}
	for _, n := range names {
		if n == qualified || n == fn.Name() {
			return fn.Pkg().Name() + "." + qualified, true
		}
	}
	return "", false
}

// hasDefaultClause reports whether sel has a default clause (Comm == nil),
// making it non-blocking.
func hasDefaultClause(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// namedOf unwraps pointers to reach a named type.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// renderExpr prints an expression compactly for use as a map key and in
// diagnostics.
func renderExpr(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return "?"
	}
	return buf.String()
}

// lockAcquireOps classifies each recognized method name: true means the
// operation acquires (TryLock variants conditionally), false releases.
var lockAcquireOps = map[string]bool{
	"Lock": true, "RLock": true, "TryLock": true, "TryRLock": true,
	"Unlock": false, "RUnlock": false,
}

// lockMethod classifies call as a lock operation, returning the receiver
// expression and the method name ("Lock", "TryRLock", ...), or nil, ""
// when call is not one.
func lockMethod(pkg *Package, call *ast.CallExpr) (recv ast.Expr, op string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	name := sel.Sel.Name
	if _, known := lockAcquireOps[name]; !known {
		return nil, ""
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return nil, ""
	}
	on := fn.Type().(*types.Signature).Recv()
	if on == nil {
		return nil, ""
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "sync" || types.Implements(on.Type(), lockerIface) {
		return sel.X, name
	}
	return nil, ""
}

// lockerIface is the sync.Locker contract: niladic Lock and Unlock.
var lockerIface = func() *types.Interface {
	niladic := types.NewSignatureType(nil, nil, nil, nil, nil, false)
	return types.NewInterfaceType([]*types.Func{
		types.NewFunc(token.NoPos, nil, "Lock", niladic),
		types.NewFunc(token.NoPos, nil, "Unlock", niladic),
	}, nil).Complete()
}()

// tryLockCond recognizes the guarded TryLock idioms inside an if
// statement so held-set tracking can follow them:
//
//	if mu.TryLock() { ... }          → held in the then branch
//	if !mu.TryLock() { return }      → held in the else branch / after
//	if ok := mu.TryLock(); ok { ... }
//
// It returns the TryLock receiver, nil when cond is not a TryLock guard,
// and whether the condition is negated.
func tryLockCond(pkg *Package, init ast.Stmt, cond ast.Expr) (recv ast.Expr, negated bool) {
	if u, ok := cond.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		recv, _ = tryLockCond(pkg, init, u.X)
		return recv, true
	}
	// if ok := mu.TryLock(); ok { ... } — the init assignment binds the
	// condition identifier to the TryLock result.
	if id, ok := cond.(*ast.Ident); ok {
		as, ok := init.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return nil, false
		}
		if lhs, ok := as.Lhs[0].(*ast.Ident); !ok || lhs.Name != id.Name {
			return nil, false
		}
		cond = as.Rhs[0]
	}
	if call, ok := cond.(*ast.CallExpr); ok {
		if r, op := lockMethod(pkg, call); r != nil && (op == "TryLock" || op == "TryRLock") {
			return r, false
		}
	}
	return nil, false
}
