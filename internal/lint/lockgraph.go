package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// The lockgraph pass proves static deadlock freedom for the whole module.
//
// Where mutexheld forbids blocking *operations* under a lock, lockgraph
// checks the *order* in which locks are taken. Every named lock site —
// a struct-field mutex (keyed "pkgpath.Type.field") or a package-level
// lock ("pkgpath.var") — is a node. Acquiring B while holding A adds the
// edge A → B; the acquisition may be direct or buried arbitrarily deep in
// a chain of calls, including calls through interface values (resolved to
// every module implementation) and through `Locked`-suffixed helpers
// (their callers hold the lock at the call site, so the chain composes).
// A cycle in the resulting graph means two executions can wait on each
// other forever; each cycle is reported once, with a full witness chain —
// file:line for every acquire and every call step of every edge.
//
// Two deliberate approximations, both conservative:
//
//   - instances collapse onto their lock site: locking a.mu then b.mu of
//     the same type reports a self-cycle, because nothing orders the two
//     instances statically. Code that really needs hand-over-hand or
//     pairwise locking must order instances explicitly in a way this
//     pass can see.
//   - goroutine bodies are analyzed as independent executions: a lock
//     taken inside `go func(){...}()` is not "held" by the spawner, but
//     ordering violations inside the goroutine still count.

// lgStep is one hop of a witness chain.
type lgStep struct {
	pos  token.Position
	text string
}

// lgTrace is a witness chain: the steps from an acquire (or call) site to
// the acquisition it leads to.
type lgTrace []lgStep

func (t lgTrace) render() []string {
	out := make([]string, len(t))
	for i, s := range t {
		out[i] = fmt.Sprintf("%s:%d: %s", s.pos.Filename, s.pos.Line, s.text)
	}
	return out
}

// lgCall is one synchronous module-internal call site, made while
// holding held (id "" when nothing named is held).
type lgCall struct {
	held   heldLock
	callee *types.Func
	pos    token.Position
}

// lgFunc is one function's fact base.
type lgFunc struct {
	// sum maps each lock site the function may acquire to its best
	// witness: its direct acquires from the walk, then, after
	// computeSummaries, those of everything it calls.
	sum   map[string]lgTrace
	calls []lgCall
}

type lgProgram struct {
	fns map[*types.Func]*lgFunc
	// heldCalls are the calls made with a named lock held, goroutine and
	// defer bodies included.
	heldCalls []lgCall
	// edges is the order graph: each from → to edge with its best
	// witness.
	edges map[[2]string]lgTrace

	// namedTypes are the module's named non-interface types, for
	// interface-dispatch resolution.
	namedTypes []*types.Named
	implCache  map[string][]*types.Func
}

func newLGProgram(pkgs []*Package) *lgProgram {
	p := &lgProgram{
		fns:       make(map[*types.Func]*lgFunc),
		edges:     make(map[[2]string]lgTrace),
		implCache: make(map[string][]*types.Func),
	}
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok && !types.IsInterface(named) {
					p.namedTypes = append(p.namedTypes, named)
				}
			}
		}
	}
	return p
}

// function returns the visitor that records fd's facts.
func (p *lgProgram) function(pkg *Package, fd *ast.FuncDecl) lockVisitor {
	lf := &lgFunc{sum: make(map[string]lgTrace)}
	if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
		p.fns[obj] = lf
	}
	return &lgScan{prog: p, out: lf}
}

// run derives the order graph from the recorded facts and reports its
// cycles.
func (p *lgProgram) run() []Diagnostic {
	p.computeSummaries()
	for _, hc := range p.heldCalls {
		for _, callee := range p.resolveCallees(hc.callee) {
			for id, tr := range p.fns[callee].sum {
				p.addEdge(hc.held.id, id, append(lgTrace{
					{pos: hc.held.pos, text: "holding " + hc.held.id},
					{pos: hc.pos, text: "calls " + callee.FullName()},
				}, tr...))
			}
		}
	}
	return p.report()
}

// lockID canonicalizes a lock receiver expression to its site name:
// "pkgpath.Type.field" for struct-field locks, "pkgpath.var" for
// package-level locks, "" for locals and unnameable receivers (which
// cannot participate in a cross-function order).
func lockID(pkg *Package, recv ast.Expr) string {
	recv = ast.Unparen(recv)
	if u, ok := recv.(*ast.UnaryExpr); ok && u.Op == token.AND {
		return lockID(pkg, u.X)
	}
	switch e := recv.(type) {
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if named := namedOf(sel.Recv()); named != nil && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + sel.Obj().Name()
			}
			return ""
		}
		// Package-qualified package-level lock: otherpkg.Mu.
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := pkg.Info.Uses[id].(*types.PkgName); isPkg {
				if v, ok := pkg.Info.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil {
					return v.Pkg().Path() + "." + v.Name()
				}
			}
		}
	case *ast.Ident:
		if v, ok := pkg.Info.Uses[e].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
	}
	return ""
}

// lgScan is the lockgraph pass's visitor. It adds the edges an execution
// makes directly and records its acquires and module calls into out —
// nil for a goroutine or defer body, whose acquires belong to no caller.
type lgScan struct {
	prog *lgProgram
	out  *lgFunc
}

func (s *lgScan) acquire(h heldLock, held map[string]heldLock) {
	if h.id == "" {
		return
	}
	if s.out != nil && s.out.sum[h.id] == nil {
		s.out.sum[h.id] = lgTrace{{pos: h.pos, text: "acquires " + h.id}}
	}
	for _, from := range held {
		s.prog.addEdge(from.id, h.id, lgTrace{
			{pos: from.pos, text: "holding " + from.id},
			{pos: h.pos, text: "acquires " + h.id},
		})
	}
}

func (s *lgScan) call(fn *types.Func, pos token.Position, held map[string]heldLock) {
	if s.out != nil {
		s.out.calls = append(s.out.calls, lgCall{callee: fn, pos: pos})
	}
	for _, h := range held {
		if h.id != "" {
			s.prog.heldCalls = append(s.prog.heldCalls, lgCall{held: h, callee: fn, pos: pos})
		}
	}
}

func (*lgScan) blocking(token.Position, string, map[string]heldLock) {}

func (s *lgScan) detached() lockVisitor { return &lgScan{prog: s.prog} }

// resolveCallees maps a called function object to the module functions
// that may execute: the function itself when concrete, or every module
// implementation when it is an interface method.
func (p *lgProgram) resolveCallees(fn *types.Func) []*types.Func {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil || !types.IsInterface(sig.Recv().Type()) {
		if _, ok := p.fns[fn]; ok {
			return []*types.Func{fn}
		}
		return nil
	}
	key := fn.FullName()
	if impls, ok := p.implCache[key]; ok {
		return impls
	}
	iface := sig.Recv().Type().Underlying().(*types.Interface)
	var impls []*types.Func
	for _, named := range p.namedTypes {
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, fn.Pkg(), fn.Name())
		if m, ok := obj.(*types.Func); ok && p.fns[m] != nil {
			impls = append(impls, m)
		}
	}
	p.implCache[key] = impls
	return impls
}

// computeSummaries extends every function's summary to the lock sites it
// may acquire transitively. Witness choice is a total order (betterTrace),
// so the fixpoint does not depend on iteration order.
func (p *lgProgram) computeSummaries() {
	for changed := true; changed; {
		changed = false
		for fobj, lf := range p.fns {
			for _, c := range lf.calls {
				for _, callee := range p.resolveCallees(c.callee) {
					if callee == fobj {
						continue
					}
					for id, ctrace := range p.fns[callee].sum {
						trace := append(lgTrace{{pos: c.pos, text: "calls " + callee.FullName()}}, ctrace...)
						if betterTrace(trace, lf.sum[id]) {
							lf.sum[id] = trace
							changed = true
						}
					}
				}
			}
		}
	}
}

// betterTrace reports whether a should replace b: b absent, a shorter, or
// a lexicographically first at equal length (the total order that makes
// the fixpoint deterministic regardless of iteration order).
func betterTrace(a, b lgTrace) bool {
	if b == nil {
		return true
	}
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return strings.Join(a.render(), "|") < strings.Join(b.render(), "|")
}

func (p *lgProgram) addEdge(from, to string, witness lgTrace) {
	if from == "" || to == "" {
		return
	}
	key := [2]string{from, to}
	if betterTrace(witness, p.edges[key]) {
		p.edges[key] = witness
	}
}

// report finds each cycle of the order graph — one per strongly connected
// component, through its smallest lock — and renders it with the witness
// of every edge.
func (p *lgProgram) report() []Diagnostic {
	adj := make(map[string][]string)
	for key := range p.edges {
		adj[key[0]] = append(adj[key[0]], key[1])
	}
	var order []string
	for n := range adj {
		order = append(order, n)
		sort.Strings(adj[n])
	}
	sort.Strings(order)

	var diags []Diagnostic
	done := map[string]bool{}
	for _, n := range order {
		if done[n] {
			continue
		}
		parent := bfs(n, adj)
		closer, onCycle := parent[n]
		if !onCycle {
			continue
		}
		// n is the smallest lock of its component: mark the rest.
		for m := range parent {
			if _, back := bfs(m, adj)[n]; back {
				done[m] = true
			}
		}
		cycle := []string{n}
		for at := closer; at != n; at = parent[at] {
			cycle = append(cycle, at)
		}
		cycle = append(cycle, n)
		slices.Reverse(cycle)

		var notes []string
		for i := 0; i+1 < len(cycle); i++ {
			notes = append(notes, fmt.Sprintf("edge %s → %s:", cycle[i], cycle[i+1]))
			for _, line := range p.edges[[2]string{cycle[i], cycle[i+1]}].render() {
				notes = append(notes, "  "+line)
			}
		}
		diags = append(diags, Diagnostic{
			Pos:     p.edges[[2]string{cycle[0], cycle[1]}][0].pos,
			Pass:    "lockgraph",
			Message: fmt.Sprintf("lock-order cycle (%d locks): %s", len(cycle)-1, strings.Join(cycle, " → ")),
			Notes:   notes,
		})
	}
	return diags
}

// bfs searches adj breadth-first from start, neighbours in sorted order,
// and returns each reached node's BFS parent. start itself is reached
// only by closing a cycle, so parent[start], when present, ends the
// shortest cycle through start.
func bfs(start string, adj map[string][]string) map[string]string {
	parent := map[string]string{}
	for queue := []string{start}; len(queue) > 0; queue = queue[1:] {
		for _, w := range adj[queue[0]] {
			if _, seen := parent[w]; !seen {
				parent[w] = queue[0]
				queue = append(queue, w)
			}
		}
	}
	return parent
}
