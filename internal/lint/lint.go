// Package lint is the platform's custom static-analysis suite.
//
// The value of the ODP engineering model is that its transparency
// machinery — proxies, channels, capsules — is modular and selective.
// That claim only holds as long as no code path quietly bypasses a layer
// or blocks the world inside a critical section. Each pass encodes one
// such invariant, previously enforced only by convention and review:
//
//   - mutexheld: no channel operation, blocking select, WaitGroup.Wait or
//     network transmission while a mutex is held.
//   - lockgraph: no cycle in the module's lock order, through any chain
//     of calls, interface dispatch included; a cycle is reported with a
//     full witness chain.
//   - detclock: no wall clock, timers or global math/rand outside the
//     sanctioned gateways, so time-driven mechanisms stay deterministic,
//     and no clock.Real{} outside the files that choose a node's clock.
//   - layering: the computational layers reach the network only through
//     the proxy layers, and the low layers never import upward.
//   - ctxdrop: a named context.Context parameter is read, so
//     cancellation is never silently cut.
//   - obsleak: a span from obs.Collector.Begin/BeginChild reaches End or
//     escapes on some path, so the span pool cannot leak.
//
// mutexheld and lockgraph share one held-lock walk (lockcommon.go), so
// each function body is walked once and the two cannot disagree about
// what is held. There is no suppression comment: a finding is fixed.
//
// The suite is built on the standard library only: go/parser, go/ast and
// go/types with a source importer. It is wired into tier-1 via
// lint_test.go (the repo must produce zero diagnostics) and is runnable
// standalone as cmd/odplint (with -json for machine-readable output).
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Pass names the pass that produced it.
	Pass string
	// Message describes the violated invariant.
	Message string
	// Notes carries supporting detail — for lockgraph, one witness step
	// per line of the cycle's acquire chain.
	Notes []string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Pass, d.Message)
}

// Render renders the diagnostic with its notes indented beneath it.
func (d Diagnostic) Render() string {
	if len(d.Notes) == 0 {
		return d.String()
	}
	return d.String() + "\n\t" + strings.Join(d.Notes, "\n\t")
}

// Analyzer is one invariant checker: it inspects the loaded program and
// reports violations.
type Analyzer interface {
	Run(pkgs []*Package) []Diagnostic
}

// eachPackage is an Analyzer that checks one package at a time.
type eachPackage func(pkg *Package) []Diagnostic

func (check eachPackage) Run(pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, check(pkg)...)
	}
	return diags
}

// DefaultAnalyzers returns the full suite configured for this repository.
func DefaultAnalyzers() []Analyzer {
	return []Analyzer{
		NewLocks(DefaultMutexHeldConfig()),
		NewDetClock(DefaultDetClockConfig()),
		NewLayering(DefaultLayeringConfig()),
		NewCtxDrop(),
		NewObsLeak(),
	}
}

// Run applies each analyzer and returns the diagnostics sorted by
// position.
func Run(pkgs []*Package, analyzers []Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		diags = append(diags, a.Run(pkgs)...)
	}
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Pass < b.Pass
	})
	return diags
}
