// Package lint is the platform's custom static-analysis suite.
//
// The value of the ODP engineering model is that its transparency
// machinery — proxies, channels, capsules — is modular and selective.
// That claim only holds as long as no code path quietly bypasses a layer,
// blocks the world inside a critical section, or lets the wire codec
// drift away from the data model it carries. Each analyzer here encodes
// one such invariant, previously enforced only by convention and review:
//
//   - mutexheld: no channel send/receive, select, WaitGroup.Wait or
//     network transmission (transport send, RPC invoke, capsule invoke)
//     while a sync.Mutex or sync.RWMutex is held. Functions whose name
//     ends in "Locked" or whose doc comment says "called with ... held"
//     are analyzed as if a lock were held on entry.
//   - lockgraph: whole-repo static deadlock freedom. Every named lock
//     site (struct-field mutexes, package-level locks) becomes a node;
//     acquiring B while holding A — directly or through any chain of
//     calls, including interface dispatch — is an edge; a cycle in the
//     resulting order graph is a potential deadlock and is reported with
//     a full witness chain. Intentional hierarchies are declared in the
//     ordered-lock allowlist.
//   - detclock: outside the sanctioned gateways (internal/clock,
//     internal/sim, netsim's realtime.go), no direct use of time.Now,
//     time.Sleep, timers, tickers or the global math/rand source, so that
//     time-driven mechanisms stay deterministic under test.
//   - layering: the import graph respects the engineering model — the
//     computational layers reach the network only through the rpc/core
//     proxy layers, and the low layers (wire, transport, netsim) never
//     import upward.
//   - wiretotal: the wire codecs stay total over the computational data
//     model — every value kind is handled by every encoder and decoder,
//     and every exported field of the reference type survives both
//     codecs.
//   - ctxdrop: a function that binds a context.Context parameter to a
//     name must read it — otherwise the cancellation chain is silently
//     cut. Implementations that genuinely ignore cancellation declare
//     it by naming the parameter _.
//   - obsleak: a span minted by obs.Collector.Begin/BeginChild must be
//     released — reach End, or escape to code that can — on some path;
//     a forgotten span leaks its pooled storage and drops its subtree
//     from the trace ring.
//   - envaudit: every channel span kind is asserted by some test (or
//     carries a documented exemption that is still needed).
//
// A finding can be suppressed at the site with a
// `//lint:ignore <pass> <reason>` comment on the same line or the line
// directly above. Suppressions are never silent: they are counted,
// reported by cmd/odplint, and a suppression that no longer matches any
// finding is itself a diagnostic, so stale ignores cannot accumulate.
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
	// Pass names the analyzer that produced it.
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

// Analyzer is one invariant checker. Run inspects a single type-checked
// package and reports violations.
type Analyzer interface {
	// Name identifies the pass in diagnostics.
	Name() string
	// Run analyzes one package.
	Run(pkg *Package) []Diagnostic
}

// ProgramAnalyzer is an analyzer that needs the whole program at once —
// lockgraph (the order graph spans packages) and envaudit (span kinds
// and the tests asserting them live in different packages). Run on individual
// packages returns nil; RunProgram does the work.
type ProgramAnalyzer interface {
	Analyzer
	// RunProgram analyzes the full set of loaded packages.
	RunProgram(pkgs []*Package) []Diagnostic
}

// DefaultAnalyzers returns the full suite configured for this repository.
func DefaultAnalyzers() []Analyzer {
	return []Analyzer{
		NewMutexHeld(DefaultMutexHeldConfig()),
		NewLockGraph(DefaultLockGraphConfig()),
		NewDetClock(DefaultDetClockConfig()),
		NewLayering(DefaultLayeringConfig()),
		NewWireTotal(),
		NewCtxDrop(),
		NewObsLeak(),
		NewEnvAudit(DefaultEnvAuditConfig()),
	}
}

// Suppression is one diagnostic silenced by a //lint:ignore comment.
type Suppression struct {
	// Directive locates the ignore comment.
	Directive token.Position
	// Reason is the comment's stated justification.
	Reason string
	// Diagnostic is the silenced finding.
	Diagnostic Diagnostic
}

// Result is the outcome of a full analysis run.
type Result struct {
	// Diagnostics are the active findings, sorted by position. Includes
	// meta-findings for stale or malformed //lint:ignore comments.
	Diagnostics []Diagnostic
	// Suppressed are findings silenced by //lint:ignore comments, sorted
	// by position. They fail nothing but are reported so suppressions
	// cannot accumulate unseen.
	Suppressed []Suppression
}

// Run applies each analyzer and returns the active diagnostics sorted by
// position, with //lint:ignore suppressions applied. Use RunDetailed when
// the suppression list itself is needed.
func Run(pkgs []*Package, analyzers []Analyzer) []Diagnostic {
	return RunDetailed(pkgs, analyzers).Diagnostics
}

// RunDetailed applies each analyzer to the loaded program and resolves
// //lint:ignore directives, returning both the active findings and the
// suppressed ones.
func RunDetailed(pkgs []*Package, analyzers []Analyzer) Result {
	var raw []Diagnostic
	for _, a := range analyzers {
		if pa, ok := a.(ProgramAnalyzer); ok {
			raw = append(raw, pa.RunProgram(pkgs)...)
			continue
		}
		for _, pkg := range pkgs {
			raw = append(raw, a.Run(pkg)...)
		}
	}
	directives := collectIgnoreDirectives(pkgs)
	res := applySuppressions(raw, directives)
	sortDiags(res.Diagnostics)
	sort.Slice(res.Suppressed, func(i, j int) bool {
		return positionLess(res.Suppressed[i].Diagnostic.Pos, res.Suppressed[j].Diagnostic.Pos, "", "")
	})
	return res
}

func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		return positionLess(diags[i].Pos, diags[j].Pos, diags[i].Pass, diags[j].Pass)
	})
}

func positionLess(a, b token.Position, passA, passB string) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return passA < passB
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	pos    token.Position
	pass   string
	reason string
	used   bool
}

const ignorePrefix = "//lint:ignore"

// collectIgnoreDirectives scans every loaded file's comments for
// //lint:ignore directives, keyed by filename. Malformed directives
// (missing pass or reason) surface later as diagnostics.
func collectIgnoreDirectives(pkgs []*Package) map[string][]*ignoreDirective {
	out := make(map[string][]*ignoreDirective)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, ignorePrefix) {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
					pass, reason, _ := strings.Cut(rest, " ")
					d := &ignoreDirective{pos: pos, pass: pass, reason: strings.TrimSpace(reason)}
					out[pos.Filename] = append(out[pos.Filename], d)
				}
			}
		}
	}
	return out
}

// applySuppressions partitions raw findings into active and suppressed. A
// directive matches a diagnostic of its named pass on the directive's own
// line (trailing comment) or the line directly below (comment above the
// statement). Stale and malformed directives become diagnostics.
func applySuppressions(raw []Diagnostic, directives map[string][]*ignoreDirective) Result {
	var res Result
	for _, d := range raw {
		suppressed := false
		for _, dir := range directives[d.Pos.Filename] {
			if dir.pass != d.Pass || dir.reason == "" {
				continue
			}
			if dir.pos.Line == d.Pos.Line || dir.pos.Line == d.Pos.Line-1 {
				dir.used = true
				res.Suppressed = append(res.Suppressed, Suppression{
					Directive:  dir.pos,
					Reason:     dir.reason,
					Diagnostic: d,
				})
				suppressed = true
				break
			}
		}
		if !suppressed {
			res.Diagnostics = append(res.Diagnostics, d)
		}
	}
	// Every directive must be well-formed and must suppress something:
	// an ignore that outlives its finding is dead weight and gets
	// reported until it is removed.
	var files []string
	for f := range directives {
		files = append(files, f)
	}
	sort.Strings(files)
	for _, f := range files {
		for _, dir := range directives[f] {
			switch {
			case dir.pass == "" || dir.reason == "":
				res.Diagnostics = append(res.Diagnostics, Diagnostic{
					Pos:     dir.pos,
					Pass:    "lintignore",
					Message: "malformed //lint:ignore: want \"//lint:ignore <pass> <reason>\"",
				})
			case !dir.used:
				res.Diagnostics = append(res.Diagnostics, Diagnostic{
					Pos:     dir.pos,
					Pass:    "lintignore",
					Message: fmt.Sprintf("stale //lint:ignore %s: suppresses no finding — remove it", dir.pass),
				})
			}
		}
	}
	return res
}
