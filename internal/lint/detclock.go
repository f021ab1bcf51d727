package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// DetClockConfig configures the detclock pass.
type DetClockConfig struct {
	// ExemptPackages may touch the time package and global math/rand
	// directly: the clock gateway itself and the simulation harness (its
	// settle loop watches real goroutines make real progress).
	ExemptPackages []string
	// ExemptPrefixes exempts whole subtrees (commands and examples are
	// interactive programs, not simulation-driven mechanisms).
	ExemptPrefixes []string
	// ExemptFiles exempts single files, named "pkgpath/basename", from
	// the time and math/rand deny-lists. A file-level exemption scopes a
	// package's wall-clock license to the one file that genuinely needs
	// it, so the rest of the package stays under the pass.
	ExemptFiles []string
	// RealClockFiles, named like ExemptFiles, are the only files outside
	// the exempt packages and prefixes that may write the composite
	// literal clock.Real{}: the places that choose a node's clock.
	// Everything else reads the clock it was given, so no layer can fall
	// back to wall time unnoticed. The list is apart from ExemptFiles: it
	// grants the wall clock as a Clock, not the time package.
	RealClockFiles []string
}

// DefaultDetClockConfig exempts this repository's sanctioned gateways.
// netsim is deliberately NOT package-exempt: since delivery scheduling
// became clock-pluggable, the fabric's only wall-clock touch is the
// real-time fallback in realtime.go. A node's clock is chosen in
// NewPlatform and in the façade's bare coalescer; the security guard and
// signer keep the wall clock (DESIGN.md, *One clock per node*).
func DefaultDetClockConfig() DetClockConfig {
	return DetClockConfig{
		ExemptPackages: []string{
			"odp/internal/clock",
			"odp/internal/sim",
		},
		ExemptPrefixes: []string{"odp/cmd/", "odp/examples/"},
		ExemptFiles:    []string{"odp/internal/netsim/realtime.go"},
		RealClockFiles: []string{
			"odp/internal/core/platform.go",
			"odp/odp.go",
			"odp/internal/security/guard.go",
		},
	}
}

// deniedTimeFuncs are the time-package functions that read or advance the
// wall clock. Types (time.Time, time.Duration) and constants remain free.
var deniedTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true,
}

// deniedRandFuncs are the package-level math/rand functions backed by the
// shared global source. Seeded rand.New(rand.NewSource(...)) generators
// are deterministic and stay legal.
var deniedRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "NormFloat64": true,
	"ExpFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"Read": true,
}

// NewDetClock creates the pass that keeps simulation-driven packages off
// the wall clock: mechanisms that sit on the deterministic netsim path
// must take their time from internal/clock so tests can drive them.
func NewDetClock(cfg DetClockConfig) Analyzer { return eachPackage((&detClock{cfg: cfg}).run) }

type detClock struct {
	cfg DetClockConfig
}

func (a *detClock) run(pkg *Package) []Diagnostic {
	for _, p := range a.cfg.ExemptPackages {
		if pkg.Path == p {
			return nil
		}
	}
	for _, p := range a.cfg.ExemptPrefixes {
		if strings.HasPrefix(pkg.Path, p) {
			return nil
		}
	}
	var diags []Diagnostic
	for _, f := range pkg.Files {
		timeFree := listed(pkg, f, a.cfg.ExemptFiles)
		realFree := listed(pkg, f, a.cfg.RealClockFiles)
		if timeFree && realFree {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.CompositeLit); ok && !realFree && isRealClock(pkg.Info.TypeOf(lit)) {
				diags = append(diags, Diagnostic{
					Pos:  pkg.Fset.Position(lit.Pos()),
					Pass: "detclock",
					Message: fmt.Sprintf(
						"clock.Real{} in %s: read the node's clock from below (Batcher.Clock, Capsule.Clock) or take it as an argument",
						pkg.Path),
				})
				return true
			}
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || timeFree {
				return true
			}
			fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true // methods (e.g. Time.Add, Rand.Intn) are fine
			}
			switch fn.Pkg().Path() {
			case "time":
				if deniedTimeFuncs[fn.Name()] {
					diags = append(diags, Diagnostic{
						Pos:  pkg.Fset.Position(sel.Pos()),
						Pass: "detclock",
						Message: fmt.Sprintf(
							"time.%s in simulation-driven package %s: take the time from internal/clock",
							fn.Name(), pkg.Path),
					})
				}
			case "math/rand", "math/rand/v2":
				if deniedRandFuncs[fn.Name()] {
					diags = append(diags, Diagnostic{
						Pos:  pkg.Fset.Position(sel.Pos()),
						Pass: "detclock",
						Message: fmt.Sprintf(
							"global rand.%s in simulation-driven package %s: use a seeded rand.New(rand.NewSource(...))",
							fn.Name(), pkg.Path),
					})
				}
			}
			return true
		})
	}
	return diags
}

// listed reports whether f matches an entry of files. Entries name files
// as "pkgpath/basename", so an exemption cannot silently follow a file
// moved to another package.
func listed(pkg *Package, f *ast.File, files []string) bool {
	name := pkg.Path + "/" + filepath.Base(pkg.Fset.Position(f.Pos()).Filename)
	for _, e := range files {
		if name == e {
			return true
		}
	}
	return false
}

// isRealClock reports whether t is clock.Real, the wall clock.
func isRealClock(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "odp/internal/clock" && n.Obj().Name() == "Real"
}
