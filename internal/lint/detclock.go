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
	// ExemptFiles exempts single files, named "pkgpath/basename". A
	// file-level exemption scopes a package's wall-clock license to the
	// one file that genuinely needs it, so the rest of the package stays
	// under the pass.
	ExemptFiles []string
}

// DefaultDetClockConfig exempts this repository's sanctioned gateways.
// netsim is deliberately NOT package-exempt: since delivery scheduling
// became clock-pluggable, the fabric's only wall-clock touch is the
// real-time fallback in realtime.go.
func DefaultDetClockConfig() DetClockConfig {
	return DetClockConfig{
		ExemptPackages: []string{
			"odp/internal/clock",
			"odp/internal/sim",
		},
		ExemptPrefixes: []string{"odp/cmd/", "odp/examples/"},
		ExemptFiles:    []string{"odp/internal/netsim/realtime.go"},
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
func NewDetClock(cfg DetClockConfig) Analyzer { return &detClock{cfg: cfg} }

type detClock struct {
	cfg DetClockConfig
}

func (*detClock) Name() string { return "detclock" }

func (a *detClock) Run(pkg *Package) []Diagnostic {
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
		if a.fileExempt(pkg, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
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
						Pass: a.Name(),
						Message: fmt.Sprintf(
							"time.%s in simulation-driven package %s: take the time from internal/clock",
							fn.Name(), pkg.Path),
					})
				}
			case "math/rand", "math/rand/v2":
				if deniedRandFuncs[fn.Name()] {
					diags = append(diags, Diagnostic{
						Pos:  pkg.Fset.Position(sel.Pos()),
						Pass: a.Name(),
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

// fileExempt reports whether f matches an ExemptFiles entry. Entries name
// files as "pkgpath/basename", so the exemption cannot silently follow a
// file moved to another package.
func (a *detClock) fileExempt(pkg *Package, f *ast.File) bool {
	if len(a.cfg.ExemptFiles) == 0 {
		return false
	}
	name := pkg.Path + "/" + filepath.Base(pkg.Fset.Position(f.Pos()).Filename)
	for _, e := range a.cfg.ExemptFiles {
		if name == e {
			return true
		}
	}
	return false
}
