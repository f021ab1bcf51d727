package lint

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// LayeringConfig configures the layering pass.
type LayeringConfig struct {
	// Restricted maps an import path to the only packages allowed to
	// import it directly. Test files are exempt (the loader never parses
	// them), as is the restricted package itself.
	Restricted map[string][]string
	// LowLayer maps a low-level package to the complete set of
	// module-internal packages it may import; everything else is an
	// upward (layer-inverting) import.
	LowLayer map[string][]string
}

// DefaultLayeringConfig encodes this platform's selective-transparency
// layering: computational-model packages reach the network only through
// the rpc/core/capsule proxy layers (§5 of the paper — transparency
// mechanisms are interposed, never bypassed), and the low layers never
// import upward.
func DefaultLayeringConfig() LayeringConfig {
	return LayeringConfig{
		Restricted: map[string][]string{
			"odp/internal/transport": {
				"odp", // the platform façade assembles the stack
				"odp/internal/rpc",
				"odp/internal/core",
				"odp/internal/capsule",
				"odp/internal/netsim",
			},
			"odp/internal/netsim": {
				"odp",              // façade-level fabric construction only
				"odp/internal/sim", // the simulation harness owns a fabric
			},
		},
		LowLayer: map[string][]string{
			"odp/internal/wire": {},
			// The write coalescer stamps its flush-delay histogram on the
			// injected clock, and its flushes emit observability spans.
			"odp/internal/transport": {"odp/internal/clock", "odp/internal/obs"},
			// The span collector timestamps on the injected clock and
			// renders snapshots in the wire data model.
			"odp/internal/obs": {"odp/internal/clock", "odp/internal/wire"},
			// The fabric schedules delivery on an injected clock so whole
			// universes run in virtual time, and reads its packet counters
			// with obs.Load.
			"odp/internal/netsim": {"odp/internal/transport", "odp/internal/clock", "odp/internal/obs"},
			"odp/internal/clock":  {},
		},
	}
}

// NewLayering creates the import-graph pass.
func NewLayering(cfg LayeringConfig) Analyzer { return eachPackage((&layering{cfg: cfg}).run) }

type layering struct {
	cfg LayeringConfig
}

func (a *layering) run(pkg *Package) []Diagnostic {
	var diags []Diagnostic
	lowAllowed, isLow := a.cfg.LowLayer[pkg.Path]
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if allowed, ok := a.cfg.Restricted[path]; ok && pkg.Path != path && !slices.Contains(allowed, pkg.Path) {
				diags = append(diags, Diagnostic{
					Pos:  pkg.Fset.Position(imp.Pos()),
					Pass: "layering",
					Message: fmt.Sprintf(
						"%s imports %s directly: only %s may bypass the proxy layers",
						pkg.Path, path, strings.Join(allowed, ", ")),
				})
			}
			if isLow && isModuleInternal(path, pkg.Path) && !slices.Contains(lowAllowed, path) {
				diags = append(diags, Diagnostic{
					Pos:  pkg.Fset.Position(imp.Pos()),
					Pass: "layering",
					Message: fmt.Sprintf(
						"low-layer package %s imports %s: lower layers must not reach upward",
						pkg.Path, path),
				})
			}
		}
	}
	return diags
}

// isModuleInternal reports whether path belongs to the same module as
// pkgPath (shares the first path element).
func isModuleInternal(path, pkgPath string) bool {
	mod := pkgPath
	if i := strings.Index(pkgPath, "/"); i >= 0 {
		mod = pkgPath[:i]
	}
	return path == mod || strings.HasPrefix(path, mod+"/")
}
