package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The envaudit pass keeps the channel's span kinds honest: every span
// kind obs declares must be asserted by some test — referenced by name or
// by value — or carry a documented exemption in the config, and an
// exemption that is no longer necessary is itself a finding. That each
// Env constraint puts its mechanism on the access path, and no other, is
// checked by behaviour, not here: core's TestWeaverSelectiveStacking runs
// every Env combination.
//
// Test sources are inspected syntactically (Package.TestFiles): Kind
// references don't need types.

// EnvAuditConfig configures the envaudit pass.
type EnvAuditConfig struct {
	// ObsPackage hosts the span-kind constants.
	ObsPackage string
	// KindExemptions documents span kinds that legitimately have no
	// E-series assertion, with the reason. Any other kind must be
	// referenced by some test file.
	KindExemptions map[string]string
}

// DefaultEnvAuditConfig is this repository's span-kind audit table.
func DefaultEnvAuditConfig() EnvAuditConfig {
	return EnvAuditConfig{
		ObsPackage:     "odp/internal/obs",
		KindExemptions: map[string]string{},
	}
}

// NewEnvAudit creates the span-kind coverage audit pass.
func NewEnvAudit(cfg EnvAuditConfig) Analyzer { return &envAudit{cfg: cfg} }

type envAudit struct {
	cfg EnvAuditConfig
}

func (*envAudit) Name() string { return "envaudit" }

// Run is a no-op: the kinds and the tests asserting them live in
// different packages. See RunProgram.
func (*envAudit) Run(*Package) []Diagnostic { return nil }

func (a *envAudit) RunProgram(pkgs []*Package) []Diagnostic {
	var obs *Package
	for _, pkg := range pkgs {
		if pkg.Path == a.cfg.ObsPackage {
			obs = pkg
		}
	}
	if obs == nil {
		// Partial loads (fixture corpora) have nothing to audit.
		return nil
	}
	var diags []Diagnostic
	report := func(pos token.Position, format string, args ...interface{}) {
		diags = append(diags, Diagnostic{
			Pos: pos, Pass: a.Name(), Message: fmt.Sprintf(format, args...),
		})
	}
	kinds := obsKinds(obs)
	assertedKinds := referencedKinds(pkgs, kinds)

	// Every span kind needs an asserting test or a documented exemption,
	// and exemptions must stay necessary.
	for _, k := range sortedStringKeys(kinds) {
		reason, exempt := a.cfg.KindExemptions[k]
		switch {
		case exempt && assertedKinds[k]:
			report(kinds[k], "span kind %s is exempt (%q) but tests assert it — remove the exemption", k, reason)
		case !exempt && !assertedKinds[k]:
			report(kinds[k], "span kind %s has no covering E-series assertion: no test references it", k)
		}
	}
	for _, k := range sortedStringKeys(a.cfg.KindExemptions) {
		if _, ok := kinds[k]; !ok {
			report(token.Position{}, "EnvAuditConfig.KindExemptions names unknown span kind %s — remove it", k)
		}
	}
	return diags
}

// obsKinds returns the obs package's Kind* string constants: name →
// declaration position.
func obsKinds(obs *Package) map[string]token.Position {
	kinds := make(map[string]token.Position)
	scope := obs.Types.Scope()
	for _, name := range scope.Names() {
		if !strings.HasPrefix(name, "Kind") {
			continue
		}
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || c.Val().Kind() != constant.String {
			continue
		}
		kinds[name] = obs.Fset.Position(c.Pos())
	}
	return kinds
}

// referencedKinds scans all test files for references to the span-kind
// constants — by name (obs.KindDispatch) or by literal value
// ("rpc.dispatch").
func referencedKinds(pkgs []*Package, kinds map[string]token.Position) map[string]bool {
	valueOf := kindValues(pkgs, kinds)
	asserted := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.TestFiles {
			ast.Inspect(f, func(n ast.Node) bool {
				switch e := n.(type) {
				case *ast.Ident:
					if _, ok := kinds[e.Name]; ok {
						asserted[e.Name] = true
					}
				case *ast.BasicLit:
					if e.Kind != token.STRING {
						return true
					}
					for name, val := range valueOf {
						if e.Value == `"`+val+`"` {
							asserted[name] = true
						}
					}
				}
				return true
			})
		}
	}
	return asserted
}

// kindValues resolves each kind constant's string value from the obs
// package's type information.
func kindValues(pkgs []*Package, kinds map[string]token.Position) map[string]string {
	out := make(map[string]string)
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for name := range kinds {
			if c, ok := scope.Lookup(name).(*types.Const); ok && c.Val().Kind() == constant.String {
				out[name] = constant.StringVal(c.Val())
			}
		}
	}
	return out
}

func sortedStringKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
