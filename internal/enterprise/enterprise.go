// Package enterprise implements the RM-ODP enterprise language (§8).
//
// "The enterprise language focuses on the ideas of communities (i.e.
// organizations of one sort or another), roles within communities and the
// objectives of a community. An understanding of these issues provides
// the design rationale for placing security and dependability
// requirements on the components of an ODP system."
//
// A Community declares roles and policy statements (permissions,
// prohibitions, obligations) over abstract actions. CompileGuardPolicy
// turns the declarative enterprise statement plus a role assignment into
// the concrete security.Policy a guard enforces — the enterprise
// viewpoint literally generating the engineering artefact.
package enterprise

import (
	"errors"
	"fmt"
	"sort"

	"odp/internal/security"
)

// PolicyKind classifies a policy statement.
type PolicyKind int

// Policy statement kinds.
const (
	// Permission allows a role to perform an action.
	Permission PolicyKind = iota + 1
	// Prohibition forbids a role an action, overriding permissions.
	Prohibition
	// Obligation requires a role to perform an action; it is checked by
	// audit (CheckObligations), not enforced by guards.
	Obligation
)

// Statement is one policy clause of a community.
type Statement struct {
	// Kind is the statement's deontic force.
	Kind PolicyKind
	// Role the statement applies to; "*" matches every role.
	Role string
	// Action the statement governs; "*" matches every action. Actions
	// map one-to-one onto interface operation names when compiled.
	Action string
}

// Community is an organization with roles, objectives and policy.
type Community struct {
	// Name identifies the community.
	Name string
	// Objective is the community's stated purpose (documentation; the
	// paper insists the link from mechanism to purpose be explicit).
	Objective string
	// Roles lists the community's roles.
	Roles []string
	// Statements is the community's policy.
	Statements []Statement
}

// Errors returned by the enterprise layer.
var (
	// ErrUnknownRole reports an assignment to an undeclared role.
	ErrUnknownRole = errors.New("enterprise: unknown role")
	// ErrObligationUnmet reports an unmet obligation at audit.
	ErrObligationUnmet = errors.New("enterprise: obligation unmet")
)

// Assignment binds principals to roles within a community.
type Assignment map[string][]string // principal -> roles

// Validate checks that every assigned role is declared.
func (c Community) Validate(a Assignment) error {
	declared := make(map[string]bool, len(c.Roles))
	for _, r := range c.Roles {
		declared[r] = true
	}
	for principal, roles := range a {
		for _, r := range roles {
			if !declared[r] {
				return fmt.Errorf("%w: %q assigned to %q", ErrUnknownRole, r, principal)
			}
		}
	}
	return nil
}

// Permits evaluates the policy for a principal under an assignment: the
// principal may act if any of its roles permits and none prohibits.
func (c Community) Permits(a Assignment, principal, action string) bool {
	anyAllowed := false
	for _, role := range a[principal] {
		prohibited := false
		allowed := false
		for _, s := range c.Statements {
			if s.Role != "*" && s.Role != role {
				continue
			}
			if s.Action != "*" && s.Action != action {
				continue
			}
			switch s.Kind {
			case Prohibition:
				prohibited = true
			case Permission:
				allowed = true
			}
		}
		if prohibited {
			return false
		}
		if allowed {
			anyAllowed = true
		}
	}
	return anyAllowed
}

// CompileGuardPolicy lowers the community policy plus a role assignment
// into the security.Policy a generated guard enforces over the given
// operations ("this checking is another example of the kind of
// engineering detail which can be generated automatically from a
// declarative statement of security policy", §7.1).
func (c Community) CompileGuardPolicy(a Assignment, ops []string) (security.Policy, error) {
	if err := c.Validate(a); err != nil {
		return security.Policy{}, err
	}
	principals := make([]string, 0, len(a))
	for p := range a {
		principals = append(principals, p)
	}
	sort.Strings(principals)
	var rules []security.Rule
	for _, principal := range principals {
		for _, op := range ops {
			if c.Permits(a, principal, op) {
				rules = append(rules, security.Rule{Principal: principal, Op: op, Allow: true})
			}
		}
	}
	return security.Policy{Rules: rules}, nil
}

// ObligationRecord reports one principal's performance of an action, for
// obligation auditing ("contractual interactions should be subject to
// audit", §8).
type ObligationRecord struct {
	// Principal that acted.
	Principal string
	// Action performed.
	Action string
}

// CheckObligations audits a trace of performed actions against the
// community's obligations: every principal holding an obligated role must
// appear in the trace performing the obligated action.
func (c Community) CheckObligations(a Assignment, trace []ObligationRecord) error {
	performed := make(map[string]bool, len(trace))
	for _, r := range trace {
		performed[r.Principal+"|"+r.Action] = true
	}
	for _, s := range c.Statements {
		if s.Kind != Obligation {
			continue
		}
		for principal, roles := range a {
			holds := false
			for _, r := range roles {
				if s.Role == "*" || s.Role == r {
					holds = true
					break
				}
			}
			if holds && !performed[principal+"|"+s.Action] {
				return fmt.Errorf("%w: %q must %q", ErrObligationUnmet, principal, s.Action)
			}
		}
	}
	return nil
}
