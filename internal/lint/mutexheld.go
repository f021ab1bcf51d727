package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// MutexHeldConfig configures the mutexheld pass.
type MutexHeldConfig struct {
	// Blocking maps a package path to the functions and methods in it
	// that transmit on the network or block indefinitely, and therefore
	// must never be called with a mutex held. Entries are either a bare
	// name ("send") or receiver-qualified ("Endpoint.Send").
	Blocking map[string][]string
}

// DefaultMutexHeldConfig lists this platform's transmission and blocking
// primitives.
func DefaultMutexHeldConfig() MutexHeldConfig {
	return MutexHeldConfig{
		Blocking: map[string][]string{
			"sync":                   {"WaitGroup.Wait"},
			"odp/internal/transport": {"Endpoint.Send"},
			"odp/internal/netsim":    {"Fabric.send", "endpoint.Send", "endpoint.deliver"},
			"odp/internal/rpc":       {"Client.Call", "Client.Announce"},
			"odp/internal/capsule":   {"Capsule.Invoke"},
			"odp/internal/group":     {"Member.call", "Member.multicastDeliver", "Member.multicastView"},
		},
	}
}

// heldContractRe matches doc comments that declare a lock-held calling
// contract, e.g. "Called with lm.mu held."
var heldContractRe = regexp.MustCompile(`(?i)called with .*\b(held|locked)\b`)

// entryHeld is fd's held set on entry: the caller's mutex when fd is, by
// convention, always called with a lock held — its name ends in "Locked"
// or its doc comment declares the contract.
func entryHeld(fd *ast.FuncDecl) map[string]heldLock {
	held := map[string]heldLock{}
	if strings.HasSuffix(fd.Name.Name, "Locked") || fd.Doc != nil && heldContractRe.MatchString(fd.Doc.Text()) {
		held["(caller's mutex)"] = heldLock{}
	}
	return held
}

// mutexHeld is the mutexheld pass: the visitor that reports a blocking
// operation while the held set is non-empty.
type mutexHeld []Diagnostic

func (*mutexHeld) acquire(heldLock, map[string]heldLock)                 {}
func (*mutexHeld) call(*types.Func, token.Position, map[string]heldLock) {}
func (m *mutexHeld) detached() lockVisitor                               { return m }

func (m *mutexHeld) blocking(pos token.Position, what string, held map[string]heldLock) {
	if len(held) == 0 {
		return
	}
	// The smallest key keeps the message deterministic.
	first := ""
	for k := range held {
		if first == "" || k < first {
			first = k
		}
	}
	*m = append(*m, Diagnostic{Pos: pos, Pass: "mutexheld", Message: fmt.Sprintf("%s while %s is held", what, first)})
}
