package security

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"odp/internal/capsule"
	"odp/internal/clock"
	"odp/internal/obs"
	"odp/internal/rpc"
	"odp/internal/wire"
)

// Signer produces credentials on behalf of one principal.
type Signer struct {
	key *key
	// Seal encrypts argument payloads (confidentiality in addition to
	// integrity).
	Seal bool

	nonce atomic.Uint64
	now   func() time.Time
}

// NewSigner creates a signer for principal with its shared secret.
func NewSigner(principal string, secret []byte) *Signer {
	s := &Signer{key: newKey(principal, secret), now: clock.Real{}.Now}
	// Start nonces at a random point so two incarnations of the same
	// principal do not collide in the guard's replay window. The seed is
	// not secret; without entropy the sequence starts at zero.
	var seed [8]byte
	if _, err := rand.Read(seed[:]); err == nil {
		s.nonce.Store(binary.BigEndian.Uint64(seed[:]))
	}
	return s
}

// Wrap prepends a credential to args for an invocation of op, stamped
// with the wall clock: a program with no platform signs for nodes on the
// wall clock. When sealing, the arguments are replaced entirely by the
// encrypted payload inside the credential.
func (s *Signer) Wrap(op string, args []wire.Value) ([]wire.Value, error) {
	return s.WrapAt(s.now(), op, args)
}

// WrapAt is Wrap with the credential stamped at: a proxy stamps it from
// its platform's clock, the clock the guards of its peers judge it by.
func (s *Signer) WrapAt(at time.Time, op string, args []wire.Value) ([]wire.Value, error) {
	k := s.key
	if len(k.principal) > 255 {
		return nil, fmt.Errorf("%w: principal of %d bytes", ErrBadCredential, len(k.principal))
	}
	var flags byte
	if s.Seal {
		flags = flagSealed
	}
	cred := make([]byte, 0, credFixed+len(k.principal))
	cred = appendCredential(cred, flags, s.nonce.Add(1), at.UnixMilli(), k.principal)
	var sealed []byte
	if flags&flagSealed != 0 {
		bp := wire.GetBuffer()
		plain, err := wire.EncodeAllInto(wire.PackedCodec{}, *bp, args)
		if err == nil {
			*bp = plain
			cred, err = k.seal(cred, plain)
		}
		wire.PutBuffer(bp)
		if err != nil {
			return nil, err
		}
		sealed, args = cred[credFixed+len(k.principal):], nil
	}
	if err := k.invocationMAC(cred, op, args, sealed, false); err != nil {
		return nil, err
	}
	out := make([]wire.Value, 0, len(args)+1)
	out = append(out, cred)
	return append(out, args...), nil
}

// Rule is one clause of a declarative policy.
type Rule struct {
	// Principal the rule applies to; "*" matches all.
	Principal string
	// Op the rule applies to; "*" matches all.
	Op string
	// Allow or deny.
	Allow bool
}

// Policy is an ordered rule list: first match wins; no match denies.
type Policy struct {
	// Rules in evaluation order.
	Rules []Rule
}

// Allows evaluates the policy.
func (p Policy) Allows(principal, op string) bool {
	for _, r := range p.Rules {
		if (r.Principal == "*" || r.Principal == principal) &&
			(r.Op == "*" || r.Op == op) {
			return r.Allow
		}
	}
	return false
}

// GuardStats counts guard decisions.
type GuardStats struct {
	Admitted uint64
	Rejected uint64
	Replays  uint64
}

// Guard polices one interface: it is the generated engineering artefact
// of a declarative policy statement (§7.1). Use AsInterceptor to place it
// "within the encapsulation boundary of the secure object".
type Guard struct {
	// stats is counted in place with atomic.AddUint64; first, so its
	// words are 64-bit aligned on 32-bit platforms too.
	stats GuardStats

	keys   *Keyring
	policy Policy
	skewMs int64
	now    func() time.Time // Admit's instant; the access path brings its own
	mu     sync.Mutex
	// seen holds the admitted nonces by generation: the credential
	// expiring at unix millisecond e is in generation e/skewMs. At most
	// three generations hold credentials that are still fresh. Within a
	// generation each principal's nonces are a bitmap of 64-nonce words:
	// nonce n is bit n&63 of word n>>6.
	seen map[int64]map[string]map[uint64]uint64
}

// NewGuard generates a guard from a declarative policy and the object's
// shared secrets. maxSkew bounds credential age (default 30s).
func NewGuard(keys *Keyring, policy Policy, maxSkew time.Duration) *Guard {
	if maxSkew < time.Millisecond {
		maxSkew = 30 * time.Second
	}
	return &Guard{
		keys:   keys,
		policy: policy,
		skewMs: maxSkew.Milliseconds(),
		now:    clock.Real{}.Now,
		seen:   make(map[int64]map[string]map[uint64]uint64),
	}
}

// Stats returns a snapshot of guard counters.
func (g *Guard) Stats() GuardStats { return obs.Load(&g.stats) }

// AsInterceptor returns the guard as a capsule interceptor. On the
// access path the guard judges freshness at the invocation's dispatch
// instant, on the node's clock: a proxy stamps its credentials from its
// own platform's clock, so a node in virtual time admits its clients.
func (g *Guard) AsInterceptor() capsule.Interceptor {
	return func(next capsule.Link) capsule.Link {
		return func(ctx context.Context, inv capsule.Invocation) (string, []wire.Value, error) {
			realArgs, k, err := g.admit(inv.Op, inv.Args, inv.At)
			if err != nil {
				atomic.AddUint64(&g.stats.Rejected, 1)
				return "", nil, fmt.Errorf("%w: %v", rpc.ErrDenied, err)
			}
			atomic.AddUint64(&g.stats.Admitted, 1)
			// The key outlives the call, so the context can point at its
			// principal instead of boxing a copy.
			inv.Args = realArgs
			return next(context.WithValue(ctx, principalKey{}, &k.principal), inv)
		}
	}
}

// Admit verifies the credential at args[0] and evaluates the policy,
// returning the application arguments and the authenticated principal.
// Freshness is judged at the wall clock's now.
func (g *Guard) Admit(op string, args []wire.Value) ([]wire.Value, string, error) {
	realArgs, k, err := g.admit(op, args, g.now())
	if err != nil {
		return nil, "", err
	}
	return realArgs, k.principal, nil
}

// admit is Admit at instant now, returning the authenticated principal's
// key.
func (g *Guard) admit(op string, args []wire.Value, now time.Time) ([]wire.Value, *key, error) {
	if len(args) == 0 {
		return nil, nil, fmt.Errorf("%w: no credential", ErrBadCredential)
	}
	c, err := decodeCredential(args[0])
	if err != nil {
		return nil, nil, err
	}
	k := g.keys.lookup(c.principal)
	if k == nil {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownPrincipal, c.principal)
	}
	nowMs := now.UnixMilli()
	if diff := nowMs - c.unixMilli; diff > g.skewMs || diff < -g.skewMs {
		return nil, nil, fmt.Errorf("%w: %dms skew", ErrStale, diff)
	}
	realArgs := args[1:]
	if c.sealed != nil {
		realArgs = nil
	}
	if err := k.invocationMAC(c.raw, op, realArgs, c.sealed, true); err != nil {
		return nil, nil, err
	}
	if !g.firstUse(k.principal, c.nonce, c.unixMilli+g.skewMs, nowMs) {
		atomic.AddUint64(&g.stats.Replays, 1)
		return nil, nil, ErrReplay
	}
	if c.sealed != nil {
		plain, err := k.unseal(c.sealed)
		if err != nil {
			return nil, nil, err
		}
		if realArgs, err = wire.DecodeAll(wire.PackedCodec{}, plain); err != nil {
			return nil, nil, err
		}
	}
	if !g.policy.Allows(k.principal, op) {
		return nil, nil, fmt.Errorf("%w: %q may not %q", ErrForbidden, k.principal, op)
	}
	return realArgs, k, nil
}

// firstUse records that the credential (principal, nonce), which goes
// stale after unix millisecond expiry, was admitted at nowMs, and reports
// whether that was its first admission. A credential is remembered until
// it is stale: expiry is at least nowMs (the skew check passed), so its
// generation is never one of those dropped here.
func (g *Guard) firstUse(principal string, nonce uint64, expiry, nowMs int64) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	idx := expiry / g.skewMs
	gen := g.seen[idx]
	if gen == nil {
		// A generation opens about once per skew of traffic: the moment
		// to drop, whole, those whose span has passed.
		for old := range g.seen {
			if old < nowMs/g.skewMs {
				delete(g.seen, old)
			}
		}
		gen = make(map[string]map[uint64]uint64)
		g.seen[idx] = gen
	}
	words := gen[principal]
	if words == nil {
		words = make(map[uint64]uint64)
		gen[principal] = words
	}
	// A signer numbers its nonces in sequence, so 64 calls share a word;
	// random nonces cost a word each. The words hold no pointers, so the
	// collector does not scan them.
	w, bit := nonce>>6, uint64(1)<<(nonce&63)
	held := words[w]
	words[w] = held | bit
	return held&bit == 0
}

// principalKey is the context key carrying the authenticated principal,
// as a pointer to the principal's name in its key.
type principalKey struct{}

// PrincipalFrom extracts the authenticated principal, if any. Servants
// behind a guard use it for finer-grained decisions ("an application (or
// its guards) may choose to devolve some of the checking", §7.1).
func PrincipalFrom(ctx context.Context) (string, bool) {
	p, ok := ctx.Value(principalKey{}).(*string)
	if !ok {
		return "", false
	}
	return *p, true
}
