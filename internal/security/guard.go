package security

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"odp/internal/capsule"
	"odp/internal/clock"
	"odp/internal/rpc"
	"odp/internal/wire"
)

// Signer produces credentials on behalf of one principal.
type Signer struct {
	principal string
	secret    []byte
	// Seal encrypts argument payloads (confidentiality in addition to
	// integrity).
	Seal bool

	nonce atomic.Uint64
	now   func() time.Time
}

// NewSigner creates a signer for principal with its shared secret.
func NewSigner(principal string, secret []byte) *Signer {
	s := &Signer{principal: principal, now: clock.Real{}.Now}
	s.secret = make([]byte, len(secret))
	copy(s.secret, secret)
	// Start nonces at a random-ish point so two incarnations of the same
	// principal do not collide in the guard's replay window.
	var seed [8]byte
	if _, err := timeSeed(seed[:]); err == nil {
		s.nonce.Store(deBytes(seed[:]))
	}
	return s
}

// Wrap prepends a credential to args for an invocation of op. When
// sealing, the arguments are replaced entirely by the encrypted payload
// inside the credential.
func (s *Signer) Wrap(op string, args []wire.Value) ([]wire.Value, error) {
	nonce := s.nonce.Add(1)
	ts := s.now().UnixMilli()
	payload, err := wire.EncodeAll(wire.PackedCodec{}, args)
	if err != nil {
		return nil, err
	}
	c := credential{principal: s.principal, nonce: nonce, unixMilli: ts}
	if s.Seal {
		sealed, err := seal(s.secret, payload)
		if err != nil {
			return nil, err
		}
		c.sealed = sealed
		c.mac = macOver(s.secret, s.principal, nonce, ts, op, sealed)
		return []wire.Value{encodeCredential(c)}, nil
	}
	c.mac = macOver(s.secret, s.principal, nonce, ts, op, payload)
	out := make([]wire.Value, 0, len(args)+1)
	out = append(out, encodeCredential(c))
	out = append(out, args...)
	return out, nil
}

// Invoke is the authenticated invocation helper: wrap, invoke, done.
func (s *Signer) Invoke(ctx context.Context, c *capsule.Capsule, ref wire.Ref, op string, args []wire.Value, opts ...capsule.InvokeOption) (string, []wire.Value, error) {
	wrapped, err := s.Wrap(op, args)
	if err != nil {
		return "", nil, err
	}
	return c.Invoke(ctx, ref, op, wrapped, opts...)
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
	keys     *Keyring
	policy   Policy
	maxSkew  time.Duration
	now      func() time.Time
	mu       sync.Mutex
	seen     map[string]map[uint64]int64 // principal -> nonce -> expiry ms
	statsMu  sync.Mutex
	stats    GuardStats
	lastScan time.Time
}

// NewGuard generates a guard from a declarative policy and the object's
// shared secrets. maxSkew bounds credential age (default 30s).
func NewGuard(keys *Keyring, policy Policy, maxSkew time.Duration) *Guard {
	if maxSkew <= 0 {
		maxSkew = 30 * time.Second
	}
	return &Guard{
		keys:    keys,
		policy:  policy,
		maxSkew: maxSkew,
		now:     clock.Real{}.Now,
		seen:    make(map[string]map[uint64]int64),
	}
}

// Stats returns a snapshot of guard counters.
func (g *Guard) Stats() GuardStats {
	g.statsMu.Lock()
	defer g.statsMu.Unlock()
	return g.stats
}

// AsInterceptor returns the guard as a capsule interceptor.
func (g *Guard) AsInterceptor() capsule.Interceptor {
	return func(next capsule.Servant) capsule.Servant {
		return capsule.ServantFunc(func(ctx context.Context, op string, args []wire.Value) (string, []wire.Value, error) {
			realArgs, principal, err := g.Admit(op, args)
			if err != nil {
				g.count(func(s *GuardStats) { s.Rejected++ })
				return "", nil, fmt.Errorf("%w: %v", rpc.ErrDenied, err)
			}
			g.count(func(s *GuardStats) { s.Admitted++ })
			return next.Dispatch(WithPrincipal(ctx, principal), op, realArgs)
		})
	}
}

// count updates guard counters.
func (g *Guard) count(update func(*GuardStats)) {
	g.statsMu.Lock()
	update(&g.stats)
	g.statsMu.Unlock()
}

// Admit verifies the credential at args[0] and evaluates the policy,
// returning the application arguments and the authenticated principal.
func (g *Guard) Admit(op string, args []wire.Value) ([]wire.Value, string, error) {
	if len(args) == 0 {
		return nil, "", fmt.Errorf("%w: no credential", ErrBadCredential)
	}
	c, err := decodeCredential(args[0])
	if err != nil {
		return nil, "", err
	}
	secret, ok := g.keys.secret(c.principal)
	if !ok {
		return nil, "", fmt.Errorf("%w: %q", ErrUnknownPrincipal, c.principal)
	}
	nowMs := g.now().UnixMilli()
	if diff := nowMs - c.unixMilli; diff > g.maxSkew.Milliseconds() || diff < -g.maxSkew.Milliseconds() {
		return nil, "", fmt.Errorf("%w: %dms skew", ErrStale, diff)
	}
	var (
		realArgs []wire.Value
		payload  []byte
	)
	if c.sealed != nil {
		payload = c.sealed
	} else {
		realArgs = args[1:]
		if payload, err = wire.EncodeAll(wire.PackedCodec{}, realArgs); err != nil {
			return nil, "", err
		}
	}
	want := macOver(secret, c.principal, c.nonce, c.unixMilli, op, payload)
	if !macEqual(want, c.mac) {
		return nil, "", ErrBadMAC
	}
	// Replay window.
	if err := g.checkReplay(c.principal, c.nonce, nowMs); err != nil {
		g.count(func(s *GuardStats) { s.Replays++ })
		return nil, "", err
	}
	if c.sealed != nil {
		plain, err := unseal(secret, c.sealed)
		if err != nil {
			return nil, "", err
		}
		if realArgs, err = wire.DecodeAll(wire.PackedCodec{}, plain); err != nil {
			return nil, "", err
		}
	}
	if !g.policy.Allows(c.principal, op) {
		return nil, "", fmt.Errorf("%w: %q may not %q", ErrForbidden, c.principal, op)
	}
	return realArgs, c.principal, nil
}

func (g *Guard) checkReplay(principal string, nonce uint64, nowMs int64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	window := g.seen[principal]
	if window == nil {
		window = make(map[uint64]int64)
		g.seen[principal] = window
	}
	if _, dup := window[nonce]; dup {
		return ErrReplay
	}
	window[nonce] = nowMs + g.maxSkew.Milliseconds()
	// Periodic scavenge of expired nonces.
	if now := g.now(); now.Sub(g.lastScan) > g.maxSkew {
		g.lastScan = now
		for p, w := range g.seen {
			for n, exp := range w {
				if exp < nowMs {
					delete(w, n)
				}
			}
			if len(w) == 0 {
				delete(g.seen, p)
			}
		}
	}
	return nil
}

func macEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	var diff byte
	for i := range a {
		diff |= a[i] ^ b[i]
	}
	return diff == 0
}

// timeSeed fills b with a random seed (not secret; only de-collides
// nonce sequences across restarts of the same principal).
func timeSeed(b []byte) (int, error) {
	return cryptoRead(b)
}

// principalKey is the context key carrying the authenticated principal.
type principalKey struct{}

// WithPrincipal records the authenticated principal in ctx.
func WithPrincipal(ctx context.Context, principal string) context.Context {
	return context.WithValue(ctx, principalKey{}, principal)
}

// PrincipalFrom extracts the authenticated principal, if any. Servants
// behind a guard use it for finer-grained decisions ("an application (or
// its guards) may choose to devolve some of the checking", §7.1).
func PrincipalFrom(ctx context.Context) (string, bool) {
	p, ok := ctx.Value(principalKey{}).(string)
	return p, ok
}

// deBytes interprets 8 bytes as a uint64.
func deBytes(b []byte) uint64 {
	var v uint64
	for _, x := range b {
		v = v<<8 | uint64(x)
	}
	return v
}
