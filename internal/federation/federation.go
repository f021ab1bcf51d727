// Package federation implements federation transparency (§5.6, §4.2).
//
// "For a technology boundary the interceptor must stand on the boundary
// itself and translate between the two domains. The translation may be
// simple conversion, or it may be that the interceptor has to set up
// proxy objects in each domain that stand as representatives of objects
// on the other side of the boundary. For an administrative boundary the
// interception may occur within the interacting computers themselves,
// checking permissions and exchanging administrative data."
//
// A Gateway owns one capsule in each domain. The domains are genuinely
// separate: different transport fabrics (no direct route exists) and,
// typically, different codecs — so every crossing really is re-marshalled
// between technologies. Interface references that cross the boundary are
// replaced by proxies exported on the gateway's capsule in the receiving
// domain, context-qualified with the gateway's name so context-relative
// naming (§6) stays resolvable. An admission policy is evaluated on every
// crossing, and crossings are accounted.
package federation

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"odp/internal/capsule"
	"odp/internal/obs"
	"odp/internal/rpc"
	"odp/internal/wire"
)

// Side names one side of the boundary.
type Side int

// Sides of the gateway.
const (
	// SideA is the gateway's first domain.
	SideA Side = iota + 1
	// SideB is the gateway's second domain.
	SideB
)

// String implements fmt.Stringer.
func (s Side) String() string {
	if s == SideA {
		return "A"
	}
	return "B"
}

func (s Side) other() Side {
	if s == SideA {
		return SideB
	}
	return SideA
}

// Policy authorises one crossing: an invocation of op arriving on side
// from, destined for target on the other side. Returning an error refuses
// the crossing (the caller sees rpc.ErrDenied).
type Policy func(from Side, target wire.Ref, op string) error

// AllowAll is the open-boundary policy.
func AllowAll(Side, wire.Ref, string) error { return nil }

// Stats counts boundary crossings.
type Stats struct {
	AtoB    uint64
	BtoA    uint64
	Refused uint64
	Proxies uint64
}

// Gateway is a federation interceptor between two domains.
type Gateway struct {
	// stats is counted in place with atomic.AddUint64; first, so its
	// words are 64-bit aligned on 32-bit platforms too.
	stats Stats

	name   string
	caps   map[Side]*capsule.Capsule
	policy Policy

	mu      sync.Mutex
	nextID  uint64
	targets map[string]proxyTarget // proxy objID -> target on other side
	existed map[string]wire.Ref    // side+targetID -> proxy ref (dedupe)
}

// proxyTarget records where a proxy forwards to.
type proxyTarget struct {
	ref  wire.Ref // real reference, valid on `side`
	side Side     // the side the TARGET lives on
}

// New creates a gateway named name with a capsule in each domain. The
// capsules' codecs may differ — translation between them is exactly the
// gateway's job.
func New(name string, a, b *capsule.Capsule, policy Policy) *Gateway {
	if policy == nil {
		policy = AllowAll
	}
	return &Gateway{
		name:    name,
		caps:    map[Side]*capsule.Capsule{SideA: a, SideB: b},
		policy:  policy,
		targets: make(map[string]proxyTarget),
		existed: make(map[string]wire.Ref),
	}
}

// Name returns the gateway's context name.
func (g *Gateway) Name() string { return g.name }

// Stats returns a snapshot of crossing counters.
func (g *Gateway) Stats() Stats { return obs.Load(&g.stats) }

// Export makes target — a reference valid on targetSide — invokable from
// the other side, returning the proxy reference to hand out there. The
// proxy is context-qualified with the gateway's name.
func (g *Gateway) Export(target wire.Ref, targetSide Side) (wire.Ref, error) {
	return g.proxyFor(target, targetSide)
}

// proxyFor creates (or reuses) the proxy on the side opposite targetSide.
func (g *Gateway) proxyFor(target wire.Ref, targetSide Side) (wire.Ref, error) {
	proxySide := targetSide.other()
	key := proxySide.String() + "|" + target.ID
	g.mu.Lock()
	if ref, ok := g.existed[key]; ok {
		g.mu.Unlock()
		return ref, nil
	}
	g.nextID++
	objID := g.name + "/proxy-" + strconv.FormatUint(g.nextID, 10)
	g.targets[objID] = proxyTarget{ref: target, side: targetSide}
	g.mu.Unlock()

	hostCap := g.caps[proxySide]
	ref, err := hostCap.Export(
		capsule.ServantFunc(func(ctx context.Context, op string, args []wire.Value) (string, []wire.Value, error) {
			return g.cross(ctx, objID, proxySide, op, args)
		}),
		capsule.WithID(objID))
	if err != nil {
		return wire.Ref{}, err
	}
	ref.TypeName = target.TypeName
	ref = ref.WithContext(g.name)
	g.mu.Lock()
	g.existed[key] = ref
	g.mu.Unlock()
	atomic.AddUint64(&g.stats.Proxies, 1)
	return ref, nil
}

// cross forwards one invocation across the boundary.
func (g *Gateway) cross(ctx context.Context, proxyID string, fromSide Side, op string, args []wire.Value) (string, []wire.Value, error) {
	g.mu.Lock()
	target, ok := g.targets[proxyID]
	g.mu.Unlock()
	if !ok {
		return "", nil, rpc.ErrNoObject
	}
	if err := g.policy(fromSide, target.ref, op); err != nil {
		atomic.AddUint64(&g.stats.Refused, 1)
		return "", nil, fmt.Errorf("%w: federation policy: %v", rpc.ErrDenied, err)
	}
	if fromSide == SideA {
		atomic.AddUint64(&g.stats.AtoB, 1)
	} else {
		atomic.AddUint64(&g.stats.BtoA, 1)
	}
	// Arguments cross from fromSide to the target's side: proxy any
	// references they carry.
	mappedArgs, err := g.mapValues(args, fromSide)
	if err != nil {
		return "", nil, err
	}
	outcome, results, err := g.caps[target.side].Invoke(ctx, target.ref, op, mappedArgs)
	if err != nil {
		return "", nil, err
	}
	// Results cross back.
	mappedResults, err := g.mapValues(results, target.side)
	if err != nil {
		return "", nil, err
	}
	return outcome, mappedResults, nil
}

// mapValues rewrites every interface reference in vals as it crosses from
// side `from` to the other side: references to objects on `from` get a
// proxy on the other side; references that are themselves proxies for
// objects on the other side unwrap to the originals.
func (g *Gateway) mapValues(vals []wire.Value, from Side) ([]wire.Value, error) {
	if len(vals) == 0 {
		return vals, nil
	}
	out := make([]wire.Value, len(vals))
	for i, v := range vals {
		mv, err := g.mapValue(v, from)
		if err != nil {
			return nil, err
		}
		out[i] = mv
	}
	return out, nil
}

func (g *Gateway) mapValue(v wire.Value, from Side) (wire.Value, error) {
	switch t := v.(type) {
	case wire.Ref:
		// Unwrap our own proxies instead of double-proxying.
		g.mu.Lock()
		target, isProxy := g.targets[t.ID]
		g.mu.Unlock()
		if isProxy && target.side == from.other() {
			return target.ref, nil
		}
		return g.proxyFor(t, from)
	case wire.List:
		out := make(wire.List, len(t))
		for i, e := range t {
			me, err := g.mapValue(e, from)
			if err != nil {
				return nil, err
			}
			out[i] = me
		}
		return out, nil
	case wire.Record:
		out := make(wire.Record, len(t))
		for k, e := range t {
			me, err := g.mapValue(e, from)
			if err != nil {
				return nil, err
			}
			out[k] = me
		}
		return out, nil
	default:
		return v, nil
	}
}

// Errors returned by gateways.
var (
	// ErrNoProxy reports an unknown proxy id.
	ErrNoProxy = errors.New("federation: no such proxy")
)
