package core

import (
	"context"
	"fmt"

	"odp/internal/capsule"
	"odp/internal/rpc"
	"odp/internal/security"
	"odp/internal/wire"
)

// Outcome is the result of an interrogation: one of the operation's
// declared outcomes, carrying its package of results (§5.1).
type Outcome struct {
	// Name is the outcome name ("ok", "insufficient", ...).
	Name string
	// Results is the outcome's result package.
	Results []wire.Value
}

// Is reports whether the outcome has the given name.
func (o Outcome) Is(name string) bool { return o.Name == name }

// Result returns the i-th result, or nil when absent.
func (o Outcome) Result(i int) wire.Value {
	if i < 0 || i >= len(o.Results) {
		return nil
	}
	return o.Results[i]
}

// Int returns the i-th result as int64.
func (o Outcome) Int(i int) (int64, error) {
	v, ok := o.Result(i).(int64)
	if !ok {
		return 0, fmt.Errorf("core: result %d of %q is %T, not int", i, o.Name, o.Result(i))
	}
	return v, nil
}

// Str returns the i-th result as string.
func (o Outcome) Str(i int) (string, error) {
	v, ok := o.Result(i).(string)
	if !ok {
		return "", fmt.Errorf("core: result %d of %q is %T, not string", i, o.Name, o.Result(i))
	}
	return v, nil
}

// RefAt returns the i-th result as an interface reference.
func (o Outcome) RefAt(i int) (wire.Ref, error) {
	v, ok := o.Result(i).(wire.Ref)
	if !ok {
		return wire.Ref{}, fmt.Errorf("core: result %d of %q is %T, not ref", i, o.Name, o.Result(i))
	}
	return v, nil
}

// Proxy is a client-side binding to one interface: the computational
// model's view of "a reference to an ADT interface". Its methods are
// identical whether the interface is co-located, remote, replicated,
// migrating or passive — that is the point.
type Proxy struct {
	p      *Platform
	ref    wire.Ref
	signer *security.Signer
	// cfg is resolved at construction: invocation options are applied
	// once per proxy, not once per call, keeping Call allocation-free.
	cfg capsule.InvokeConfig
}

// Bind creates a proxy for ref.
func (p *Platform) Bind(ref wire.Ref) *Proxy {
	return &Proxy{p: p, ref: ref, cfg: capsule.DefaultInvokeConfig()}
}

// Ref returns the bound reference.
func (pr *Proxy) Ref() wire.Ref { return pr.ref }

// WithSigner returns a proxy that authenticates every invocation as the
// signer's principal.
func (pr *Proxy) WithSigner(s *security.Signer) *Proxy {
	cp := *pr
	cp.signer = s
	return &cp
}

// WithQoS returns a proxy with a default QoS constraint.
func (pr *Proxy) WithQoS(q rpc.QoS) *Proxy {
	cp := *pr
	cp.cfg.QoS = q
	return &cp
}

// Call performs an interrogation.
func (pr *Proxy) Call(ctx context.Context, op string, args ...wire.Value) (Outcome, error) {
	sendArgs, err := pr.sign(op, args)
	if err != nil {
		return Outcome{}, err
	}
	name, results, err := pr.p.binder.InvokeWith(ctx, pr.ref, op, sendArgs, pr.cfg)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{Name: name, Results: results}, nil
}

// Announce performs a request-only invocation.
func (pr *Proxy) Announce(op string, args ...wire.Value) error {
	return pr.AnnounceCtx(context.Background(), op, args...)
}

// AnnounceCtx is Announce with a caller context: an active span context
// in ctx makes the announcement part of the caller's trace. (Announce
// semantics are otherwise unchanged — the context does not make the
// announcement cancellable or fail-reporting.)
func (pr *Proxy) AnnounceCtx(ctx context.Context, op string, args ...wire.Value) error {
	sendArgs, err := pr.sign(op, args)
	if err != nil {
		return err
	}
	return pr.p.binder.AnnounceWith(ctx, pr.ref, op, sendArgs, pr.cfg)
}

// sign prepends the proxy's credential, if any, for either invocation
// kind, stamped from the platform's clock.
func (pr *Proxy) sign(op string, args []wire.Value) ([]wire.Value, error) {
	if pr.signer == nil {
		return args, nil
	}
	return pr.signer.WrapAt(pr.p.Clock().Now(), op, args)
}
