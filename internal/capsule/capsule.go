// Package capsule implements the engineering-model execution node.
//
// A capsule is an address space hosting ADT implementations (servants)
// behind interface references. It provides:
//
//   - the binder/dispatcher of §5.1: inbound invocations are routed to the
//     servant named by the reference, with early signature checking
//     ("early type checking reduces the risks of unpredictable behaviour",
//     §4.3);
//   - server-side interceptor chains, the hook by which transparency
//     mechanisms are "linked into the access path to an interface so that
//     effects due to distribution are filtered" (§4.5);
//   - the client-side invocation path with the §4.5 engineering
//     optimisation of direct local access for co-located interfaces;
//   - forwarding state for relocated interfaces (§5.4) and an activation
//     hook by which passive objects are transparently reinstated (§5.5);
//   - the node manager of §6, which recreates a node's default servers
//     after restart and advertises them.
package capsule

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"odp/internal/clock"
	"odp/internal/obs"
	"odp/internal/rpc"
	"odp/internal/transport"
	"odp/internal/types"
	"odp/internal/wire"
)

// Servant is the executable body of an ADT implementation: "the
// procedures provided by the server give access to a data structure"
// (§4.1). Dispatch must be safe for concurrent use — "concurrency is the
// norm in a distributed system" (§4.1).
//
// Ownership: args is the servant's own copy (§4.4) and may be kept.
// Keeping any part of a decoded message keeps that message's slabs, as
// a Go substring keeps its string: a servant that keeps a sliver of a
// large message copies it out with strings.Clone/bytes.Clone. op is not
// the servant's — it may alias the request packet and is valid only for
// the duration of Dispatch; a servant that retains it clones it first
// (strings.Clone).
type Servant interface {
	Dispatch(ctx context.Context, op string, args []wire.Value) (outcome string, results []wire.Value, err error)
}

// ServantFunc adapts a function to the Servant interface.
type ServantFunc func(ctx context.Context, op string, args []wire.Value) (string, []wire.Value, error)

// Dispatch implements Servant.
func (f ServantFunc) Dispatch(ctx context.Context, op string, args []wire.Value) (string, []wire.Value, error) {
	return f(ctx, op, args)
}

// Invocation is one call as a woven dispatch path hands it from link to
// link: the operation, its arguments, At, the dispatch instant, and Span,
// the span context the link runs under. At is read once from the node's
// clock where the dispatch began (the rpc server's or the co-located
// path's stage), so a mechanism that needs "now" on the way in — a
// guard's freshness check, a lease stamp, the Managed stage's start —
// reads it here instead of the clock; each stage on the path opens its
// span under Span and hands its own on, so an unsampled call looks up no
// context. It travels by value: the path allocates no carrier.
type Invocation struct {
	Op   string
	Args []wire.Value
	At   time.Time
	Span obs.SpanContext
}

// Link is one stage of a woven dispatch path.
type Link func(ctx context.Context, inv Invocation) (outcome string, results []wire.Value, err error)

// Interceptor wraps a dispatch path. Interceptors compose; the first
// installed is outermost.
type Interceptor func(next Link) Link

// Activator reinstates a passive object on demand (resource transparency,
// §5.5). On success it must Export the object (typically with its own
// interceptors) under objID on this capsule and return found=true; the
// dispatcher then re-reads its registry and proceeds. found=false means
// the object is unknown to this activator.
type Activator func(objID string) (found bool, err error)

// Errors returned by capsules.
var (
	// ErrNotLocal reports that an object is not hosted by this capsule.
	ErrNotLocal = errors.New("capsule: object not hosted here")
	// ErrNoEndpoint reports a reference with no reachable endpoint.
	ErrNoEndpoint = errors.New("capsule: no reachable endpoint in reference")
	// ErrClosed reports use of a closed capsule.
	ErrClosed = errors.New("capsule: closed")
)

// registration is one exported interface.
type registration struct {
	servant Servant
	typ     types.Type
	hasType bool
	// chain is the servant wrapped in its type check and interceptors;
	// nil when it has neither, and the dispatcher calls the servant.
	chain Link
}

// Capsule hosts servants on one endpoint.
type Capsule struct {
	name  string
	ep    transport.Batcher
	addr  string // ep's address, which every invocation compares against
	codec wire.Codec
	peer  *rpc.Peer

	// objects (id → *registration) is read by every frame without a lock.
	// mu serializes its writers with forwards and activator, which only a
	// miss reads, under mu.
	mu        sync.RWMutex
	objects   sync.Map
	forwards  map[string]wire.Ref
	activator Activator
	closed    atomic.Bool

	nextID atomic.Uint64

	// clk is the node's clock, read from ep: it stamps the bypass
	// latency histogram and paces busy backoff (virtual time under the
	// sim harness).
	clk clock.Clock
	// admission, when non-nil, enables per-client token-bucket admission
	// control on the capsule's server role.
	admission *rpc.AdmissionConfig
	// bypass is the §4.5 direct-local-access stage, timed on every call
	// (dispatch through the woven chain, argument cloning included): its
	// span kind lets a test assert which path an invocation took.
	bypass obs.Stage
}

// Option configures a capsule.
type Option func(*Capsule)

// WithAdmission enables per-client token-bucket admission control on
// the capsule's server role: inbound invocations beyond a client's
// budget are shed with rpc.ErrServerBusy instead of queueing. Clients
// opt into automatic backoff with WithBusyRetry.
func WithAdmission(cfg rpc.AdmissionConfig) Option {
	return func(c *Capsule) { c.admission = &cfg }
}

// New creates a capsule on ep, a coalescing endpoint that Close closes.
// The capsule, its protocol peer and everything built on the capsule run
// on ep's clock and record into ep's span collector. name scopes
// generated object identifiers.
func New(name string, ep transport.Batcher, codec wire.Codec, opts ...Option) *Capsule {
	c := &Capsule{
		name:     name,
		ep:       ep,
		addr:     ep.Addr(),
		codec:    codec,
		clk:      ep.Clock(),
		forwards: make(map[string]wire.Ref),
	}
	c.bypass.Init(obs.KindBypass, ep.Observer(), c.clk, true)
	for _, o := range opts {
		o(c)
	}
	var sopts []rpc.ServerOption
	if c.admission != nil {
		sopts = append(sopts, rpc.WithAdmission(*c.admission))
	}
	c.peer = rpc.NewPeer(ep, codec, c.handle, sopts...)
	return c
}

// Name returns the capsule's name.
func (c *Capsule) Name() string { return c.name }

// Addr returns the capsule's transport address.
func (c *Capsule) Addr() string { return c.addr }

// Codec returns the capsule's codec.
func (c *Capsule) Codec() wire.Codec { return c.codec }

// Clock returns the node's clock, the one its coalescer was built with.
func (c *Capsule) Clock() clock.Clock { return c.clk }

// Observer returns the node's span collector, nil when untraced.
func (c *Capsule) Observer() *obs.Collector { return c.ep.Observer() }

// Client exposes the underlying protocol client for infrastructure that
// needs raw access (groups, interceptors).
func (c *Capsule) Client() *rpc.Client { return c.peer.Client }

// ServerStats exposes protocol server counters.
func (c *Capsule) ServerStats() rpc.ServerStats { return c.peer.Server.Stats() }

// DispatchLatency snapshots each frame's server time on its delivery
// (see rpc.Server.DispatchLatency).
func (c *Capsule) DispatchLatency() obs.HistogramSnapshot {
	return c.peer.Server.DispatchLatency()
}

// BypassLatency snapshots the §4.5 co-located fast-path latency
// histogram.
func (c *Capsule) BypassLatency() obs.HistogramSnapshot {
	return c.bypass.Latency()
}

// Close shuts the capsule down, then drains and closes its endpoint.
func (c *Capsule) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	err := c.peer.Close()
	if cerr := c.ep.Close(); err == nil {
		err = cerr
	}
	return err
}

// ExportOption configures one export.
type ExportOption func(*exportConfig)

type exportConfig struct {
	id           string
	typ          types.Type
	hasType      bool
	interceptors []Interceptor
}

// WithID fixes the exported object's identifier instead of generating
// one. Used when re-activating or re-hosting an existing interface so its
// references stay valid.
func WithID(id string) ExportOption {
	return func(cfg *exportConfig) { cfg.id = id }
}

// WithType attaches an interface type, enabling signature checking and
// carrying the type name in the reference.
func WithType(t types.Type) ExportOption {
	return func(cfg *exportConfig) { cfg.typ = t; cfg.hasType = true }
}

// WithInterceptors installs transparency interceptors around the servant.
// The first is outermost.
func WithInterceptors(is ...Interceptor) ExportOption {
	return func(cfg *exportConfig) { cfg.interceptors = append(cfg.interceptors, is...) }
}

// Export publishes a servant, returning its interface reference.
func (c *Capsule) Export(s Servant, opts ...ExportOption) (wire.Ref, error) {
	var cfg exportConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.id == "" {
		cfg.id = c.name + "/obj-" + strconv.FormatUint(c.nextID.Add(1), 10)
	}
	// Signature checking sits at the servant boundary, inside every
	// interceptor: transparency mechanisms (guards stripping credentials,
	// transaction wrappers carrying control operations) legitimately see
	// a different argument shape than the application signature.
	var chain Link
	switch {
	case cfg.hasType:
		chain = typeChecked(cfg.id, cfg.typ, s)
	case len(cfg.interceptors) > 0:
		chain = func(ctx context.Context, inv Invocation) (string, []wire.Value, error) {
			return s.Dispatch(ctx, inv.Op, inv.Args)
		}
	}
	for i := len(cfg.interceptors) - 1; i >= 0; i-- {
		chain = cfg.interceptors[i](chain)
	}
	reg := &registration{servant: s, typ: cfg.typ, hasType: cfg.hasType, chain: chain}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return wire.Ref{}, ErrClosed
	}
	if _, exists := c.objects.Load(cfg.id); exists {
		return wire.Ref{}, fmt.Errorf("capsule: object %q already exported", cfg.id)
	}
	delete(c.forwards, cfg.id) // re-hosting clears any stale forward
	c.objects.Store(cfg.id, reg)
	return wire.Ref{
		ID:        cfg.id,
		TypeName:  cfg.typ.Name,
		Endpoints: []string{c.addr},
	}, nil
}

// Unexport withdraws an interface. Subsequent invocations yield
// rpc.ErrNoObject at the caller.
func (c *Capsule) Unexport(id string) {
	c.mu.Lock()
	c.objects.Delete(id)
	c.mu.Unlock()
}

// SetForward installs a forwarding reference for a departed interface
// (migration, §5.5): invokers receive the new location and rebind.
func (c *Capsule) SetForward(id string, to wire.Ref) {
	c.mu.Lock()
	c.objects.Delete(id)
	c.forwards[id] = to
	c.mu.Unlock()
}

// SetActivator installs the passive-object activation hook.
func (c *Capsule) SetActivator(a Activator) {
	c.mu.Lock()
	c.activator = a
	c.mu.Unlock()
}

// Lookup returns the servant registered under id, for infrastructure that
// must reach the implementation directly (e.g. snapshotting for
// migration).
func (c *Capsule) Lookup(id string) (Servant, bool) {
	v, ok := c.objects.Load(id)
	if !ok {
		return nil, false
	}
	return v.(*registration).servant, true
}

// Hosts reports whether id is currently exported here.
func (c *Capsule) Hosts(id string) bool {
	_, ok := c.objects.Load(id)
	return ok
}

// Objects returns the ids of all exported interfaces.
func (c *Capsule) Objects() []string {
	var ids []string
	c.objects.Range(func(id, _ any) bool {
		ids = append(ids, id.(string))
		return true
	})
	return ids
}

// handle is the rpc server handler: the dispatcher of §5.1. The
// arguments own their storage, so they cross to the servant as they
// are. The objID and op strings may alias the request packet (a clone
// per call would be an allocation per call): Servant's doc limits op to
// the duration of Dispatch, and the one path that retains objID (the
// activator) clones its own copy in dispatchLocal.
func (c *Capsule) handle(ctx context.Context, in *rpc.Incoming) (string, []wire.Value, error) {
	outcome, results, err := c.dispatchLocal(ctx, in.ObjID, Invocation{Op: in.Op, Args: in.Args, At: in.At, Span: in.Span})
	if err != nil && in.Announcement {
		c.followForward(ctx, err, in.Op, in.Args)
	}
	return outcome, results, err
}

// followForward re-announces to the forward an announcement whose object
// left (§5.4): no reply can carry the MovedError, or the re-announcement's
// error, to the announcer. Export clears a re-hosted id's forward, so a
// forward chain cannot cycle. op may alias the request packet, and the
// re-announcement may be detached.
func (c *Capsule) followForward(ctx context.Context, err error, op string, args []wire.Value) {
	var moved *rpc.MovedError
	if errors.As(err, &moved) {
		_ = c.AnnounceCtxWith(ctx, moved.Forward, strings.Clone(op), args, DefaultInvokeConfig())
	}
}

// tryLocal is the co-located fast path: one registry lookup, taking no
// lock, then direct dispatch — no codec, no transport, no protocol
// state. handled is false when the object is not plainly hosted here
// (absent, forwarded, or pending activation), in which case the caller
// falls back to the full path, whose slow-path handling is unchanged.
//
// Access transparency demands that the caller cannot tell a co-located
// servant from a remote one, and the remote path passes every argument
// through the codec — by copy (§4.4). The fast path preserves that with
// wire.CloneArgs, which deep-copies only mutable values: an all-scalar
// vector crosses for free, which is the §4.5 "direct local access"
// optimisation in its full form.
func (c *Capsule) tryLocal(ctx context.Context, objID, op string, args []wire.Value) (outcome string, results []wire.Value, err error, handled bool) {
	if c.closed.Load() {
		return "", nil, ErrClosed, true
	}
	v, ok := c.objects.Load(objID)
	if !ok {
		return "", nil, nil, false
	}
	// The bypass span is the trace-level evidence that the §4.5
	// optimisation fired: a traced co-located invocation shows this kind
	// where a remote one shows rpc.send/rpc.dispatch. Nested invocations
	// the servant makes parent under it.
	ctx, st := c.bypass.Begin(ctx, obs.SpanContext{}, op, time.Time{})
	outcome, results, err = v.(*registration).dispatch(ctx, Invocation{Op: op, Args: wire.CloneArgs(args), At: st.At, Span: st.Span})
	c.bypass.End(st, err)
	return outcome, wire.CloneArgs(results), err, true
}

// dispatchLocal runs inv against a hosted object. A hit takes no lock; a
// miss reads the forward and the activator, and the object again, under
// mu, so a concurrent SetForward is seen as one step.
func (c *Capsule) dispatchLocal(ctx context.Context, objID string, inv Invocation) (string, []wire.Value, error) {
	if c.closed.Load() {
		return "", nil, ErrClosed
	}
	v, ok := c.objects.Load(objID)
	if !ok {
		c.mu.RLock()
		v, ok = c.objects.Load(objID)
		fwd, fok := c.forwards[objID]
		activator := c.activator
		c.mu.RUnlock()
		if fok {
			return "", nil, &rpc.MovedError{Forward: fwd}
		}
		if !ok && activator != nil {
			// The id may alias transport storage (zero-copy dispatch), and
			// activators retain ids — Export keeps them as registry keys —
			// so they get a private copy. Activation instantiates an
			// object; the clone is noise on that path.
			found, err := activator(strings.Clone(objID))
			if err != nil {
				return "", nil, err
			}
			if found {
				v, ok = c.objects.Load(objID)
			}
		}
		if !ok {
			return "", nil, rpc.ErrNoObject
		}
	}
	return v.(*registration).dispatch(ctx, inv)
}

// dispatch runs inv through the woven chain, or straight into a servant
// that has none.
func (r *registration) dispatch(ctx context.Context, inv Invocation) (string, []wire.Value, error) {
	if r.chain == nil {
		return r.servant.Dispatch(ctx, inv.Op, inv.Args)
	}
	return r.chain(ctx, inv)
}

// typeChecked wraps a servant with early signature checking (§4.3): the
// argument vector is verified before the behaviour runs, the outcome and
// its result package on the way out. Operation names containing "!" are
// the reserved infrastructure namespace (transaction control "t!...",
// group ordering "g!...", migration "m!...") and pass through unchecked —
// they are envelopes of the engineering model, not operations of the
// application signature.
func typeChecked(objID string, typ types.Type, s Servant) Link {
	return func(ctx context.Context, inv Invocation) (string, []wire.Value, error) {
		op, args := inv.Op, inv.Args
		if strings.ContainsRune(op, '!') {
			return s.Dispatch(ctx, op, args)
		}
		opSig, found := typ.Ops[op]
		if !found {
			return "", nil, fmt.Errorf("capsule: interface %q has no operation %q", objID, op)
		}
		if err := types.CheckArgs(opSig, args); err != nil {
			return "", nil, fmt.Errorf("capsule: %s.%s: %w", objID, op, err)
		}
		outcome, results, err := s.Dispatch(ctx, op, args)
		if err != nil {
			return "", nil, err
		}
		if !opSig.Announcement {
			if cerr := types.CheckOutcome(opSig, outcome, results); cerr != nil {
				return "", nil, fmt.Errorf("capsule: %s.%s: %w", objID, op, cerr)
			}
		}
		return outcome, results, nil
	}
}

// InvokeOption configures one client-side invocation.
type InvokeOption func(*InvokeConfig)

// InvokeConfig is the resolved form of a set of InvokeOptions. Callers
// that invoke repeatedly with the same options (proxies, binders) should
// resolve once with ResolveInvokeOptions and use InvokeWith/AnnounceWith:
// applying closure options forces a heap allocation per call, resolved
// configs travel by value.
type InvokeConfig struct {
	// QoS is the communications quality-of-service constraint.
	QoS rpc.QoS
	// ForceRemote disables the direct-local-access optimisation.
	ForceRemote bool
	// MaxForwards bounds forwarding-reference hops.
	MaxForwards int
	// BusyRetries bounds automatic retries when the server sheds the
	// invocation under admission control (rpc.ErrServerBusy). Zero — the
	// default — surfaces the error to the caller on first rejection.
	BusyRetries int
	// BusyBackoff is the wait before the first busy retry, doubling per
	// attempt; each retry is a fresh call id, so it re-enters admission.
	BusyBackoff time.Duration
}

// DefaultInvokeConfig is the configuration of an option-less invocation.
func DefaultInvokeConfig() InvokeConfig {
	return InvokeConfig{MaxForwards: 3}
}

// ResolveInvokeOptions applies opts to the default configuration; with
// none it allocates nothing (an option takes the config's address).
func ResolveInvokeOptions(opts ...InvokeOption) InvokeConfig {
	if len(opts) == 0 {
		return DefaultInvokeConfig()
	}
	cfg := DefaultInvokeConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithQoS sets the communications quality-of-service constraint.
func WithQoS(q rpc.QoS) InvokeOption {
	return func(cfg *InvokeConfig) { cfg.QoS = q }
}

// ForceRemote disables the direct-local-access optimisation for this
// invocation, pushing it through the full protocol stack.
func ForceRemote() InvokeOption {
	return func(cfg *InvokeConfig) { cfg.ForceRemote = true }
}

// WithBusyRetry retries an invocation shed by server admission control
// up to retries times, backing off exponentially from backoff.
func WithBusyRetry(retries int, backoff time.Duration) InvokeOption {
	return func(cfg *InvokeConfig) {
		cfg.BusyRetries = retries
		cfg.BusyBackoff = backoff
	}
}

// Invoke performs an interrogation on ref. Co-located interfaces are
// dispatched directly (unless ForceRemote); remote ones go through the
// invocation protocol, trying each endpoint in preference order and
// following up to three forwarding hops.
func (c *Capsule) Invoke(ctx context.Context, ref wire.Ref, op string, args []wire.Value, opts ...InvokeOption) (string, []wire.Value, error) {
	return c.InvokeWith(ctx, ref, op, args, ResolveInvokeOptions(opts...))
}

// InvokeWith is Invoke with a pre-resolved configuration: the repeated-
// invocation hot path.
func (c *Capsule) InvokeWith(ctx context.Context, ref wire.Ref, op string, args []wire.Value, cfg InvokeConfig) (string, []wire.Value, error) {
	if !cfg.ForceRemote {
		if outcome, results, err, handled := c.tryLocal(ctx, ref.ID, op, args); handled {
			return outcome, results, err
		}
	}
	if len(ref.Endpoints) == 0 {
		if c.Hosts(ref.ID) { // local, and forced off the direct path
			return c.dispatchLocal(ctx, ref.ID, Invocation{Op: op, Args: wire.CloneArgs(args), At: c.clk.Now(), Span: obs.FromContext(ctx)})
		}
		return "", nil, ErrNoEndpoint
	}
	var lastErr error
	for _, ep := range ref.Endpoints {
		var outcome string
		var results []wire.Value
		var err error
		if ep == c.addr && !cfg.ForceRemote {
			// Not plainly hosted (tryLocal declined) but addressed to this
			// capsule: run the full local dispatcher so forwarding and
			// activation apply, still under by-copy discipline.
			outcome, results, err = c.dispatchLocal(ctx, ref.ID, Invocation{Op: op, Args: wire.CloneArgs(args), At: c.clk.Now(), Span: obs.FromContext(ctx)})
		} else {
			outcome, results, err = c.peer.Client.Call(ctx, ep, ref.ID, op, args, cfg.QoS)
			// A busy reply is the server shedding load (admission
			// control): back off and re-offer the call if the caller
			// opted in. Each retry mints a fresh call id, so it passes
			// through admission again against a refilled bucket.
			for attempt := 0; attempt < cfg.BusyRetries &&
				errors.Is(err, rpc.ErrServerBusy) && c.backoff(ctx, cfg.BusyBackoff<<attempt); attempt++ {
				outcome, results, err = c.peer.Client.Call(ctx, ep, ref.ID, op, args, cfg.QoS)
			}
		}
		if err == nil {
			return outcome, results, nil
		}
		var moved *rpc.MovedError
		if errors.As(err, &moved) && cfg.MaxForwards > 0 {
			next := cfg
			next.MaxForwards--
			return c.InvokeWith(ctx, moved.Forward, op, args, next)
		}
		lastErr = err
		if errors.Is(err, rpc.ErrDenied) || ctx.Err() != nil {
			break // no point trying other endpoints
		}
	}
	return "", nil, lastErr
}

// backoff waits d on the node's clock, so busy backoff runs in virtual
// time under the sim harness, and reports false, at once, when ctx ends
// first: a caller's deadline bounds its backoff too (§5.2).
func (c *Capsule) backoff(ctx context.Context, d time.Duration) bool {
	if ctx.Err() != nil {
		return false
	}
	if d <= 0 {
		return true
	}
	t := c.clk.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C():
		return true
	case <-ctx.Done():
		return false
	}
}

// Announce performs a request-only invocation on ref (§5.1).
func (c *Capsule) Announce(ref wire.Ref, op string, args []wire.Value, opts ...InvokeOption) error {
	return c.AnnounceWith(ref, op, args, ResolveInvokeOptions(opts...))
}

// AnnounceWith is Announce with a pre-resolved configuration.
func (c *Capsule) AnnounceWith(ref wire.Ref, op string, args []wire.Value, cfg InvokeConfig) error {
	return c.AnnounceCtxWith(context.Background(), ref, op, args, cfg)
}

// AnnounceCtxWith is AnnounceWith with a caller context, whose span
// context flows to the announcee. The capsule never roots a trace; the
// binder's stub does (naming.Binder.AnnounceWith).
//
// An announcement for an object hosted here, or addressed to this capsule
// (a forwarded or passive id), runs detached through the local
// dispatcher, as InvokeWith runs an interrogation: no encode, no fabric
// hop to the capsule's own address.
func (c *Capsule) AnnounceCtxWith(ctx context.Context, ref wire.Ref, op string, args []wire.Value, cfg InvokeConfig) error {
	if !cfg.ForceRemote && (c.Hosts(ref.ID) || len(ref.Endpoints) > 0 && ref.Endpoints[0] == c.addr) {
		// Spawn a new activity, as announcement semantics require, on a
		// copy: the caller owns args again once Announce returns, and
		// CloneArgs aliases an all-scalar vector, so force a fresh header.
		sent := wire.CloneArgs(args)
		if len(args) != 0 && &sent[0] == &args[0] {
			sent = append(make([]wire.Value, 0, len(args)), args...)
		}
		// The activity outlives its caller but keeps the span context, so
		// its dispatch lands in the originating trace.
		dctx, inv := context.Background(), Invocation{Op: op, Args: sent, Span: obs.FromContext(ctx)}
		if inv.Span.Valid() {
			dctx = obs.ContextWith(dctx, inv.Span)
		}
		go func(inv Invocation) {
			inv.At = c.clk.Now()
			if _, _, err := c.dispatchLocal(dctx, ref.ID, inv); err != nil {
				c.followForward(dctx, err, op, sent)
			}
		}(inv)
		return nil
	}
	if len(ref.Endpoints) == 0 {
		return ErrNoEndpoint
	}
	return c.peer.Client.AnnounceCtx(ctx, ref.Endpoints[0], ref.ID, op, args, cfg.QoS)
}
