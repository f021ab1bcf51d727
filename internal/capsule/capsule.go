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

// Interceptor wraps a servant's dispatch path. Interceptors compose; the
// first installed is outermost.
type Interceptor func(next Servant) Servant

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
	chain   Servant // servant wrapped in its interceptors
}

// Capsule hosts servants on one endpoint.
type Capsule struct {
	name  string
	ep    transport.Batcher
	codec wire.Codec
	peer  *rpc.Peer

	mu        sync.RWMutex
	objects   map[string]*registration
	forwards  map[string]wire.Ref
	activator Activator
	closed    bool

	nextID atomic.Uint64

	// clk is the node's clock, read from ep: it stamps the bypass
	// latency histogram and paces busy backoff (virtual time under the
	// sim harness).
	clk clock.Clock
	// admission, when non-nil, enables per-client token-bucket admission
	// control on the capsule's server role.
	admission *rpc.AdmissionConfig
	// obs is the node's span collector, read from ep (nil: untraced):
	// used here to record the co-located bypass as a distinct span kind
	// so tests can assert which path an invocation took.
	obs *obs.Collector
	// bypassLat is the §4.5 direct-local-access latency distribution
	// (dispatch through the woven chain, argument cloning included).
	bypassLat obs.Histogram
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
		codec:    codec,
		clk:      ep.Clock(),
		obs:      ep.Observer(),
		objects:  make(map[string]*registration),
		forwards: make(map[string]wire.Ref),
	}
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
func (c *Capsule) Addr() string { return c.ep.Addr() }

// Codec returns the capsule's codec.
func (c *Capsule) Codec() wire.Codec { return c.codec }

// Clock returns the node's clock, the one its coalescer was built with.
func (c *Capsule) Clock() clock.Clock { return c.clk }

// Observer returns the node's span collector, nil when untraced.
func (c *Capsule) Observer() *obs.Collector { return c.obs }

// Client exposes the underlying protocol client for infrastructure that
// needs raw access (groups, interceptors).
func (c *Capsule) Client() *rpc.Client { return c.peer.Client }

// ServerStats exposes protocol server counters.
func (c *Capsule) ServerStats() rpc.ServerStats { return c.peer.Server.Stats() }

// DispatchLatency snapshots the protocol server's handler-execution
// latency histogram.
func (c *Capsule) DispatchLatency() obs.HistogramSnapshot {
	return c.peer.Server.DispatchLatency()
}

// BypassLatency snapshots the §4.5 co-located fast-path latency
// histogram.
func (c *Capsule) BypassLatency() obs.HistogramSnapshot {
	return c.bypassLat.Snapshot()
}

// Close shuts the capsule down, then drains and closes its endpoint.
func (c *Capsule) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
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
	chain := s
	// Signature checking sits at the servant boundary, inside every
	// interceptor: transparency mechanisms (guards stripping credentials,
	// transaction wrappers carrying control operations) legitimately see
	// a different argument shape than the application signature.
	if cfg.hasType {
		chain = typeChecked(cfg.id, cfg.typ, chain)
	}
	for i := len(cfg.interceptors) - 1; i >= 0; i-- {
		chain = cfg.interceptors[i](chain)
	}
	reg := &registration{servant: s, typ: cfg.typ, hasType: cfg.hasType, chain: chain}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return wire.Ref{}, ErrClosed
	}
	if _, exists := c.objects[cfg.id]; exists {
		return wire.Ref{}, fmt.Errorf("capsule: object %q already exported", cfg.id)
	}
	delete(c.forwards, cfg.id) // re-hosting clears any stale forward
	c.objects[cfg.id] = reg
	return wire.Ref{
		ID:        cfg.id,
		TypeName:  cfg.typ.Name,
		Endpoints: []string{c.ep.Addr()},
	}, nil
}

// Unexport withdraws an interface. Subsequent invocations yield
// rpc.ErrNoObject at the caller.
func (c *Capsule) Unexport(id string) {
	c.mu.Lock()
	delete(c.objects, id)
	c.mu.Unlock()
}

// SetForward installs a forwarding reference for a departed interface
// (migration, §5.5): invokers receive the new location and rebind.
func (c *Capsule) SetForward(id string, to wire.Ref) {
	c.mu.Lock()
	delete(c.objects, id)
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
	c.mu.RLock()
	defer c.mu.RUnlock()
	reg, ok := c.objects[id]
	if !ok {
		return nil, false
	}
	return reg.servant, true
}

// Hosts reports whether id is currently exported here.
func (c *Capsule) Hosts(id string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.objects[id]
	return ok
}

// Objects returns the ids of all exported interfaces.
func (c *Capsule) Objects() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ids := make([]string, 0, len(c.objects))
	for id := range c.objects {
		ids = append(ids, id)
	}
	return ids
}

// handle is the rpc server handler: the dispatcher of §5.1. The
// arguments own their storage, so they cross to the servant as they
// are. The objID and op strings may alias the request packet (a clone
// per call would be an allocation per call): Servant's doc limits op to
// the duration of Dispatch, and the one path that retains objID (the
// activator) clones its own copy in dispatchLocal.
func (c *Capsule) handle(ctx context.Context, in *rpc.Incoming) (string, []wire.Value, error) {
	return c.dispatchLocal(ctx, in.ObjID, in.Op, in.Args)
}

// tryLocal is the co-located fast path: one registry lookup under one
// read lock, then direct dispatch — no codec, no transport, no protocol
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
	c.mu.RLock()
	reg, ok := c.objects[objID]
	closed := c.closed
	c.mu.RUnlock()
	if closed {
		return "", nil, ErrClosed, true
	}
	if !ok {
		return "", nil, nil, false
	}
	// The bypass span is the trace-level evidence that the §4.5
	// optimisation fired: a traced co-located invocation shows this kind
	// where a remote one shows rpc.send/rpc.dispatch. Nested invocations
	// the servant makes parent under it.
	var sp *obs.Span
	if c.obs != nil {
		if sp = c.obs.BeginChild(obs.FromContext(ctx), obs.KindBypass, op); sp != nil {
			ctx = obs.ContextWith(ctx, sp.Context())
		}
	}
	began := c.clk.Now()
	outcome, results, err = reg.chain.Dispatch(ctx, op, wire.CloneArgs(args))
	c.bypassLat.Observe(c.clk.Since(began))
	c.obs.End(sp)
	return outcome, wire.CloneArgs(results), err, true
}

// dispatchLocal runs an invocation against a hosted object.
func (c *Capsule) dispatchLocal(ctx context.Context, objID, op string, args []wire.Value) (string, []wire.Value, error) {
	c.mu.RLock()
	reg, ok := c.objects[objID]
	fwd, fok := c.forwards[objID]
	activator := c.activator
	closed := c.closed
	c.mu.RUnlock()
	if closed {
		return "", nil, ErrClosed
	}
	if !ok && fok {
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
			c.mu.RLock()
			reg, ok = c.objects[objID]
			c.mu.RUnlock()
		}
	}
	if !ok {
		return "", nil, rpc.ErrNoObject
	}
	return reg.chain.Dispatch(ctx, op, args)
}

// typeChecked wraps a servant with early signature checking (§4.3): the
// argument vector is verified before the behaviour runs, the outcome and
// its result package on the way out. Operation names containing "!" are
// the reserved infrastructure namespace (transaction control "t!...",
// group ordering "g!...", migration "m!...") and pass through unchecked —
// they are envelopes of the engineering model, not operations of the
// application signature.
func typeChecked(objID string, typ types.Type, next Servant) Servant {
	return ServantFunc(func(ctx context.Context, op string, args []wire.Value) (string, []wire.Value, error) {
		if strings.ContainsRune(op, '!') {
			return next.Dispatch(ctx, op, args)
		}
		opSig, found := typ.Ops[op]
		if !found {
			return "", nil, fmt.Errorf("capsule: interface %q has no operation %q", objID, op)
		}
		if err := types.CheckArgs(opSig, args); err != nil {
			return "", nil, fmt.Errorf("capsule: %s.%s: %w", objID, op, err)
		}
		outcome, results, err := next.Dispatch(ctx, op, args)
		if err != nil {
			return "", nil, err
		}
		if !opSig.Announcement {
			if cerr := types.CheckOutcome(opSig, outcome, results); cerr != nil {
				return "", nil, fmt.Errorf("capsule: %s.%s: %w", objID, op, cerr)
			}
		}
		return outcome, results, nil
	})
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

// ResolveInvokeOptions applies opts to the default configuration.
func ResolveInvokeOptions(opts ...InvokeOption) InvokeConfig {
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
	if len(opts) == 0 {
		// The common case takes the no-allocation path: resolving options
		// pins the config to the heap (the closures take its address).
		return c.InvokeWith(ctx, ref, op, args, DefaultInvokeConfig())
	}
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
			return c.dispatchLocal(ctx, ref.ID, op, wire.CloneArgs(args))
		}
		return "", nil, ErrNoEndpoint
	}
	var lastErr error
	for _, ep := range ref.Endpoints {
		var outcome string
		var results []wire.Value
		var err error
		if ep == c.ep.Addr() && !cfg.ForceRemote {
			// Not plainly hosted (tryLocal declined) but addressed to this
			// capsule: run the full local dispatcher so forwarding and
			// activation apply, still under by-copy discipline.
			outcome, results, err = c.dispatchLocal(ctx, ref.ID, op, wire.CloneArgs(args))
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
	if len(opts) == 0 {
		return c.AnnounceWith(ref, op, args, DefaultInvokeConfig())
	}
	return c.AnnounceWith(ref, op, args, ResolveInvokeOptions(opts...))
}

// AnnounceWith is Announce with a pre-resolved configuration.
func (c *Capsule) AnnounceWith(ref wire.Ref, op string, args []wire.Value, cfg InvokeConfig) error {
	return c.AnnounceCtxWith(context.Background(), ref, op, args, cfg)
}

// AnnounceCtxWith is AnnounceWith with a caller context: a span context
// carried by ctx flows to the announcee (group relays pass their handler
// context here, so relay fan-out joins the originating trace). An
// untraced top-level announcement on a tracing node roots a new trace,
// subject to the sampling knob.
func (c *Capsule) AnnounceCtxWith(ctx context.Context, ref wire.Ref, op string, args []wire.Value, cfg InvokeConfig) error {
	var root *obs.Span
	if c.obs != nil && !obs.FromContext(ctx).Valid() {
		if root = c.obs.Begin(obs.KindStub, op); root != nil {
			ctx = obs.ContextWith(ctx, root.Context())
		}
	}
	err := c.announceWith(ctx, ref, op, args, cfg)
	c.obs.End(root)
	return err
}

func (c *Capsule) announceWith(ctx context.Context, ref wire.Ref, op string, args []wire.Value, cfg InvokeConfig) error {
	if !cfg.ForceRemote && c.Hosts(ref.ID) {
		// Spawn a new activity, as announcement semantics require. The
		// copy is taken before the goroutine starts: the caller owns its
		// argument slice again the moment Announce returns. CloneArgs
		// aliases all-scalar vectors (safe while the caller is blocked,
		// wrong for a detached activity), so force a fresh slice header.
		sent := wire.CloneArgs(args)
		if len(args) != 0 && &sent[0] == &args[0] {
			sent = append(make([]wire.Value, 0, len(args)), args...)
		}
		// The detached activity gets a fresh lifetime (announcements
		// outlive their caller) but keeps the span context, so the
		// spawned dispatch still lands in the originating trace.
		dctx := context.Background()
		if c.obs != nil {
			if sc := obs.FromContext(ctx); sc.Valid() {
				dctx = obs.ContextWith(dctx, sc)
			}
		}
		go func() {
			_, _, _ = c.dispatchLocal(dctx, ref.ID, op, sent)
		}()
		return nil
	}
	if len(ref.Endpoints) == 0 {
		return ErrNoEndpoint
	}
	return c.peer.Client.AnnounceCtx(ctx, ref.Endpoints[0], ref.ID, op, args, cfg.QoS)
}
