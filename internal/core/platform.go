// Package core implements the paper's primary contribution: the ODP
// computational model (§4.4) and the engineering-model transparency
// weaver (§4.5).
//
// The computational model is deliberately minimal: state is reached only
// through references to ADT interfaces; interaction is interrogation or
// announcement; arguments and results are values or references. An
// application declares the qualities it needs from its environment as an
// Env — environment constraints, in the paper's words — "rather than
// mixing application code with calls to low-level system procedures".
//
// The weaver (Publish) is the automated tool of §4.5: it reads the Env
// and links the corresponding transparency mechanisms into the access
// path of the exported interface — a guard for security, a generated
// concurrency-control manager for atomicity, an interaction log for
// recoverability, lease tracking for collection, instrumentation for
// management — so that "transparency requirements can be processed
// automatically". Transparency is selective: an empty Env weaves
// nothing and costs nothing (experiment E15).
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"odp/internal/capsule"
	"odp/internal/clock"
	"odp/internal/gc"
	"odp/internal/mgmt"
	"odp/internal/migrate"
	"odp/internal/naming"
	"odp/internal/obs"
	"odp/internal/rpc"
	"odp/internal/security"
	"odp/internal/storage"
	"odp/internal/trader"
	"odp/internal/transport"
	"odp/internal/txn"
	"odp/internal/types"
	"odp/internal/wire"
)

// Platform bundles one capsule with every engineering-model service the
// weaver may need: the node a programmer gets by joining an ODP system.
type Platform struct {
	// Capsule is the underlying execution capsule.
	Capsule *capsule.Capsule
	// Store is the node's stable storage.
	Store storage.Store
	// Locks is the node's shared concurrency-control manager.
	Locks *txn.LockManager
	// Registry gathers management metrics.
	Registry *mgmt.Registry
	// Agent is the node's management interface.
	Agent *mgmt.Agent
	// Collector is the node's garbage collector.
	Collector *gc.Collector
	// Mover is the node's migration/passivation/recovery host.
	Mover *migrate.Host
	// Keys holds the node's shared secrets.
	Keys *security.Keyring
	// Types is the node's type manager.
	Types *types.Manager
	// Trader is non-nil when this node hosts a trading service.
	Trader *trader.Trader
	// Coordinator begins distributed transactions from this node.
	Coordinator *txn.Coordinator

	// RelocTable is non-nil when this node hosts the relocation service.
	RelocTable *naming.Table
	// RelocRef locates the relocation service (local or remote).
	RelocRef wire.Ref

	binder *naming.Binder
	// coalescer wraps the node's endpoint; the capsule closes it. It holds
	// the node's clock and span collector, and every layer above reads
	// them from there.
	coalescer *transport.Coalescer
	// recorder is non-nil when WithRecorder (or WithFlightRecorder)
	// enabled periodic Gather sampling; the platform owns it and Close
	// stops it.
	recorder *obs.Recorder
	// flight is non-nil when WithFlightRecorder armed SLO rules against
	// the recorder.
	flight *obs.FlightRecorder
	// domain is the administrative-domain tag set by WithDomain; empty
	// for untagged nodes.
	domain string
	// statsSources are extra contributors to Gather registered after
	// construction (replica-group members, application subsystems).
	srcMu        sync.Mutex
	statsSources []func(wire.Record)
	// published holds what Publish built for each movable object, so every
	// later incarnation of it gets the same path (reweave). A record stays
	// when its object leaves: the object may come back.
	pubMu     sync.Mutex
	published map[string]*published
}

// platformConfig collects construction options.
type platformConfig struct {
	codec         wire.Codec
	store         storage.Store
	lockWait      time.Duration
	gcGrace       time.Duration
	relocator     wire.Ref
	hostRelocator bool
	traderContext string
	traderOpts    []trader.TraderOption
	capsuleOpts   []capsule.Option
	clk           clock.Clock
	tracing       bool
	obsOpts       []obs.CollectorOption
	domain        string
	recInterval   time.Duration
	sloRules      []obs.Rule
}

// Option configures NewPlatform.
type Option func(*platformConfig)

// WithCodec selects the node's network data representation (default
// packed). Every frame the node sends or accepts is in it.
func WithCodec(c wire.Codec) Option {
	return func(cfg *platformConfig) { cfg.codec = c }
}

// WithStore supplies stable storage (default in-memory).
func WithStore(s storage.Store) Option {
	return func(cfg *platformConfig) { cfg.store = s }
}

// WithRelocator points the node at an existing relocation service. The
// default hosts one locally.
func WithRelocator(ref wire.Ref) Option {
	return func(cfg *platformConfig) { cfg.relocator = ref; cfg.hostRelocator = false }
}

// WithTrader hosts a trading service on this node under the given
// federation context name.
func WithTrader(contextName string) Option {
	return func(cfg *platformConfig) { cfg.traderContext = contextName }
}

// WithTraderFederationQoS sets the per-hop QoS base for federated trader
// imports: each link traversal gets q.Timeout scaled by its remaining
// hop budget (so hops near the importer outlive their downstream chain)
// and retransmits at q.Retransmit. Swarm simulations tighten this so a
// partitioned domain costs milliseconds of virtual time, not the default
// invocation timeout.
func WithTraderFederationQoS(q rpc.QoS) Option {
	return func(cfg *platformConfig) {
		cfg.traderOpts = append(cfg.traderOpts, trader.WithFederationQoS(q))
	}
}

// WithLockWait bounds transactional lock waits.
func WithLockWait(d time.Duration) Option {
	return func(cfg *platformConfig) { cfg.lockWait = d }
}

// WithGCGrace sets the collector's activity grace window.
func WithGCGrace(d time.Duration) Option {
	return func(cfg *platformConfig) { cfg.gcGrace = d }
}

// WithDomain tags the node with the administrative domain it belongs to
// (the paper's §6 federation domains). The tag rides in Gather under
// "domain" and keys the per-domain rollups of GatherDomains.
func WithDomain(name string) Option {
	return func(cfg *platformConfig) { cfg.domain = name }
}

// WithClock drives every time-dependent subsystem of the node — RPC
// timeouts and retransmission, reply-cache lifecycle, lock-wait bounds,
// lease expiry, management timestamps, replica-group failure detection —
// from one injected clock. With a clock.Fake shared across nodes and the
// netsim fabric, the whole platform runs in virtual time (the sim
// harness). The one exception is the security guard, which checks
// credential freshness on the wall clock: a credential is stamped in the
// principal's process, whose clock the node does not share. Default: the
// wall clock.
func WithClock(c clock.Clock) Option {
	return func(cfg *platformConfig) { cfg.clk = c }
}

// WithAdmission enables per-client token-bucket admission control on
// the node's server dispatch path: inbound invocations beyond a
// client's budget are shed with rpc.ErrServerBusy (and over-budget
// announcements dropped) instead of queueing without bound. Admission
// is a node-level property of the server's environment, not a
// per-object Env constraint — the budget is per *client*, spanning
// every interface the node hosts. Clients opt into automatic backoff
// per invocation with capsule.WithBusyRetry. Rejects surface in Gather
// as rpc.server.admission_rejects / admission_drops.
func WithAdmission(cfg rpc.AdmissionConfig) Option {
	return func(pc *platformConfig) {
		pc.capsuleOpts = append(pc.capsuleOpts, capsule.WithAdmission(cfg))
	}
}

// WithTracing installs a channel-level span collector (see obs): the
// binder roots invocation traces, and the capsule, protocol peer and
// coalescer record the spans of every channel object an invocation
// traverses. The collector runs on the platform clock, so a simulated
// node produces virtual-time spans. Collection is off until sampling is
// enabled — pass obs.WithSampleEvery (or retune at run time through the
// management parameter "obs.sample_every"); unsampled invocations cost
// nothing measurable (0 added allocations, gated by test).
func WithTracing(opts ...obs.CollectorOption) Option {
	return func(cfg *platformConfig) {
		cfg.tracing = true
		cfg.obsOpts = append(cfg.obsOpts, opts...)
	}
}

// WithRecorder enables the metrics time series: a clock-driven recorder
// samples the node's Gather snapshot every interval into a bounded ring
// (obs.Recorder), from which the management "series" op derives rates —
// invocations_per_sec, admission_rejects_per_sec — that a single
// snapshot cannot answer. On a simulated node the recorder runs in
// virtual time. interval <= 0 means the recorder default (one second).
func WithRecorder(interval time.Duration) Option {
	return func(cfg *platformConfig) { cfg.recInterval = interval }
}

// WithFlightRecorder arms service-level objectives (obs.CeilingRule,
// obs.StallRule) against the node's recorder samples: on a breach the
// flight recorder captures a black-box report — triggering rule, the
// breaching window's counter deltas, the last spans — into a bounded
// ring served by the management "blackbox" op. Implies WithRecorder;
// pass that too to choose the sampling interval.
func WithFlightRecorder(rules ...obs.Rule) Option {
	return func(cfg *platformConfig) { cfg.sloRules = append(cfg.sloRules, rules...) }
}

// NewPlatform assembles a node on ep, wrapped in a write coalescer
// (transport.Coalescer) that Close flushes and closes, and with it ep.
func NewPlatform(name string, ep transport.Endpoint, opts ...Option) (*Platform, error) {
	cfg := platformConfig{
		codec:         wire.PackedCodec{},
		hostRelocator: true,
	}
	for _, o := range opts {
		if o != nil { // a nil Option does nothing
			o(&cfg)
		}
	}
	if cfg.store == nil {
		cfg.store = storage.NewMemStore()
	}
	if cfg.clk == nil {
		cfg.clk = clock.Real{}
	}
	p := &Platform{
		Store:     cfg.store,
		Locks:     txn.NewLockManager(cfg.lockWait, cfg.clk),
		Registry:  mgmt.NewRegistry(cfg.clk),
		Keys:      security.NewKeyring(),
		Types:     types.NewManager(),
		domain:    cfg.domain,
		published: make(map[string]*published),
	}
	var col *obs.Collector
	if cfg.tracing {
		// The node name keys the deterministic span-id base.
		col = obs.NewCollector(name, cfg.clk, cfg.obsOpts...)
	}
	p.coalescer = transport.NewCoalescer(ep, cfg.clk, col)
	p.Capsule = capsule.New(name, p.coalescer, cfg.codec, cfg.capsuleOpts...)
	p.Coordinator = txn.NewCoordinator(p.Capsule, cfg.store)

	var err error
	if p.Agent, err = mgmt.NewAgent(p.Capsule, p.Registry); err != nil {
		return nil, fmt.Errorf("core: management agent: %w", err)
	}
	if p.Collector, err = gc.New(p.Capsule, cfg.gcGrace); err != nil {
		return nil, fmt.Errorf("core: collector: %w", err)
	}
	if cfg.hostRelocator {
		table, ref, err := naming.ExportRelocator(p.Capsule)
		if err != nil {
			return nil, fmt.Errorf("core: relocator: %w", err)
		}
		p.RelocTable = table
		p.RelocRef = ref
	} else {
		p.RelocRef = cfg.relocator
	}
	var registrar migrate.Registrar
	if p.RelocTable != nil {
		registrar = p.RelocTable
	} else {
		registrar = &remoteRegistrar{p: p}
	}
	if p.Mover, err = migrate.NewHost(p.Capsule, cfg.store, registrar, p.reweave); err != nil {
		return nil, fmt.Errorf("core: migration host: %w", err)
	}
	if cfg.traderContext != "" {
		if p.Trader, err = trader.New(cfg.traderContext, p.Capsule, p.Types, cfg.traderOpts...); err != nil {
			return nil, fmt.Errorf("core: trader: %w", err)
		}
		// The trader joins the unified Gather namespace like any other
		// subsystem: per-shard offer counts, snapshot freshness and
		// import counters land under "trader." for odptop.
		tr := p.Trader
		p.AddStatsSource(func(rec wire.Record) {
			obs.Fold(rec, "trader", tr.Stats())
			obs.FoldLatency(rec, "trader.import", tr.ImportLatency())
		})
	}
	p.binder = naming.NewBinder(p.Capsule, p.RelocRef)

	// The management interface serves the unified snapshot on every node
	// and, on tracing nodes, the span ring plus the sampling knob.
	p.Agent.SetGather(p.Gather)
	if col != nil {
		p.Agent.SetSpans(func() wire.List { return obs.SpansToList(col.Snapshot()) })
		p.Agent.RegisterParam("obs.sample_every", mgmt.Param{
			Get: func() wire.Value { return col.SampleEvery() },
			Set: func(v wire.Value) error {
				switch n := v.(type) {
				case uint64:
					col.SetSampleEvery(n)
				case int64:
					if n < 0 {
						return fmt.Errorf("core: obs.sample_every must be >= 0, got %d", n)
					}
					col.SetSampleEvery(uint64(n))
				default:
					return fmt.Errorf("core: obs.sample_every wants an integer, got %T", v)
				}
				return nil
			},
		})
	}

	// The recorder samples Gather, so it starts last: every subsystem it
	// will snapshot is already assembled, and the flight recorder's hook
	// is attached before the first sample can fire.
	if cfg.recInterval > 0 || len(cfg.sloRules) > 0 {
		p.recorder = obs.NewRecorder(p.Gather, cfg.recInterval, cfg.clk)
		if len(cfg.sloRules) > 0 {
			p.flight = obs.NewFlightRecorder(p.recorder, col, cfg.sloRules)
			fl := p.flight
			p.Agent.SetBlackbox(fl.ReportsList)
		}
		rec := p.recorder
		p.Agent.SetSeries(rec.Series)
		p.recorder.Start()
	}
	return p, nil
}

// Observer returns the platform's span collector, nil unless the node
// was built WithTracing.
func (p *Platform) Observer() *obs.Collector { return p.coalescer.Observer() }

// Recorder returns the platform's metrics recorder, nil unless the node
// was built WithRecorder or WithFlightRecorder.
func (p *Platform) Recorder() *obs.Recorder { return p.recorder }

// Flight returns the platform's flight recorder, nil unless the node
// was built WithFlightRecorder.
func (p *Platform) Flight() *obs.FlightRecorder { return p.flight }

// Domain reports the administrative-domain tag set by WithDomain, empty
// for untagged nodes.
func (p *Platform) Domain() string { return p.domain }

// AddStatsSource registers an extra contributor to Gather: fn is called
// with the record under assembly and may add any keys. Infrastructure
// built on top of the platform (replica groups, application services)
// uses this to join the unified namespace.
func (p *Platform) AddStatsSource(fn func(wire.Record)) {
	p.srcMu.Lock()
	p.statsSources = append(p.statsSources, fn)
	p.srcMu.Unlock()
}

// Gather folds every subsystem's counters into one wire record: the
// unified introspection snapshot served by the management interface's
// "gather" op. Registry counters and gauges keep their "c."/"g."
// prefixes under "registry."; everything else is named
// <subsystem>.<snake_case_field> by obs.Fold.
func (p *Platform) Gather() wire.Record {
	rec := wire.Record{}
	if p.domain != "" {
		rec["domain"] = p.domain
	}
	obs.Fold(rec, "rpc.client", p.Capsule.Client().Stats())
	obs.Fold(rec, "rpc.server", p.Capsule.ServerStats())
	obs.Fold(rec, "binder", p.binder.Stats())
	obs.FoldLatency(rec, "rpc.client.call", p.Capsule.Client().CallLatency())
	obs.FoldLatency(rec, "rpc.server.dispatch", p.Capsule.DispatchLatency())
	obs.FoldLatency(rec, "capsule.bypass", p.Capsule.BypassLatency())
	obs.FoldLatency(rec, "binder.resolve", p.binder.ResolveLatency())
	obs.Fold(rec, "transport.coalescer", p.coalescer.BatchStats())
	obs.FoldLatency(rec, "transport.coalescer.flush_delay", p.coalescer.FlushDelay())
	rec["gc.collected"] = p.Collector.Collected()
	rec["gc.renewals"] = p.Collector.Renewals()
	if col := p.coalescer.Observer(); col != nil {
		obs.Fold(rec, "obs", col.Stats())
	}
	if p.flight != nil {
		obs.Fold(rec, "blackbox", p.flight.Stats())
	}
	for k, v := range p.Registry.Snapshot() {
		rec["registry."+k] = v
	}
	p.srcMu.Lock()
	sources := p.statsSources
	p.srcMu.Unlock()
	for _, fn := range sources {
		fn(rec)
	}
	return rec
}

// Close shuts the platform down. The recorder stops first (no samples
// during teardown); the capsule then closes, and with it the coalescer
// and the wrapped endpoint.
func (p *Platform) Close() error {
	if p.recorder != nil {
		p.recorder.Close()
	}
	return p.Capsule.Close()
}

// Clock returns the node's clock.
func (p *Platform) Clock() clock.Clock { return p.coalescer.Clock() }

// BatchStats reports the node's write-coalescing counters.
func (p *Platform) BatchStats() transport.CoalescerStats {
	return p.coalescer.BatchStats()
}

// Invoke performs an interrogation through the platform's binder:
// location transparency (relocation recovery) is applied automatically.
func (p *Platform) Invoke(ctx context.Context, ref wire.Ref, op string, args []wire.Value, opts ...capsule.InvokeOption) (string, []wire.Value, error) {
	return p.binder.Invoke(ctx, ref, op, args, opts...)
}

// InvokeWith is Invoke with a pre-resolved configuration — the
// per-proxy hot path, which applies no per-call options.
func (p *Platform) InvokeWith(ctx context.Context, ref wire.Ref, op string, args []wire.Value, cfg capsule.InvokeConfig) (string, []wire.Value, error) {
	return p.binder.InvokeWith(ctx, ref, op, args, cfg)
}

// Announce performs a request-only invocation.
func (p *Platform) Announce(ref wire.Ref, op string, args []wire.Value) error {
	return p.Capsule.Announce(ref, op, args)
}

// AnnounceCtx is Announce with a caller context, so announcements made
// inside a traced invocation join its span tree.
func (p *Platform) AnnounceCtx(ctx context.Context, ref wire.Ref, op string, args []wire.Value) error {
	return p.Capsule.AnnounceCtxWith(ctx, ref, op, args, capsule.DefaultInvokeConfig())
}

// BinderStats exposes binder counters (experiment E7).
func (p *Platform) BinderStats() naming.BinderStats {
	return p.binder.Stats()
}

// remoteRegistrar registers relocations at a remote relocation service.
type remoteRegistrar struct {
	p *Platform
}

// Register implements migrate.Registrar.
func (r *remoteRegistrar) Register(ref wire.Ref) {
	_, _, err := r.p.Capsule.Invoke(context.Background(), r.p.RelocRef, "register",
		[]wire.Value{ref}, capsule.WithQoS(rpc.QoS{Timeout: rpc.DefaultTimeout}))
	if err != nil {
		r.p.Registry.Log("relocation registration failed: " + err.Error())
	}
}

// Errors returned by the weaver.
var (
	// ErrEnvConflict reports an unsatisfiable environment constraint
	// combination.
	ErrEnvConflict = errors.New("core: conflicting environment constraints")
	// ErrNeedsSnapshot reports a constraint requiring state capture on a
	// servant that cannot snapshot.
	ErrNeedsSnapshot = errors.New("core: constraint requires a servant that can snapshot")
)
