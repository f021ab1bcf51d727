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
	// Registry is the node's management event log.
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
	// recorder is non-nil when WithRecorder or WithFlightRecorder
	// enabled periodic metrics sampling (and armed its rules); the
	// platform owns it and Close stops it.
	recorder *obs.Recorder
	// domain is the administrative-domain tag set by WithDomain; empty
	// for untagged nodes.
	domain string
	// metricsMu guards what metrics reads besides the layers: the stage
	// of each woven mechanism kind and of each Managed metric prefix,
	// which every object's path shares, the guards Publish made (whose
	// refusals the guard stage's errors do not tell from a servant's),
	// and the extra contributors registered after construction.
	metricsMu    sync.Mutex
	stages       map[stageKey]*obs.Stage
	guards       []*security.Guard
	statsSources []func(*obs.Metrics)
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
// harness). The security guard judges credential freshness at the
// dispatch instant read from this clock, and a proxy stamps its
// credentials from it, so nodes in one virtual time admit each other's
// calls. Default: the wall clock.
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
// (obs.Recorder) samples the node's typed metrics every interval and
// keeps the previous and the current sample, from which the management
// "series" op derives rates — invocations_per_sec,
// admission_rejects_per_sec — that a single snapshot cannot answer. On a
// simulated node the recorder runs in virtual time. interval <= 0 means
// the recorder default (one second).
func WithRecorder(interval time.Duration) Option {
	return func(cfg *platformConfig) { cfg.recInterval = interval }
}

// WithFlightRecorder arms service-level objectives (obs.CeilingRule,
// obs.StallRule) that the recorder evaluates on every sample, in the
// same pass: on a breach it captures a black-box report — triggering
// rule, the breaching window's counter deltas, the last spans — into a
// bounded ring served by the management "blackbox" op, and Gather gains
// the blackbox.* counters. Implies WithRecorder; pass that too to choose
// the sampling interval.
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
		stages:    make(map[stageKey]*obs.Stage),
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

	// The recorder samples the typed snapshot and evaluates the armed
	// rules in the same pass; it is built here so the management agent
	// can serve it, and sampling starts last, once every subsystem exists.
	if cfg.recInterval > 0 || len(cfg.sloRules) > 0 {
		p.recorder = obs.NewRecorder(p.metrics, cfg.recInterval, cfg.clk, col, cfg.sloRules)
	}
	src := mgmt.Sources{Gather: p.Gather}
	if col != nil {
		src.Spans = func() wire.List { return obs.SpansToList(col.Snapshot()) }
	}
	if p.recorder != nil {
		src.Series = p.recorder.Series
		src.Blackbox = p.recorder.ReportsList
	}
	var err error
	if p.Agent, err = mgmt.NewAgent(p.Capsule, p.Registry, src); err != nil {
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
		p.AddStatsSource(func(m *obs.Metrics) {
			obs.Fold(m, "trader", tr.Stats())
			m.Latency["trader.import"] = tr.ImportLatency()
		})
	}
	p.binder = naming.NewBinder(p.Capsule, p.RelocRef)

	// A tracing node's management interface also serves the sampling
	// knob.
	if col != nil {
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

	if p.recorder != nil {
		p.recorder.Start()
	}
	return p, nil
}

// Observer returns the platform's span collector, nil unless the node
// was built WithTracing.
func (p *Platform) Observer() *obs.Collector { return p.coalescer.Observer() }

// Domain reports the administrative-domain tag set by WithDomain, empty
// for untagged nodes.
func (p *Platform) Domain() string { return p.domain }

// AddStatsSource registers an extra contributor to Gather: fn is called
// with the node's snapshot under assembly and may add any metric.
// Infrastructure built on top of the platform (replica groups,
// application services) uses this to join the unified namespace.
func (p *Platform) AddStatsSource(fn func(*obs.Metrics)) {
	p.metricsMu.Lock()
	p.statsSources = append(p.statsSources, fn)
	p.metricsMu.Unlock()
}

// stageKey names one of the node's mechanism stages: a woven mechanism's
// span kind, or a Managed metric prefix (kind "").
type stageKey struct{ kind, prefix string }

// stage wraps ic in the node's stage of key, made on first use and
// shared by every object's path. A mechanism's stage opens its span under
// the invocation's and hands its own inward; a Managed prefix's (ic nil)
// has no span — its interval is the dispatch's or the bypass's — and is
// timed from the dispatch instant.
func (p *Platform) stage(key stageKey, ic capsule.Interceptor) capsule.Interceptor {
	p.metricsMu.Lock()
	st := p.stages[key]
	if st == nil {
		st = new(obs.Stage)
		st.Init(key.kind, p.Observer(), p.Clock(), ic == nil)
		p.stages[key] = st
	}
	p.metricsMu.Unlock()
	return func(next capsule.Link) capsule.Link {
		if ic != nil {
			next = ic(next)
		}
		return func(ctx context.Context, inv capsule.Invocation) (string, []wire.Value, error) {
			at := inv.At
			if ic != nil {
				at = time.Time{} // a mechanism's span starts where it is entered
			}
			ctx, step := st.Begin(ctx, inv.Span, inv.Op, at)
			inv.Span = step.Span
			outcome, results, err := next(ctx, inv)
			st.End(step, err)
			return outcome, results, err
		}
	}
}

// metrics assembles the node's typed snapshot, which Gather exports and
// the recorder samples: every layer's stats folded by obs.Fold, the
// channel stages' latency histograms, the woven mechanisms' stages under
// their kinds, the Managed prefixes' under "registry." and whatever the
// registered sources add. A stage appears once it has counted a call.
func (p *Platform) metrics() *obs.Metrics {
	m := obs.NewMetrics()
	obs.Fold(m, "rpc.client", p.Capsule.Client().Stats())
	obs.Fold(m, "rpc.server", p.Capsule.ServerStats())
	obs.Fold(m, "binder", p.binder.Stats())
	obs.Fold(m, "gc", p.Collector.Stats())
	obs.Fold(m, "transport.coalescer", p.coalescer.BatchStats())
	m.Latency["rpc.client.call"] = p.Capsule.Client().CallLatency()
	m.Latency["rpc.server.dispatch"] = p.Capsule.DispatchLatency()
	m.Latency["capsule.bypass"] = p.Capsule.BypassLatency()
	m.Latency["binder.resolve"] = p.binder.ResolveLatency()
	m.Latency["transport.coalescer.flush_delay"] = p.coalescer.FlushDelay()
	if col := p.coalescer.Observer(); col != nil {
		obs.Fold(m, "obs", col.Stats())
	}
	if p.recorder != nil {
		if st := p.recorder.Stats(); st.Rules > 0 {
			obs.Fold(m, "blackbox", st)
		}
	}
	p.metricsMu.Lock()
	for key, st := range p.stages {
		switch n := st.Stats(); {
		case n.Calls == 0:
		case key.kind != "":
			obs.Fold(m, key.kind, n)
			if key.kind == obs.KindGuard {
				for _, g := range p.guards {
					m.Counters[obs.KindGuard+".rejected"] += g.Stats().Rejected
				}
			}
		default:
			m.Counters["registry.c."+key.prefix+".calls"] = n.Calls
			m.Gauges["registry.g."+key.prefix+".last_us"] = float64(st.LastUs())
			if n.Errors > 0 {
				m.Counters["registry.c."+key.prefix+".errors"] = n.Errors
			}
		}
	}
	sources := p.statsSources
	p.metricsMu.Unlock()
	for _, fn := range sources {
		fn(m)
	}
	return m
}

// Gather exports the node's metrics as one wire record, tagged with the
// node's domain: the unified introspection snapshot that the management
// interface's "gather" op serves.
func (p *Platform) Gather() wire.Record {
	rec := wire.Record{}
	if p.domain != "" {
		rec["domain"] = p.domain
	}
	p.metrics().Export(rec, "")
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

// Announce performs a request-only invocation through the binder.
func (p *Platform) Announce(ref wire.Ref, op string, args []wire.Value) error {
	return p.binder.AnnounceWith(context.Background(), ref, op, args, capsule.DefaultInvokeConfig())
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
