// Package odp is an open-distributed-processing platform in the style of
// ANSA / RM-ODP, reproducing the system described in Andrew Herbert's
// "The Challenge of ODP" (Berlin ODP Conference, 1991).
//
// The computational model is small: applications see only *interfaces* to
// abstract data types, reached through distribution-transparent
// references. Interaction is an interrogation (request/reply, returning
// one of a set of named outcomes each carrying its own results) or an
// announcement (request-only). The engineering model supplies selective,
// declarative, modular transparency: an application attaches an Env —
// environment constraints — to an interface, and the platform weaves the
// corresponding mechanisms (generated concurrency control, replica
// groups, relocation, passivation, checkpoint-recovery, guards, leases,
// instrumentation) into its access path.
//
// A minimal server:
//
//	fabric := odp.NewFabric()
//	ep, _ := fabric.Endpoint("server")
//	node, _ := odp.NewPlatform("server", ep)
//	ref, _ := node.Publish("greeter", odp.Object{
//		Servant: odp.ServantFunc(func(ctx context.Context, op string, args []odp.Value) (string, []odp.Value, error) {
//			return "ok", []odp.Value{"hello, " + args[0].(string)}, nil
//		}),
//	})
//
// And a client, identical whether the interface is local, remote,
// replicated or migrating:
//
//	out, err := client.Bind(ref).Call(ctx, "greet", "world")
//
// See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
// evaluation suite.
package odp

import (
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"time"

	"odp/internal/capsule"
	"odp/internal/clock"
	"odp/internal/core"
	"odp/internal/enterprise"
	"odp/internal/federation"
	"odp/internal/group"
	"odp/internal/migrate"
	"odp/internal/netsim"
	"odp/internal/obs"
	"odp/internal/rpc"
	"odp/internal/security"
	"odp/internal/storage"
	"odp/internal/stream"
	"odp/internal/trader"
	"odp/internal/transport"
	"odp/internal/txn"
	"odp/internal/types"
	"odp/internal/wire"
)

// Data model (the computational language's value space).
type (
	// Value is any element of the computational data model: nil, bool,
	// int64, uint64, float64, string, []byte, List, Record or Ref.
	Value = wire.Value
	// List is an ordered sequence of values.
	List = wire.List
	// Record is a named-field aggregate.
	Record = wire.Record
	// Ref is a distribution-transparent interface reference.
	Ref = wire.Ref
	// Codec translates values to and from octets.
	Codec = wire.Codec
	// PackedCodec is the native network data representation
	// (ansa-packed/1): what every node speaks unless WithCodec says
	// otherwise.
	PackedCodec = wire.PackedCodec
	// TextCodec is the alternative representation used across federation
	// technology boundaries.
	TextCodec = wire.TextCodec
)

// Interface types and signatures.
type (
	// Type is an interface signature.
	Type = types.Type
	// Operation is one operation in a signature.
	Operation = types.Operation
	// Desc names a value type in a signature.
	Desc = types.Desc
	// TypeManager stores type descriptions and matches them.
	TypeManager = types.Manager
)

// Type descriptors.
const (
	Any    = types.Any
	Bool   = types.Bool
	Int    = types.Int
	Uint   = types.Uint
	Float  = types.Float
	String = types.String
	Bytes  = types.Bytes
	Rec    = types.Rec
)

// ListOf returns the descriptor for a homogeneous list.
func ListOf(d Desc) Desc { return types.List(d) }

// RefTo returns the descriptor for an interface reference.
func RefTo(name string) Desc { return types.RefTo(name) }

// Platform, objects and environment constraints.
type (
	// Platform is one ODP node: a capsule plus every engineering-model
	// service the transparency weaver may need.
	Platform = core.Platform
	// Object is a computational-model object: behaviour, signature and
	// environment constraints.
	Object = core.Object
	// Env is the declarative environment-constraint set.
	Env = core.Env
	// AtomicSpec requests concurrency transparency.
	AtomicSpec = core.AtomicSpec
	// SecureSpec requests a generated guard.
	SecureSpec = core.SecureSpec
	// RecoverSpec requests failure transparency.
	RecoverSpec = core.RecoverSpec
	// LeaseSpec requests garbage-collection tracking.
	LeaseSpec = core.LeaseSpec
	// ManagedSpec requests management instrumentation.
	ManagedSpec = core.ManagedSpec
	// ReplicaSpec requests replication transparency.
	ReplicaSpec = core.ReplicaSpec
	// Replicated is a published replica group.
	Replicated = core.Replicated
	// Proxy is a client-side binding to an interface.
	Proxy = core.Proxy
	// Outcome is an interrogation result.
	Outcome = core.Outcome
	// Option configures NewPlatform.
	Option = core.Option
	// Servant is the executable body of an ADT implementation.
	Servant = capsule.Servant
	// ServantFunc adapts a function to Servant.
	ServantFunc = capsule.ServantFunc
	// Interceptor wraps a dispatch path.
	Interceptor = capsule.Interceptor
	// QoS is the communications quality-of-service constraint.
	QoS = rpc.QoS
	// AdmissionConfig bounds per-client admission on a node's server
	// dispatch path; see WithAdmission.
	AdmissionConfig = rpc.AdmissionConfig
	// Clock abstracts the time source a platform runs on; see WithClock.
	Clock = clock.Clock
	// FakeClock is a manually advanced Clock for virtual-time testing.
	FakeClock = clock.Fake
)

// NewFakeClock returns a FakeClock reading start until advanced.
func NewFakeClock(start time.Time) *FakeClock { return clock.NewFake(start) }

// Replication modes.
const (
	// ModeActive executes on every replica (no fail-over gap).
	ModeActive = group.ModeActive
	// ModeStandby executes on the primary; backups replay on promotion.
	ModeStandby = group.ModeStandby
)

// NewPlatform assembles an ODP node on ep, wrapped in a write coalescer
// (experiment E16).
func NewPlatform(name string, ep transport.Endpoint, opts ...Option) (*Platform, error) {
	return core.NewPlatform(name, ep, opts...)
}

// PublishReplicated weaves replication transparency over several
// platforms.
func PublishReplicated(platforms []*Platform, spec ReplicaSpec, factory func() Servant) (*Replicated, error) {
	return core.PublishReplicated(platforms, spec, factory)
}

// Platform construction options.
var (
	// WithCodec selects the network data representation (default
	// PackedCodec); nodes with different codecs meet through a Gateway.
	WithCodec = core.WithCodec
	// WithStore supplies stable storage.
	WithStore = core.WithStore
	// WithRelocator points the node at an existing relocation service.
	WithRelocator = core.WithRelocator
	// WithTrader hosts a trading service under a federation context name.
	WithTrader = core.WithTrader
	// WithTraderFederationQoS sets the per-hop QoS base for federated
	// trader imports (timeout scaled by remaining hop budget).
	WithTraderFederationQoS = core.WithTraderFederationQoS
	// WithLockWait bounds transactional lock waits.
	WithLockWait = core.WithLockWait
	// WithGCGrace sets the collector's activity grace window.
	WithGCGrace = core.WithGCGrace
	// WithDomain tags the node with its administrative domain; the tag
	// rides in Gather and keys GatherDomains rollups (experiment E20).
	WithDomain = core.WithDomain
	// WithClock drives every time-dependent subsystem of the node from one
	// injected clock; share a clock.Fake across nodes and the netsim
	// fabric to run a whole system in virtual time (internal/sim). The
	// security guard is the exception: it checks credential freshness on
	// the wall clock, where the principal's signer stamped them.
	WithClock = core.WithClock
	// WithAdmission enables per-client token-bucket admission control on
	// the node's server dispatch path: over-budget invocations are shed
	// with ErrServerBusy instead of queueing (experiment E19).
	WithAdmission = core.WithAdmission
	// WithBusyRetry (an invoke option) retries an invocation shed by
	// admission control with exponential backoff.
	WithBusyRetry = capsule.WithBusyRetry
)

// Transport.
type (
	// Endpoint is a best-effort datagram endpoint.
	Endpoint = transport.Endpoint
	// Coalescer wraps an Endpoint with adaptive write coalescing; every
	// platform's endpoint is wrapped in one.
	Coalescer = transport.Coalescer
	// CoalescerStats snapshots a Coalescer's counters.
	CoalescerStats = transport.CoalescerStats
	// Fabric is the simulated network.
	Fabric = netsim.Fabric
	// LinkProfile describes one direction of a simulated link.
	LinkProfile = netsim.LinkProfile
)

// WithBatching does nothing: every node coalesces. It survives, name
// only, for cmd/odpload, and goes when that stops calling it.
func WithBatching() Option { return nil }

// NewCoalescer wraps ep in a write coalescer directly, for composing
// transports by hand: an untraced node on the wall clock.
func NewCoalescer(ep Endpoint, opts ...transport.CoalescerOption) *Coalescer {
	return transport.NewCoalescer(ep, clock.Real{}, nil, opts...)
}

// NewFabric creates a simulated network fabric.
func NewFabric(opts ...netsim.Option) *Fabric { return netsim.NewFabric(opts...) }

// Simulated fabric options and profiles.
var (
	// WithSeed fixes the fabric's randomness.
	WithSeed = netsim.WithSeed
	// WithDefaultLink sets the default link profile.
	WithDefaultLink = netsim.WithDefaultLink
	// FabricClock schedules fabric deliveries on an injected clock
	// instead of real timers; with a FakeClock shared with WithClock
	// platforms, the network runs in virtual time.
	FabricClock = netsim.WithClock
	// LAN approximates a local segment.
	LAN = netsim.LAN
	// WAN approximates a wide-area path.
	WAN = netsim.WAN
)

// ListenTCP creates a real TCP endpoint for cross-process deployment.
func ListenTCP(bind string) (Endpoint, error) { return transport.ListenTCP(bind) }

// Observability. Tracing treats observation as a channel function: the
// same interceptor points that weave transparency also emit spans, so a
// single interrogation yields one causal tree across every node it
// touches (stub → binder → transport → dispatch, or the §4.5 co-located
// bypass as its own span kind).
type (
	// Span is one recorded operation of a trace.
	Span = obs.Span
	// SpanContext identifies a live span for propagation.
	SpanContext = obs.SpanContext
	// SpanCollector is a platform's pooled ring-buffer span sink.
	SpanCollector = obs.Collector
)

// Tracing options, passed to WithTracing.
var (
	// WithTracing equips the platform with a span collector and threads
	// it through stub, binder, rpc, coalescer and dispatch layers.
	// Sampling starts off (zero overhead); turn it on with
	// TraceSampleEvery or the "obs.sample_every" management parameter.
	WithTracing = core.WithTracing
	// TraceSampleEvery samples one root trace in n (0 disables, 1 traces
	// everything).
	TraceSampleEvery = obs.WithSampleEvery
)

// Latency histograms, the metrics time series and the anomaly flight
// recorder. Every channel stage that matters records into a zero-alloc
// log-bucketed histogram; a clock-driven recorder turns Gather
// snapshots into rates; armed SLO rules capture black-box breach
// reports served by the management "blackbox" op.
type (
	// HistogramSnapshot is a point-in-time latency distribution of one
	// channel stage (32 log2 microsecond buckets).
	HistogramSnapshot = obs.HistogramSnapshot
	// SLORule is one armed service-level objective evaluated against
	// every recorder sample; build with CeilingRule or StallRule.
	SLORule = obs.Rule
	// BreachReport is the flight recorder's black box: the rule that
	// fired, the breaching window's counter deltas and the last spans.
	BreachReport = obs.BreachReport
)

// Recorder and flight-recorder options.
var (
	// WithRecorder samples the node's Gather snapshot every interval
	// into a bounded ring, from which the management "series" op derives
	// per-second rates.
	WithRecorder = core.WithRecorder
	// WithFlightRecorder arms SLO rules against the recorder's samples
	// (implies WithRecorder).
	WithFlightRecorder = core.WithFlightRecorder
	// CeilingRule arms a maximum on a Gather key (latency quantiles,
	// queue depths).
	CeilingRule = obs.CeilingRule
	// StallRule arms a zero-progress watchdog on a counter key.
	StallRule = obs.StallRule
)

// HistogramKeys reassembles the latency histograms folded into a
// gathered record ("<base>_hist.<i>" keys), keyed by base.
func HistogramKeys(rec Record) map[string]HistogramSnapshot { return obs.HistogramKeys(rec) }

// SpansFromList decodes a span list fetched from a node's management
// "spans" operation.
func SpansFromList(l List) []Span { return obs.SpansFromList(l) }

// FormatSpans renders spans as deterministic per-trace trees, the format
// odptop shows.
func FormatSpans(spans []Span) string { return obs.FormatForest(spans) }

// Storage.
type (
	// Store is a stable repository of snapshots and logs.
	Store = storage.Store
)

// NewMemStore returns an in-memory store.
func NewMemStore() Store { return storage.NewMemStore() }

// NewFileStore opens a directory-backed store.
func NewFileStore(dir string) (Store, error) { return storage.NewFileStore(dir) }

// Transactions.
type (
	// Txn is one atomic activity.
	Txn = txn.Txn
	// Separation is the separation-constraint specification.
	Separation = txn.Separation
)

// Security.
type (
	// Signer produces credentials for one principal.
	Signer = security.Signer
	// Policy is a declarative access policy.
	Policy = security.Policy
	// Rule is one policy clause.
	Rule = security.Rule
)

// NewSigner creates a signer for principal with its shared secret.
func NewSigner(principal string, secret []byte) *Signer {
	return security.NewSigner(principal, secret)
}

// Trading.
type (
	// TraderClient talks to a (possibly remote) trading service.
	TraderClient = trader.Client
	// ImportSpec is a client's service requirement.
	ImportSpec = trader.ImportSpec
	// Offer is one advertised service.
	Offer = trader.Offer
	// Constraint restricts matching offers by a property.
	Constraint = trader.Constraint
	// TraderStats snapshots a trader's offer-store counters (also folded
	// into Platform.Gather under "trader.").
	TraderStats = trader.TraderStats
)

// Trading constraint operators.
const (
	OpEq     = trader.OpEq
	OpNe     = trader.OpNe
	OpGe     = trader.OpGe
	OpLe     = trader.OpLe
	OpExists = trader.OpExists
)

// NewTraderClient binds a platform to the trading service at ref.
func NewTraderClient(p *Platform, ref Ref) *TraderClient {
	return trader.NewClient(p.Capsule, ref)
}

// GatherDomains folds many platforms' Gather snapshots into per-domain
// "domain.<name>.<key>" sums, keyed by each node's WithDomain tag — the
// per-domain view of a federation swarm (experiment E20).
func GatherDomains(platforms ...*Platform) Record {
	return core.GatherDomains(platforms...)
}

// Streams.
type (
	// StreamSpec is the template of an explicit stream binding.
	StreamSpec = stream.Spec
	// Frame is one element of a flow.
	Frame = stream.Frame
	// Sink consumes frames.
	Sink = stream.Sink
	// SinkFunc adapts a function to Sink.
	SinkFunc = stream.SinkFunc
	// StreamReceiver is the consumer-side stream interface.
	StreamReceiver = stream.Receiver
	// StreamBinding is the producer-side end of a bound flow.
	StreamBinding = stream.Binding
	// SyncGroup aligns several flows by timestamp.
	SyncGroup = stream.SyncGroup
)

// NewStreamReceiver exports a stream interface on the platform.
func NewStreamReceiver(p *Platform, acceptor func(StreamSpec) (Sink, error)) (*StreamReceiver, error) {
	return stream.NewReceiver(p.Capsule, acceptor)
}

// BindStream performs the explicit binding handshake.
func BindStream(p *Platform, rxRef Ref, spec StreamSpec) (*StreamBinding, error) {
	return stream.Bind(context.Background(), p.Capsule, rxRef, spec)
}

// NewSyncGroup creates an inter-flow synchroniser.
func NewSyncGroup(maxSkewMs int64, out func(flow string, f Frame)) *SyncGroup {
	return stream.NewSyncGroup(maxSkewMs, out)
}

// Federation.
type (
	// Gateway is a federation interceptor between two domains.
	Gateway = federation.Gateway
	// GatewayPolicy authorises boundary crossings.
	GatewayPolicy = federation.Policy
	// Side names one side of a gateway.
	Side = federation.Side
)

// Gateway sides.
const (
	SideA = federation.SideA
	SideB = federation.SideB
)

// NewGateway creates a federation interceptor between the two platforms'
// domains.
func NewGateway(name string, a, b *Platform, policy GatewayPolicy) *Gateway {
	return federation.New(name, a.Capsule, b.Capsule, policy)
}

// Migration and recovery.
type (
	// MovableServant is a servant that can snapshot and restore its
	// state, as migration, passivation and recovery require (§5.5).
	MovableServant = migrate.Servant
)

// Node management (§6).
type (
	// NodeManager recreates a node's default servers after restart and
	// exposes remote start/stop management.
	NodeManager = capsule.NodeManager
	// ServerSpec describes one default server of a node.
	ServerSpec = capsule.ServerSpec
)

// NewNodeManager creates a node manager for the platform. Its default
// servers are advertised through the platform's trader when one is
// hosted.
func NewNodeManager(p *Platform, specs []ServerSpec) (*NodeManager, error) {
	var adv capsule.Advertiser
	if p.Trader != nil {
		adv = p.Trader
	}
	return capsule.NewNodeManager(p.Capsule, adv, specs)
}

// Enterprise language (§8).
type (
	// Community is an organization with roles, objectives and policy.
	Community = enterprise.Community
	// PolicyStatement is one clause of a community's policy.
	PolicyStatement = enterprise.Statement
	// Assignment binds principals to roles within a community.
	Assignment = enterprise.Assignment
)

// Enterprise policy statement kinds.
const (
	// Permission allows a role an action.
	Permission = enterprise.Permission
	// Prohibition forbids a role an action, overriding permissions.
	Prohibition = enterprise.Prohibition
	// Obligation requires a role to perform an action (checked by audit).
	Obligation = enterprise.Obligation
)

// RegisterFactory makes a type receivable and re-activatable on the
// platform's migration host.
func RegisterFactory(p *Platform, typeName string, f func() MovableServant) {
	p.Mover.RegisterFactory(typeName, f)
}

// EncodeRef renders an interface reference as a printable string, for
// passing between processes on command lines and in configuration.
func EncodeRef(r Ref) (string, error) {
	raw, err := wire.PackedCodec{}.Encode(nil, r)
	if err != nil {
		return "", err
	}
	return base64.StdEncoding.EncodeToString(raw), nil
}

// DecodeRef parses a string produced by EncodeRef.
func DecodeRef(s string) (Ref, error) {
	raw, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return Ref{}, fmt.Errorf("odp: decode ref: %w", err)
	}
	v, rest, err := wire.PackedCodec{}.Decode(raw)
	if err != nil {
		return Ref{}, fmt.Errorf("odp: decode ref: %w", err)
	}
	if len(rest) != 0 {
		return Ref{}, errors.New("odp: decode ref: trailing bytes")
	}
	ref, ok := v.(Ref)
	if !ok {
		return Ref{}, fmt.Errorf("odp: decode ref: value is %T", v)
	}
	return ref, nil
}

// ErrServerBusy reports that server-side admission control shed an
// invocation; back off and retry (or opt into WithBusyRetry).
var ErrServerBusy = rpc.ErrServerBusy

// DefaultQoS returns the platform's default invocation constraints.
func DefaultQoS() QoS {
	return QoS{Timeout: rpc.DefaultTimeout, Retransmit: rpc.DefaultRetransmit}
}
