// Package obs is the channel-level observability layer: low-overhead
// distributed tracing and unified metrics introspection.
//
// The paper's engineering model decomposes every binding into an explicit
// channel of stub/binder/protocol objects (§6) and makes node management
// a first-class function (§7). This package is the measurement substrate
// for both: a Collector records spans emitted by the channel objects an
// invocation actually traversed — stub, binder resolve, protocol
// send/retransmit/ack, coalescer flush, server dispatch, the co-located
// bypass and each woven mechanism — so a test or an operator can *see*
// which transparency path ran, and a node's metrics — every per-layer
// stats struct (Fold), every latency histogram — meet in one typed
// Metrics snapshot that exports one management-interface namespace.
// Every step on the access path reports through one Stage: its span,
// its counters and, when timed, its histogram.
//
// Tracing is one more channel function, installed like any transparency
// interceptor, and it obeys the platform's hot-path discipline:
//
//   - no background goroutine: completed spans go into a fixed-size ring
//     owned by the collector, oldest overwritten;
//   - timestamps come from the node's clock.Clock, so simulated
//     platforms produce virtual-time spans and deterministic trees;
//   - unsampled calls cost a few atomic loads and zero allocations (a
//     Stage pass that mints no span reads no clock it would not read
//     untraced, and allocates nothing — gated by test);
//   - sampled spans are drawn from a sync.Pool and returned when their
//     stage's pass ends.
//
// Span identifiers are deterministic per collector: the top bits derive
// from the node name, the low bits from a counter, so a seeded simulation
// replays byte-identical span trees and two nodes can never mint the same
// id.
package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"odp/internal/clock"
)

// Span kinds, one per instrumented channel object. Kind strings appear in
// rendered trees and management snapshots; tests assert on them.
const (
	// KindStub is the client stub: the root of a traced invocation.
	KindStub = "stub"
	// KindBypass is the §4.5 co-located fast path — recorded as its own
	// kind so tests can assert *which* path an invocation took.
	KindBypass = "bypass"
	// KindResolve is a binder consultation of the relocation service.
	KindResolve = "binder.resolve"
	// KindSend covers one protocol interrogation at the client.
	KindSend = "rpc.send"
	// KindRetransmit marks one request retransmission.
	KindRetransmit = "rpc.retransmit"
	// KindAck marks the client acknowledging a reply.
	KindAck = "rpc.ack"
	// KindAnnounce covers one protocol announcement at the client.
	KindAnnounce = "rpc.announce"
	// KindDispatch covers a frame's server time on its delivery.
	KindDispatch = "rpc.dispatch"
	// KindReject marks a traced request shed by server-side admission
	// control before dispatch (the busy reply carries no trace block, so
	// the event is the only span the rejected invocation leaves).
	KindReject = "rpc.reject"
	// KindFlush covers one coalescer batch write (infrastructure span:
	// it belongs to no invocation trace).
	KindFlush = "coalescer.flush"
	// KindGuard, KindLease, KindGate and KindRecovery are the woven
	// mechanisms' stages, nested in weave order under the dispatch or the
	// bypass; a call held during a move is the gate's self time.
	KindGuard    = "security.guard"
	KindLease    = "gc.lease"
	KindGate     = "migrate.gate"
	KindRecovery = "migrate.recovery"
)

// SpanContext is the propagated identity of a live span: enough for a
// child (possibly on another node) to attach to it. The zero value means
// "no trace": unsampled, nothing on the wire.
type SpanContext struct {
	// TraceID identifies the whole tree (the root span's own id).
	TraceID uint64
	// SpanID identifies the parent span for children created under it.
	SpanID uint64
}

// Valid reports whether the context names a live trace.
func (sc SpanContext) Valid() bool { return sc.TraceID != 0 }

// Span is one completed (or in-flight) operation interval.
type Span struct {
	// TraceID groups every span of one invocation tree.
	TraceID uint64
	// SpanID is this span's unique id.
	SpanID uint64
	// ParentID is the parent span's id (0 for roots).
	ParentID uint64
	// Kind is the channel object that emitted the span (Kind* constants).
	Kind string
	// Name is the operation (or destination) the span covers.
	Name string
	// Node is the emitting collector's node name.
	Node string
	// Start and End bound the interval, on the collector's clock.
	Start time.Time
	End   time.Time
}

// Context returns the span's propagation context. Nil-safe: an unsampled
// (nil) span yields the zero context, so child layers stay untraced.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.TraceID, SpanID: s.SpanID}
}

// Duration is the span's measured interval.
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// CollectorStats counts collector events for the unified snapshot.
type CollectorStats struct {
	// Roots counts sampling decisions taken: passes of a root-kind
	// stage (the stub, the flush) that found no trace to join.
	Roots uint64
	// Sampled counts roots that were actually sampled.
	Sampled uint64
	// Recorded counts spans committed to the ring (including events).
	Recorded uint64
}

// Collector records spans for one platform. The zero-size knobs make the
// unsampled path free: a nil *Collector is a valid "tracing off"
// collector whose every method no-ops.
type Collector struct {
	// stats is counted in place with atomic.AddUint64; first, so its
	// words are 64-bit aligned on 32-bit platforms too.
	stats CollectorStats

	node   string
	clk    clock.Clock
	idBase uint64

	nextID atomic.Uint64
	every  atomic.Uint64 // sample 1-in-every roots; 0 = never

	pool sync.Pool

	mu   sync.Mutex
	ring ring[Span] // the newest ringSize spans
}

// CollectorOption configures NewCollector.
type CollectorOption func(*Collector)

// WithSampleEvery sets the root sampling rate: 1 samples every
// invocation, n samples one in n of each root kind's passes — one
// invocation in n at the stub, one batch write in n at the flush — and 0
// disables tracing (the default — a collector observes nothing until
// told to sample).
func WithSampleEvery(n uint64) CollectorOption {
	return func(c *Collector) { c.every.Store(n) }
}

// ringSize is how many completed spans a collector retains: it bounds
// the retained-span footprint per platform.
const ringSize = 1024

// NewCollector creates a collector for the named node whose spans are
// stamped by clk, the node's clock.
func NewCollector(node string, clk clock.Clock, opts ...CollectorOption) *Collector {
	c := &Collector{
		node:   node,
		clk:    clk,
		idBase: idBaseFor(node),
		ring:   newRing[Span](ringSize),
	}
	c.pool.New = func() interface{} { return new(Span) }
	for _, o := range opts {
		o(c)
	}
	return c
}

// idBaseFor derives the top 16 bits of every span id from the node name
// (FNV-1a folded), so ids are deterministic per name and two differently
// named nodes cannot collide. The base is never zero: a zero TraceID
// means "unsampled".
func idBaseFor(node string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(node); i++ {
		h ^= uint64(node[i])
		h *= prime64
	}
	hi := (h >> 48) ^ (h >> 32 & 0xffff) ^ (h >> 16 & 0xffff) ^ (h & 0xffff)
	if hi == 0 {
		hi = 1
	}
	return hi << 48
}

// Node returns the collector's node name.
func (c *Collector) Node() string {
	if c == nil {
		return ""
	}
	return c.node
}

// SetSampleEvery changes the root sampling rate at run time (the
// management interface exposes it as a tunable parameter).
func (c *Collector) SetSampleEvery(n uint64) {
	if c != nil {
		c.every.Store(n)
	}
}

// SampleEvery reads the current sampling rate.
func (c *Collector) SampleEvery() uint64 {
	if c == nil {
		return 0
	}
	return c.every.Load()
}

// nextSpanID mints a fresh id under the node's base.
func (c *Collector) nextSpanID() uint64 {
	return c.idBase | (c.nextID.Add(1) & 0xFFFFFFFFFFFF)
}

// mint starts a span under parent, or a root subject to the sampling
// knob when parent is invalid, at the instant at; a zero at is read from
// the clock once the span is sure to exist. A root is drawn from draws,
// its stage's own count of root decisions, so one in every of that
// stage's passes is sampled whatever other root kinds draw.
func (c *Collector) mint(parent SpanContext, kind, name string, at time.Time, draws *atomic.Uint64) *Span {
	if c == nil {
		return nil
	}
	if !parent.Valid() {
		every := c.every.Load()
		if every == 0 {
			return nil
		}
		atomic.AddUint64(&c.stats.Roots, 1)
		if n := draws.Add(1); every > 1 && (n-1)%every != 0 {
			return nil
		}
		atomic.AddUint64(&c.stats.Sampled, 1)
	}
	if at.IsZero() {
		at = c.clk.Now()
	}
	sp := c.pool.Get().(*Span)
	*sp = Span{SpanID: c.nextSpanID(), ParentID: parent.SpanID, Kind: kind, Name: name, Node: c.node, Start: at}
	if sp.TraceID = parent.TraceID; sp.TraceID == 0 {
		sp.TraceID = sp.SpanID
	}
	return sp
}

// endAt completes sp at the instant end: a copy goes to the ring, sp
// back to the pool.
func (c *Collector) endAt(sp *Span, end time.Time) {
	sp.End = end
	c.mu.Lock()
	c.ring.push(*sp)
	atomic.AddUint64(&c.stats.Recorded, 1)
	c.mu.Unlock()
	*sp = Span{}
	c.pool.Put(sp)
}

// Event records an instantaneous span under parent (a retransmission, an
// ack): a span begun and ended in one ring commit, nothing to leak.
// No-op when the collector is nil or the parent is invalid.
func (c *Collector) Event(parent SpanContext, kind, name string) {
	if !parent.Valid() {
		return
	}
	if sp := c.mint(parent, kind, name, time.Time{}, nil); sp != nil {
		c.endAt(sp, sp.Start)
	}
}

// Snapshot returns the retained spans, oldest first.
func (c *Collector) Snapshot() []Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.list()
}

// Stats returns a snapshot of collector counters.
func (c *Collector) Stats() CollectorStats {
	if c == nil {
		return CollectorStats{}
	}
	return Load(&c.stats)
}
