package naming

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"odp/internal/capsule"
	"odp/internal/clock"
	"odp/internal/obs"
	"odp/internal/rpc"
	"odp/internal/types"
	"odp/internal/wire"
)

// RelocatorType is the interface type of the relocation service.
var RelocatorType = types.Type{
	Name: "odp.Relocator",
	Ops: map[string]types.Operation{
		"register": {
			Args:     []types.Desc{types.RefTo("")},
			Outcomes: map[string][]types.Desc{"ok": {}},
		},
		"lookup": {
			Args:     []types.Desc{types.String},
			Outcomes: map[string][]types.Desc{"found": {types.RefTo("")}, "unknown": {}},
		},
		"unregister": {
			Args:     []types.Desc{types.String},
			Outcomes: map[string][]types.Desc{"ok": {}},
		},
	},
}

// RelocatorServant exposes a Table as an ODP interface.
type RelocatorServant struct {
	table *Table
}

// NewRelocatorServant wraps table.
func NewRelocatorServant(table *Table) *RelocatorServant {
	return &RelocatorServant{table: table}
}

var _ capsule.Servant = (*RelocatorServant)(nil)

// Dispatch implements capsule.Servant.
func (r *RelocatorServant) Dispatch(_ context.Context, op string, args []wire.Value) (string, []wire.Value, error) {
	switch op {
	case "register":
		ref, ok := args[0].(wire.Ref)
		if !ok {
			return "", nil, fmt.Errorf("naming: register wants a ref, got %T", args[0])
		}
		r.table.Register(ref)
		return "ok", nil, nil
	case "lookup":
		id, _ := args[0].(string)
		ref, err := r.table.Lookup(id)
		if errors.Is(err, ErrUnknownInterface) {
			return "unknown", nil, nil
		}
		if err != nil {
			return "", nil, err
		}
		return "found", []wire.Value{ref}, nil
	case "unregister":
		id, _ := args[0].(string)
		r.table.Unregister(id)
		return "ok", nil, nil
	default:
		return "", nil, fmt.Errorf("naming: relocator has no operation %q", op)
	}
}

// ExportRelocator hosts a fresh relocation service on c.
func ExportRelocator(c *capsule.Capsule) (*Table, wire.Ref, error) {
	table := NewTable()
	ref, err := c.Export(NewRelocatorServant(table),
		capsule.WithID(c.Name()+"/relocator"),
		capsule.WithType(RelocatorType))
	if err != nil {
		return nil, wire.Ref{}, err
	}
	return table, ref, nil
}

// Binder is the client-side location-transparency mechanism: it invokes
// through a reference and, when the direct path fails (the interface
// moved, or its host restarted elsewhere), consults the relocation
// service and retries with the fresh reference. Successful relocations
// are cached so subsequent invocations go direct.
type Binder struct {
	capsule   *capsule.Capsule
	relocator wire.Ref

	mu    sync.RWMutex
	cache map[string]wire.Ref

	// obs is the capsule's span collector. When non-nil it makes the
	// binder the root of invocation traces: the binder sits at the top of
	// every client-side channel, so the sampling decision is taken here
	// and the stub span brackets the whole invocation, relocation retries
	// included; relocator consultations are recorded as resolve spans.
	obs *obs.Collector
	// clk is the capsule's clock; it stamps the resolve latency histogram.
	clk clock.Clock

	stats binderCounters
	// resolveLat is the relocator-consultation latency distribution:
	// how long location transparency stalls an invocation when the
	// direct path fails.
	resolveLat obs.Histogram
}

// BinderStats counts binder events for the scaling experiment E7.
type BinderStats struct {
	Invocations uint64
	Relocations uint64 // relocator consultations
	CacheHits   uint64
}

// binderCounters is the hot-path form of BinderStats: the binder sits on
// every invocation, co-located ones included, so counting must not take a
// lock.
type binderCounters struct {
	invocations atomic.Uint64
	relocations atomic.Uint64
	cacheHits   atomic.Uint64
}

// NewBinder creates a binder that resolves through the relocation service
// at relocator.
func NewBinder(c *capsule.Capsule, relocator wire.Ref) *Binder {
	return &Binder{
		capsule:   c,
		relocator: relocator,
		cache:     make(map[string]wire.Ref),
		obs:       c.Observer(),
		clk:       c.Clock(),
	}
}

// Stats returns a snapshot of binder counters.
func (b *Binder) Stats() BinderStats {
	return BinderStats{
		Invocations: b.stats.invocations.Load(),
		Relocations: b.stats.relocations.Load(),
		CacheHits:   b.stats.cacheHits.Load(),
	}
}

// ResolveLatency snapshots the relocator-consultation latency histogram.
func (b *Binder) ResolveLatency() obs.HistogramSnapshot {
	return b.resolveLat.Snapshot()
}

// Invoke performs an interrogation with relocation recovery.
func (b *Binder) Invoke(ctx context.Context, ref wire.Ref, op string, args []wire.Value, opts ...capsule.InvokeOption) (string, []wire.Value, error) {
	if len(opts) == 0 {
		return b.InvokeWith(ctx, ref, op, args, capsule.DefaultInvokeConfig())
	}
	return b.InvokeWith(ctx, ref, op, args, capsule.ResolveInvokeOptions(opts...))
}

// InvokeWith is Invoke with a pre-resolved configuration.
func (b *Binder) InvokeWith(ctx context.Context, ref wire.Ref, op string, args []wire.Value, cfg capsule.InvokeConfig) (string, []wire.Value, error) {
	b.stats.invocations.Add(1)

	// Top-level invocations root a trace here, at the stub boundary; a
	// nested invocation (the ctx already carries a span) joins its
	// caller's tree instead, so one client call yields one tree even
	// across relay and re-entry.
	var root *obs.Span
	if b.obs != nil && !obs.FromContext(ctx).Valid() {
		if root = b.obs.Begin(obs.KindStub, op); root != nil {
			ctx = obs.ContextWith(ctx, root.Context())
		}
	}
	outcome, results, err := b.invokeWith(ctx, ref, op, args, cfg)
	b.obs.End(root)
	return outcome, results, err
}

func (b *Binder) invokeWith(ctx context.Context, ref wire.Ref, op string, args []wire.Value, cfg capsule.InvokeConfig) (string, []wire.Value, error) {
	// A cached relocation supersedes the caller's (possibly stale) ref.
	b.mu.RLock()
	cached, hit := b.cache[ref.ID]
	b.mu.RUnlock()
	attempt := ref
	if hit && cached.Epoch >= ref.Epoch {
		attempt = cached
		b.stats.cacheHits.Add(1)
	}

	outcome, results, err := b.capsule.InvokeWith(ctx, attempt, op, args, cfg)
	if err == nil || !isRelocatable(err) {
		return outcome, results, err
	}

	fresh, rerr := b.resolve(ctx, ref.ID)
	if rerr != nil {
		return "", nil, fmt.Errorf("naming: invoke failed (%v) and relocation failed: %w", err, rerr)
	}
	b.mu.Lock()
	b.cache[ref.ID] = fresh
	b.mu.Unlock()
	return b.capsule.InvokeWith(ctx, fresh, op, args, cfg)
}

// resolve asks the relocation service for the current reference. The
// resolve span parents under the stub (via ctx), so a trace shows the
// relocation an invocation needed — including the nested lookup's own
// send/dispatch spans beneath it.
func (b *Binder) resolve(ctx context.Context, id string) (wire.Ref, error) {
	b.stats.relocations.Add(1)
	began := b.clk.Now()
	defer func() { b.resolveLat.Observe(b.clk.Since(began)) }()
	var sp *obs.Span
	if b.obs != nil {
		if sp = b.obs.BeginChild(obs.FromContext(ctx), obs.KindResolve, id); sp != nil {
			ctx = obs.ContextWith(ctx, sp.Context())
		}
	}
	defer b.obs.End(sp)
	outcome, results, err := b.capsule.Invoke(ctx, b.relocator, "lookup", []wire.Value{id})
	if err != nil {
		return wire.Ref{}, err
	}
	if outcome != "found" {
		return wire.Ref{}, fmt.Errorf("%w: %q", ErrUnknownInterface, id)
	}
	ref, ok := results[0].(wire.Ref)
	if !ok {
		return wire.Ref{}, fmt.Errorf("naming: relocator returned %T", results[0])
	}
	return ref, nil
}

// isRelocatable reports whether err indicates the interface may have
// moved (rather than an application or policy failure).
func isRelocatable(err error) bool {
	return errors.Is(err, rpc.ErrNoObject) ||
		errors.Is(err, rpc.ErrTimeout) ||
		errors.Is(err, capsule.ErrNoEndpoint)
}
