package naming

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"odp/internal/capsule"
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
	// stats is counted in place with atomic.AddUint64 — the binder sits
	// on every invocation, co-located ones included, so counting takes
	// no lock. First, so its words are 64-bit aligned on 32-bit
	// platforms too.
	stats BinderStats

	capsule   *capsule.Capsule
	relocator wire.Ref

	mu    sync.RWMutex
	cache map[string]wire.Ref

	// stub is the stage that brackets a top-level invocation of either
	// kind, relocation retries included: on a traced node it roots the
	// trace, and a nested invocation (ctx carries a span) joins its
	// caller's tree.
	stub obs.Stage
	// resolve is the relocator-consultation stage, timed on every
	// consultation: how long location transparency stalls an invocation
	// when the direct path fails.
	resolve obs.Stage
}

// BinderStats counts binder events for the scaling experiment E7.
type BinderStats struct {
	Invocations uint64
	Relocations uint64 // relocator consultations: the resolve stage's passes
	CacheHits   uint64
}

// NewBinder creates a binder that resolves through the relocation service
// at relocator.
func NewBinder(c *capsule.Capsule, relocator wire.Ref) *Binder {
	b := &Binder{
		capsule:   c,
		relocator: relocator,
		cache:     make(map[string]wire.Ref),
	}
	b.stub.Init(obs.KindStub, c.Observer(), c.Clock(), false)
	b.resolve.Init(obs.KindResolve, c.Observer(), c.Clock(), true)
	return b
}

// Stats returns a snapshot of binder counters.
func (b *Binder) Stats() BinderStats {
	st := obs.Load(&b.stats)
	st.Relocations = b.resolve.Stats().Calls
	return st
}

// ResolveLatency snapshots the relocator-consultation latency histogram.
func (b *Binder) ResolveLatency() obs.HistogramSnapshot {
	return b.resolve.Latency()
}

// Invoke performs an interrogation with relocation recovery.
func (b *Binder) Invoke(ctx context.Context, ref wire.Ref, op string, args []wire.Value, opts ...capsule.InvokeOption) (string, []wire.Value, error) {
	return b.InvokeWith(ctx, ref, op, args, capsule.ResolveInvokeOptions(opts...))
}

// InvokeWith is Invoke with a pre-resolved configuration.
func (b *Binder) InvokeWith(ctx context.Context, ref wire.Ref, op string, args []wire.Value, cfg capsule.InvokeConfig) (string, []wire.Value, error) {
	atomic.AddUint64(&b.stats.Invocations, 1)
	ctx, st := b.stub.Begin(ctx, obs.SpanContext{}, op, time.Time{})
	outcome, results, err := b.invokeWith(ctx, ref, op, args, cfg)
	b.stub.End(st, err)
	return outcome, results, err
}

// AnnounceWith performs a request-only invocation on ref (§5.1). It skips
// the relocation cache: the node an object left re-announces to its forward.
func (b *Binder) AnnounceWith(ctx context.Context, ref wire.Ref, op string, args []wire.Value, cfg capsule.InvokeConfig) error {
	ctx, st := b.stub.Begin(ctx, obs.SpanContext{}, op, time.Time{})
	err := b.capsule.AnnounceCtxWith(ctx, ref, op, args, cfg)
	b.stub.End(st, err)
	return err
}

func (b *Binder) invokeWith(ctx context.Context, ref wire.Ref, op string, args []wire.Value, cfg capsule.InvokeConfig) (string, []wire.Value, error) {
	// A cached relocation supersedes the caller's (possibly stale) ref.
	b.mu.RLock()
	cached, hit := b.cache[ref.ID]
	b.mu.RUnlock()
	attempt := ref
	if hit && cached.Epoch >= ref.Epoch {
		attempt = cached
		atomic.AddUint64(&b.stats.CacheHits, 1)
	}

	outcome, results, err := b.capsule.InvokeWith(ctx, attempt, op, args, cfg)
	if err == nil || !isRelocatable(err) {
		return outcome, results, err
	}

	fresh, rerr := b.relocate(ctx, ref.ID)
	if rerr != nil {
		return "", nil, fmt.Errorf("naming: invoke failed (%v) and relocation failed: %w", err, rerr)
	}
	b.mu.Lock()
	b.cache[ref.ID] = fresh
	b.mu.Unlock()
	return b.capsule.InvokeWith(ctx, fresh, op, args, cfg)
}

// relocate asks the relocation service for the current reference. The
// resolve span parents under the stub (via ctx), so a trace shows the
// relocation an invocation needed — including the nested lookup's own
// send/dispatch spans beneath it.
func (b *Binder) relocate(ctx context.Context, id string) (wire.Ref, error) {
	ctx, st := b.resolve.Begin(ctx, obs.SpanContext{}, id, time.Time{})
	outcome, results, err := b.capsule.Invoke(ctx, b.relocator, "lookup", []wire.Value{id})
	b.resolve.End(st, err)
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
