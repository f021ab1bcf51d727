package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"odp/internal/capsule"
	"odp/internal/group"
	"odp/internal/migrate"
	"odp/internal/netsim"
	"odp/internal/rpc"
	"odp/internal/security"
	"odp/internal/storage"
	"odp/internal/transport"
	"odp/internal/txn"
	"odp/internal/types"
	"odp/internal/wire"
)

// ledger is the running example servant: it snapshots and is typed.
type ledger struct {
	mu      sync.Mutex
	balance int64
}

func (l *ledger) Dispatch(_ context.Context, op string, args []wire.Value) (string, []wire.Value, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch op {
	case "credit":
		l.balance += args[0].(int64)
		return "ok", []wire.Value{l.balance}, nil
	case "debit":
		amt := args[0].(int64)
		if amt > l.balance {
			return "insufficient", []wire.Value{l.balance}, nil
		}
		l.balance -= amt
		return "ok", []wire.Value{l.balance}, nil
	case "balance":
		return "ok", []wire.Value{l.balance}, nil
	default:
		return "", nil, fmt.Errorf("ledger: no op %q", op)
	}
}

func (l *ledger) Snapshot() ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	buf := make([]byte, 8)
	binary.BigEndian.PutUint64(buf, uint64(l.balance))
	return buf, nil
}

func (l *ledger) Restore(data []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.balance = int64(binary.BigEndian.Uint64(data))
	return nil
}

func ledgerType() types.Type {
	return types.Type{
		Name: "Ledger",
		Ops: map[string]types.Operation{
			"credit":  {Args: []types.Desc{types.Int}, Outcomes: map[string][]types.Desc{"ok": {types.Int}}},
			"debit":   {Args: []types.Desc{types.Int}, Outcomes: map[string][]types.Desc{"ok": {types.Int}, "insufficient": {types.Int}}},
			"balance": {Outcomes: map[string][]types.Desc{"ok": {types.Int}}},
		},
	}
}

var ledgerReadOnly = map[string]bool{"balance": true}

type coreEnv struct {
	t      *testing.T
	fabric *netsim.Fabric
}

func newCoreEnv(t *testing.T, opts ...netsim.Option) *coreEnv {
	t.Helper()
	f := netsim.NewFabric(opts...)
	t.Cleanup(func() { _ = f.Close() })
	return &coreEnv{t: t, fabric: f}
}

func (e *coreEnv) endpoint(name string) transport.Endpoint {
	ep, err := e.fabric.Endpoint(name)
	if err != nil {
		e.t.Fatal(err)
	}
	return ep
}

func (e *coreEnv) platform(name string, opts ...Option) *Platform {
	e.t.Helper()
	p, err := NewPlatform(name, e.endpoint(name), opts...)
	if err != nil {
		e.t.Fatal(err)
	}
	e.t.Cleanup(func() { _ = p.Close() })
	return p
}

func TestPublishBareAndInvoke(t *testing.T) {
	e := newCoreEnv(t)
	server := e.platform("server")
	client := e.platform("client", WithRelocator(server.RelocRef))

	ref, err := server.Publish("ledger", Object{Servant: &ledger{balance: 10}, Type: ledgerType()})
	if err != nil {
		t.Fatal(err)
	}
	proxy := client.Bind(ref)
	out, err := proxy.Call(context.Background(), "credit", int64(5))
	if err != nil || !out.Is("ok") {
		t.Fatalf("credit: %+v %v", out, err)
	}
	if n, _ := out.Int(0); n != 15 {
		t.Fatalf("balance %d", n)
	}
	// Declared application outcomes flow through.
	out, err = proxy.Call(context.Background(), "debit", int64(999))
	if err != nil || !out.Is("insufficient") {
		t.Fatalf("debit: %+v %v", out, err)
	}
	// Early type checking is on.
	if _, err := proxy.Call(context.Background(), "credit", "five"); err == nil {
		t.Fatal("type checking lost")
	}
}

// The credential is a value like any other: it must survive the text
// representation's translation as it does the packed one's (§4.2).
func TestWeaverSecured(t *testing.T) {
	for _, codec := range []wire.Codec{wire.PackedCodec{}, wire.TextCodec{}} {
		t.Run(codec.Name(), func(t *testing.T) {
			e := newCoreEnv(t)
			server := e.platform("server", WithCodec(codec))
			client := e.platform("client", WithCodec(codec), WithRelocator(server.RelocRef))
			server.Keys.Share("alice", []byte("s3cret"))

			ref, err := server.Publish("ledger", Object{
				Servant: &ledger{},
				Type:    ledgerType(),
				Env: Env{Secured: &SecureSpec{Policy: security.Policy{Rules: []security.Rule{
					{Principal: "alice", Op: "*", Allow: true},
				}}}},
			})
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			// Unauthenticated: refused.
			if _, err := client.Bind(ref).Call(ctx, "balance"); !errors.Is(err, rpc.ErrDenied) {
				t.Fatalf("unauthenticated: want ErrDenied, got %v", err)
			}
			// Authenticated: admitted, plain and sealed. The application
			// code only gained a signer; the invocation shape is unchanged.
			alice := security.NewSigner("alice", []byte("s3cret"))
			for _, alice.Seal = range []bool{false, true} {
				out, err := client.Bind(ref).WithSigner(alice).Call(ctx, "credit", int64(3))
				if err != nil || !out.Is("ok") {
					t.Fatalf("authenticated (sealed %v): %+v %v", alice.Seal, out, err)
				}
			}
		})
	}
}

func TestWeaverAtomic(t *testing.T) {
	e := newCoreEnv(t)
	server := e.platform("server")
	client := e.platform("client", WithRelocator(server.RelocRef))

	mk := func(id string, balance int64) wire.Ref {
		ref, err := server.Publish(id, Object{
			Servant: &ledger{balance: balance},
			Type:    ledgerType(),
			Env: Env{Atomic: &AtomicSpec{
				Separation: txn.Separation{ReadOnly: ledgerReadOnly},
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return ref
	}
	refA := mk("acctA", 100)
	refB := mk("acctB", 0)

	ctx := context.Background()
	tx := client.Coordinator.Begin()
	if out, _, err := tx.Invoke(ctx, refA, "debit", []wire.Value{int64(30)}); err != nil || out != "ok" {
		t.Fatalf("debit: %q %v", out, err)
	}
	if out, _, err := tx.Invoke(ctx, refB, "credit", []wire.Value{int64(30)}); err != nil || out != "ok" {
		t.Fatalf("credit: %q %v", out, err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	out, err := client.Bind(refB).Call(ctx, "balance")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := out.Int(0); n != 30 {
		t.Fatalf("post-commit balance %d", n)
	}
}

func TestWeaverAtomicPlusRecoverableConflict(t *testing.T) {
	e := newCoreEnv(t)
	server := e.platform("server")
	_, err := server.Publish("x", Object{
		Servant: &ledger{},
		Env: Env{
			Atomic:      &AtomicSpec{},
			Recoverable: &RecoverSpec{},
		},
	})
	if !errors.Is(err, ErrEnvConflict) {
		t.Fatalf("want ErrEnvConflict, got %v", err)
	}
}

func TestWeaverNeedsSnapshot(t *testing.T) {
	e := newCoreEnv(t)
	server := e.platform("server")
	plain := capsule.ServantFunc(func(context.Context, string, []wire.Value) (string, []wire.Value, error) {
		return "ok", nil, nil
	})
	if _, err := server.Publish("x", Object{Servant: plain, Env: Env{Movable: true}}); !errors.Is(err, ErrNeedsSnapshot) {
		t.Fatalf("movable non-snapshotter: %v", err)
	}
	if _, err := server.Publish("y", Object{Servant: plain, Env: Env{Atomic: &AtomicSpec{}}}); !errors.Is(err, ErrNeedsSnapshot) {
		t.Fatalf("atomic non-snapshotter: %v", err)
	}
}

func TestWeaverRecoverableSurvivesCrash(t *testing.T) {
	e := newCoreEnv(t)
	store := newSharedStore()
	server := e.platform("node1", WithStore(store))
	client := e.platform("client", WithRelocator(server.RelocRef))

	ref, err := server.Publish("ledger", Object{
		Servant: &ledger{},
		Type:    ledgerType(),
		Env:     Env{Recoverable: &RecoverSpec{ReadOnly: ledgerReadOnly}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := client.Bind(ref).Call(ctx, "credit", int64(10)); err != nil {
			t.Fatal(err)
		}
	}
	// Crash node1; recover on node2 (shared store, same relocator).
	_ = server.Capsule.Close()
	e.fabric.Isolate("node1", true)
	// The relocator lived on node1 too; host a fresh one for recovery.
	reloc := e.platform("reloc")
	node2 := e.platform("node2", WithStore(store), WithRelocator(reloc.RelocRef))
	node2.Mover.RegisterFactory("Ledger", func() migrate.Servant { return &ledger{} })

	newRef, err := node2.Mover.Recover(ctx, "ledger", "Ledger", ledgerReadOnly, ref.Epoch+1)
	if err != nil {
		t.Fatal(err)
	}
	client2 := e.platform("client2", WithRelocator(reloc.RelocRef))
	out, err := client2.Bind(newRef).Call(ctx, "balance")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := out.Int(0); n != 50 {
		t.Fatalf("recovered balance %d, want 50", n)
	}
}

func TestWeaverManagedInstrumentation(t *testing.T) {
	e := newCoreEnv(t)
	server := e.platform("server")
	client := e.platform("client", WithRelocator(server.RelocRef))
	ref, err := server.Publish("ledger", Object{
		Servant: &ledger{},
		Type:    ledgerType(),
		Env:     Env{Managed: &ManagedSpec{MetricPrefix: "ledger"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if _, err := client.Bind(ref).Call(ctx, "balance"); err != nil {
			t.Fatal(err)
		}
	}
	if got := server.Gather()["registry.c.ledger.calls"]; got != uint64(4) {
		t.Fatalf("instrumented calls %v", got)
	}
	// And the management interface serves the numbers remotely.
	out, err := client.Bind(server.Agent.Ref()).Call(ctx, "gather")
	if err != nil || !out.Is("ok") {
		t.Fatal(err)
	}
	rec := out.Result(0).(wire.Record)
	if rec["registry.c.ledger.calls"] != uint64(4) {
		t.Fatalf("remote gather %v", rec)
	}
}

func TestWeaverLeased(t *testing.T) {
	e := newCoreEnv(t)
	server := e.platform("server", WithGCGrace(20*time.Millisecond))
	collected := make(chan string, 1)
	_, err := server.Publish("ephemeral", Object{
		Servant: &ledger{},
		Env: Env{Leased: &LeaseSpec{OnCollect: func(id string) {
			collected <- id
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(40 * time.Millisecond)
	victims := server.Collector.Sweep()
	if len(victims) != 1 {
		t.Fatalf("swept %v", victims)
	}
	select {
	case id := <-collected:
		if id != "ephemeral" {
			t.Fatalf("collected %q", id)
		}
	default:
		t.Fatal("OnCollect not called")
	}
}

func TestPublishReplicated(t *testing.T) {
	e := newCoreEnv(t)
	ps := []*Platform{e.platform("r0"), e.platform("r1"), e.platform("r2")}
	rep, err := PublishReplicated(ps, ReplicaSpec{
		GroupID:           "ledger",
		Mode:              group.ModeActive,
		HeartbeatInterval: 25 * time.Millisecond,
		FailureTimeout:    250 * time.Millisecond,
	}, func() capsule.Servant { return &ledger{} })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rep.Stop)

	client := e.platform("client", WithRelocator(ps[0].RelocRef))
	ctx := context.Background()
	proxy := client.Bind(rep.Ref())
	for i := 0; i < 5; i++ {
		out, err := proxy.Call(ctx, "credit", int64(10))
		if err != nil || !out.Is("ok") {
			t.Fatalf("credit %d: %+v %v", i, out, err)
		}
	}
	out, err := proxy.Call(ctx, "balance")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := out.Int(0); n != 50 {
		t.Fatalf("replicated balance %d", n)
	}
}

func TestProxyOutcomeHelpers(t *testing.T) {
	out := Outcome{Name: "ok", Results: []wire.Value{int64(1), "two", wire.Ref{ID: "r"}}}
	if !out.Is("ok") || out.Is("fail") {
		t.Fatal("Is broken")
	}
	if n, err := out.Int(0); err != nil || n != 1 {
		t.Fatalf("Int: %d %v", n, err)
	}
	if s, err := out.Str(1); err != nil || s != "two" {
		t.Fatalf("Str: %q %v", s, err)
	}
	if r, err := out.RefAt(2); err != nil || r.ID != "r" {
		t.Fatalf("RefAt: %v %v", r, err)
	}
	if _, err := out.Int(1); err == nil {
		t.Fatal("Int on string succeeded")
	}
	if out.Result(99) != nil {
		t.Fatal("out-of-range result not nil")
	}
}

func newSharedStore() *storage.FileStore { return storage.NewMemStore() }
