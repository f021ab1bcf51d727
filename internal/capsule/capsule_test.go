package capsule

import (
	"context"
	"errors"
	"fmt"
	"odp/internal/transport"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"odp/internal/clock"
	"odp/internal/netsim"
	"odp/internal/rpc"
	"odp/internal/types"
	"odp/internal/wire"
)

var codec = wire.PackedCodec{}

func counterType() types.Type {
	return types.Type{
		Name: "Counter",
		Ops: map[string]types.Operation{
			"inc": {
				Args:     []types.Desc{types.Int},
				Outcomes: map[string][]types.Desc{"ok": {types.Int}},
			},
			"get": {
				Outcomes: map[string][]types.Desc{"ok": {types.Int}},
			},
			"log": {
				Args:         []types.Desc{types.String},
				Announcement: true,
			},
		},
	}
}

// counter is a simple thread-safe servant.
type counter struct {
	mu sync.Mutex
	n  int64
	// logs collects announcement payloads.
	logs []string
}

func (c *counter) Dispatch(_ context.Context, op string, args []wire.Value) (string, []wire.Value, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch op {
	case "inc":
		c.n += args[0].(int64)
		return "ok", []wire.Value{c.n}, nil
	case "get":
		return "ok", []wire.Value{c.n}, nil
	case "log":
		c.logs = append(c.logs, args[0].(string))
		return "", nil, nil
	default:
		return "", nil, fmt.Errorf("no op %q", op)
	}
}

func newFabric(t testing.TB, opts ...netsim.Option) *netsim.Fabric {
	t.Helper()
	f := netsim.NewFabric(opts...)
	t.Cleanup(func() { _ = f.Close() })
	return f
}

func newCapsule(t testing.TB, f *netsim.Fabric, name string, opts ...Option) *Capsule {
	t.Helper()
	ep, err := f.Endpoint(name)
	if err != nil {
		t.Fatal(err)
	}
	c := New(name, transport.NewCoalescer(ep, clock.Real{}, nil), codec, opts...)
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestExportInvokeLocal(t *testing.T) {
	f := newFabric(t)
	c := newCapsule(t, f, "n1")
	ref, err := c.Export(&counter{}, WithType(counterType()))
	if err != nil {
		t.Fatal(err)
	}
	if ref.TypeName != "Counter" || len(ref.Endpoints) != 1 {
		t.Fatalf("bad ref %v", ref)
	}
	outcome, res, err := c.Invoke(context.Background(), ref, "inc", []wire.Value{int64(5)})
	if err != nil || outcome != "ok" || res[0].(int64) != 5 {
		t.Fatalf("local invoke: %q %v %v", outcome, res, err)
	}
}

func TestInvokeRemote(t *testing.T) {
	f := newFabric(t)
	server := newCapsule(t, f, "server")
	client := newCapsule(t, f, "client")
	ref, err := server.Export(&counter{}, WithType(counterType()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		outcome, res, err := client.Invoke(context.Background(), ref, "inc", []wire.Value{int64(1)})
		if err != nil || outcome != "ok" || res[0].(int64) != int64(i) {
			t.Fatalf("remote invoke %d: %q %v %v", i, outcome, res, err)
		}
	}
}

func TestAccessTransparency(t *testing.T) {
	// The same client code must work identically whether the interface is
	// local or remote — the defining property of access transparency.
	f := newFabric(t)
	server := newCapsule(t, f, "server")
	client := newCapsule(t, f, "client")

	localRef, err := client.Export(&counter{}, WithType(counterType()))
	if err != nil {
		t.Fatal(err)
	}
	remoteRef, err := server.Export(&counter{}, WithType(counterType()))
	if err != nil {
		t.Fatal(err)
	}
	use := func(ref wire.Ref) (int64, error) {
		_, _, err := client.Invoke(context.Background(), ref, "inc", []wire.Value{int64(7)})
		if err != nil {
			return 0, err
		}
		_, res, err := client.Invoke(context.Background(), ref, "get", nil)
		if err != nil {
			return 0, err
		}
		return res[0].(int64), nil
	}
	for _, ref := range []wire.Ref{localRef, remoteRef} {
		got, err := use(ref)
		if err != nil || got != 7 {
			t.Fatalf("ref %v: got %d err %v", ref.Endpoints, got, err)
		}
	}
}

func TestEarlyTypeChecking(t *testing.T) {
	f := newFabric(t)
	c := newCapsule(t, f, "n1")
	ref, err := c.Export(&counter{}, WithType(counterType()))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := c.Invoke(ctx, ref, "inc", []wire.Value{"five"}); err == nil {
		t.Fatal("wrong argument type accepted")
	}
	if _, _, err := c.Invoke(ctx, ref, "inc", nil); err == nil {
		t.Fatal("wrong arity accepted")
	}
	if _, _, err := c.Invoke(ctx, ref, "selfDestruct", nil); err == nil {
		t.Fatal("unknown operation accepted")
	}
}

func TestOutcomeChecking(t *testing.T) {
	f := newFabric(t)
	c := newCapsule(t, f, "n1")
	bad := ServantFunc(func(_ context.Context, op string, _ []wire.Value) (string, []wire.Value, error) {
		return "undeclared-outcome", nil, nil
	})
	ref, err := c.Export(bad, WithType(counterType()))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Invoke(context.Background(), ref, "get", nil); err == nil {
		t.Fatal("undeclared outcome escaped the dispatcher")
	}
}

func TestUntypedExportSkipsChecking(t *testing.T) {
	f := newFabric(t)
	c := newCapsule(t, f, "n1")
	ref, err := c.Export(&counter{}) // legacy encapsulation, §4.3
	if err != nil {
		t.Fatal(err)
	}
	outcome, _, err := c.Invoke(context.Background(), ref, "inc", []wire.Value{int64(2)})
	if err != nil || outcome != "ok" {
		t.Fatalf("untyped invoke: %q %v", outcome, err)
	}
}

func TestInterceptorChainOrder(t *testing.T) {
	f := newFabric(t)
	c := newCapsule(t, f, "n1")
	var trace []string
	var mu sync.Mutex
	mk := func(tag string) Interceptor {
		return func(next Link) Link {
			return func(ctx context.Context, inv Invocation) (string, []wire.Value, error) {
				mu.Lock()
				trace = append(trace, tag+"-in")
				mu.Unlock()
				o, r, err := next(ctx, inv)
				mu.Lock()
				trace = append(trace, tag+"-out")
				mu.Unlock()
				return o, r, err
			}
		}
	}
	ref, err := c.Export(&counter{}, WithInterceptors(mk("outer"), mk("inner")))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Invoke(context.Background(), ref, "get", nil); err != nil {
		t.Fatal(err)
	}
	want := []string{"outer-in", "inner-in", "inner-out", "outer-out"}
	if len(trace) != 4 {
		t.Fatalf("trace %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
}

func TestUnexportYieldsNoObject(t *testing.T) {
	f := newFabric(t)
	server := newCapsule(t, f, "server")
	client := newCapsule(t, f, "client")
	ref, err := server.Export(&counter{})
	if err != nil {
		t.Fatal(err)
	}
	server.Unexport(ref.ID)
	_, _, err = client.Invoke(context.Background(), ref, "get", nil,
		WithQoS(rpc.QoS{Timeout: time.Second}))
	if !errors.Is(err, rpc.ErrNoObject) {
		t.Fatalf("want ErrNoObject, got %v", err)
	}
}

func TestForwardFollowed(t *testing.T) {
	f := newFabric(t)
	oldHome := newCapsule(t, f, "old")
	newHome := newCapsule(t, f, "new")
	client := newCapsule(t, f, "client")

	cnt := &counter{n: 41}
	oldRef, err := oldHome.Export(cnt)
	if err != nil {
		t.Fatal(err)
	}
	// Move the object: export at the new home under the same id, forward
	// at the old home.
	newRef, err := newHome.Export(cnt, WithID(oldRef.ID))
	if err != nil {
		t.Fatal(err)
	}
	newRef.Epoch = oldRef.Epoch + 1
	oldHome.SetForward(oldRef.ID, newRef)

	// A client holding the stale reference still reaches the object.
	outcome, res, err := client.Invoke(context.Background(), oldRef, "inc", []wire.Value{int64(1)})
	if err != nil || outcome != "ok" || res[0].(int64) != 42 {
		t.Fatalf("forwarded invoke: %q %v %v", outcome, res, err)
	}
}

func TestForwardLoopBounded(t *testing.T) {
	f := newFabric(t)
	a := newCapsule(t, f, "a")
	b := newCapsule(t, f, "b")
	client := newCapsule(t, f, "client")
	refA := wire.Ref{ID: "x", Endpoints: []string{a.Addr()}}
	refB := wire.Ref{ID: "x", Endpoints: []string{b.Addr()}}
	a.SetForward("x", refB)
	b.SetForward("x", refA)
	_, _, err := client.Invoke(context.Background(), refA, "get", nil,
		WithQoS(rpc.QoS{Timeout: time.Second}))
	if err == nil {
		t.Fatal("forward loop terminated without error")
	}
}

func TestActivatorReinstates(t *testing.T) {
	f := newFabric(t)
	server := newCapsule(t, f, "server")
	client := newCapsule(t, f, "client")
	var activations atomic.Int64
	server.SetActivator(func(objID string) (bool, error) {
		if objID != "server/sleeper" {
			return false, nil
		}
		activations.Add(1)
		_, err := server.Export(&counter{n: 100}, WithID(objID), WithType(counterType()))
		return err == nil, err
	})
	ref := wire.Ref{ID: "server/sleeper", TypeName: "Counter", Endpoints: []string{server.Addr()}}
	for i := 0; i < 3; i++ {
		_, res, err := client.Invoke(context.Background(), ref, "get", nil)
		if err != nil || res[0].(int64) != 100 {
			t.Fatalf("invoke %d: %v %v", i, res, err)
		}
	}
	if activations.Load() != 1 {
		t.Fatalf("activated %d times, want 1", activations.Load())
	}
}

func TestAnnouncementLocalAndRemote(t *testing.T) {
	f := newFabric(t)
	server := newCapsule(t, f, "server")
	client := newCapsule(t, f, "client")
	cnt := &counter{}
	ref, err := server.Export(cnt, WithType(counterType()))
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Announce(ref, "log", []wire.Value{"remote-event"}); err != nil {
		t.Fatal(err)
	}
	if err := server.Announce(ref, "log", []wire.Value{"local-event"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(2 * time.Second)
	for {
		cnt.mu.Lock()
		n := len(cnt.logs)
		cnt.mu.Unlock()
		if n == 2 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("announcements received: %d/2", n)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func TestDuplicateExportRejected(t *testing.T) {
	f := newFabric(t)
	c := newCapsule(t, f, "n1")
	if _, err := c.Export(&counter{}, WithID("fixed")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Export(&counter{}, WithID("fixed")); err == nil {
		t.Fatal("duplicate id accepted")
	}
}

func TestMultipleEndpointsFallback(t *testing.T) {
	// A reference may carry several access paths (§5.4); a dead first
	// endpoint must not defeat the invocation.
	f := newFabric(t)
	dead := newCapsule(t, f, "dead")
	live := newCapsule(t, f, "live")
	client := newCapsule(t, f, "client")
	_ = dead // hosts nothing

	ref, err := live.Export(&counter{n: 9})
	if err != nil {
		t.Fatal(err)
	}
	multi := ref
	multi.Endpoints = []string{dead.Addr(), live.Addr()}
	_, res, err := client.Invoke(context.Background(), multi, "get", nil,
		WithQoS(rpc.QoS{Timeout: 500 * time.Millisecond}))
	if err != nil || res[0].(int64) != 9 {
		t.Fatalf("fallback invoke: %v %v", res, err)
	}
}

func TestConcurrentInvocations(t *testing.T) {
	f := newFabric(t)
	server := newCapsule(t, f, "server")
	client := newCapsule(t, f, "client")
	cnt := &counter{}
	ref, err := server.Export(cnt, WithType(counterType()))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const workers, per = 8, 20
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, _, err := client.Invoke(context.Background(), ref, "inc",
					[]wire.Value{int64(1)}, WithQoS(rpc.QoS{Timeout: 5 * time.Second})); err != nil {
					t.Errorf("invoke: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	_, res, err := client.Invoke(context.Background(), ref, "get", nil)
	if err != nil || res[0].(int64) != workers*per {
		t.Fatalf("final count %v (err %v), want %d", res, err, workers*per)
	}
}

func TestNodeManagerBootstrapStartStop(t *testing.T) {
	f := newFabric(t)
	node := newCapsule(t, f, "node")
	client := newCapsule(t, f, "client")

	adv := &fakeAdvertiser{}
	nm, err := NewNodeManager(node, adv, []ServerSpec{
		{
			Name: "counter-a",
			Type: counterType(),
			New:  func() (Servant, error) { return &counter{}, nil },
			Properties: map[string]wire.Value{
				"zone": "east",
			},
		},
		{
			Name: "counter-b",
			Type: counterType(),
			New:  func() (Servant, error) { return &counter{}, nil },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := nm.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	if got := nm.Running(); len(got) != 2 {
		t.Fatalf("running %v", got)
	}
	if adv.count() != 2 {
		t.Fatalf("advertised %d offers, want 2", adv.count())
	}

	// Remote management: list, stop, start via the exported interface.
	ctx := context.Background()
	outcome, res, err := client.Invoke(ctx, nm.Ref(), "list", nil)
	if err != nil || outcome != "ok" || len(res[0].(wire.List)) != 2 {
		t.Fatalf("list: %q %v %v", outcome, res, err)
	}
	outcome, res, err = client.Invoke(ctx, nm.Ref(), "stop", []wire.Value{"counter-a"})
	if err != nil || outcome != "ok" {
		t.Fatalf("stop: %q %v %v", outcome, res, err)
	}
	if adv.count() != 1 {
		t.Fatalf("offer not withdrawn: %d", adv.count())
	}
	outcome, res, err = client.Invoke(ctx, nm.Ref(), "start", []wire.Value{"counter-a"})
	if err != nil || outcome != "ok" {
		t.Fatalf("start: %q %v %v", outcome, res, err)
	}
	if _, ok := res[0].(wire.Ref); !ok {
		t.Fatalf("start should return a ref, got %v", res)
	}
	outcome, res, err = client.Invoke(ctx, nm.Ref(), "stop", []wire.Value{"no-such"})
	if err != nil || outcome != "error" {
		t.Fatalf("stop unknown: %q %v %v", outcome, res, err)
	}
}

type fakeAdvertiser struct {
	mu     sync.Mutex
	nextID int
	offers map[string]bool
}

func (a *fakeAdvertiser) AdvertiseOffer(serviceType string, ref wire.Ref, props map[string]wire.Value) (string, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.offers == nil {
		a.offers = make(map[string]bool)
	}
	a.nextID++
	id := fmt.Sprintf("offer-%d", a.nextID)
	a.offers[id] = true
	return id, nil
}

func (a *fakeAdvertiser) WithdrawOffer(id string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.offers[id] {
		return errors.New("no such offer")
	}
	delete(a.offers, id)
	return nil
}

func (a *fakeAdvertiser) count() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.offers)
}

// BenchmarkCapsuleExportLookup prices the lookup every frame makes in the
// export table (Hosts, which the client's announcement asks), over eight
// exports. Run at -cpu 1,2: readers on two cores must share nothing.
func BenchmarkCapsuleExportLookup(b *testing.B) {
	c := newCapsule(b, newFabric(b), "bench")
	var ids [8]string
	for i := range ids {
		ref, err := c.Export(&counter{})
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = ref.ID
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			if !c.Hosts(ids[i&7]) {
				b.Error("an export was not found")
				return
			}
		}
	})
}
