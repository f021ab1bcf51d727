package gc

import (
	"context"
	"fmt"
	"odp/internal/transport"
	"sync"
	"testing"
	"time"

	"odp/internal/capsule"
	"odp/internal/clock"
	"odp/internal/netsim"
	"odp/internal/rpc"
	"odp/internal/wire"
)

var codec = wire.PackedCodec{}

type gcEnv struct {
	t         *testing.T
	fabric    *netsim.Fabric
	server    *capsule.Capsule
	client    *capsule.Capsule
	collector *Collector
}

func newGCEnv(t *testing.T, grace time.Duration) *gcEnv {
	t.Helper()
	f := netsim.NewFabric()
	t.Cleanup(func() { _ = f.Close() })
	mk := func(name string) *capsule.Capsule {
		ep, err := f.Endpoint(name)
		if err != nil {
			t.Fatal(err)
		}
		c := capsule.New(name, transport.NewCoalescer(ep, clock.Real{}, nil), codec)
		t.Cleanup(func() { _ = c.Close() })
		return c
	}
	server := mk("server")
	client := mk("client")
	col, err := New(server, grace)
	if err != nil {
		t.Fatal(err)
	}
	return &gcEnv{t: t, fabric: f, server: server, client: client, collector: col}
}

// exportTracked exports a trivial servant with GC tracking.
func (e *gcEnv) exportTracked(id string, collectedInto *[]string, mu *sync.Mutex) wire.Ref {
	e.t.Helper()
	onCollect := func(id string) {
		if collectedInto != nil {
			mu.Lock()
			*collectedInto = append(*collectedInto, id)
			mu.Unlock()
		}
	}
	interceptor := e.collector.Track(id, onCollect)
	ref, err := e.server.Export(capsule.ServantFunc(
		func(context.Context, string, []wire.Value) (string, []wire.Value, error) {
			return "ok", nil, nil
		}),
		capsule.WithID(id),
		capsule.WithInterceptors(interceptor))
	if err != nil {
		e.t.Fatal(err)
	}
	return ref
}

func TestSweepCollectsUnreferencedPassive(t *testing.T) {
	e := newGCEnv(t, 20*time.Millisecond)
	var collected []string
	var mu sync.Mutex
	_ = e.exportTracked("obj1", &collected, &mu)
	_ = e.exportTracked("obj2", &collected, &mu)

	time.Sleep(40 * time.Millisecond) // pass the activity grace window
	victims := e.collector.Sweep()
	if len(victims) != 2 {
		t.Fatalf("swept %v", victims)
	}
	mu.Lock()
	n := len(collected)
	mu.Unlock()
	if n != 2 {
		t.Fatalf("onCollect ran %d times", n)
	}
	if e.server.Hosts("obj1") || e.server.Hosts("obj2") {
		t.Fatal("collected objects still exported")
	}
	if e.collector.Collected() != 2 {
		t.Fatalf("collected counter %d", e.collector.Collected())
	}
}

func TestLeaseKeepsObjectAlive(t *testing.T) {
	e := newGCEnv(t, 10*time.Millisecond)
	ref := e.exportTracked("precious", nil, nil)
	if err := e.collector.Renew("precious", "client-1", time.Minute); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if victims := e.collector.Sweep(); len(victims) != 0 {
		t.Fatalf("leased object collected: %v", victims)
	}
	if _, _, err := e.client.Invoke(context.Background(), ref, "ping", nil); err != nil {
		t.Fatalf("leased object unreachable: %v", err)
	}
}

// TestTrackAgainKeepsLeases: a new incarnation of a tracked object is
// tracked again, and that must not wipe the leases its clients hold.
// Only a collected id starts afresh.
func TestTrackAgainKeepsLeases(t *testing.T) {
	e := newGCEnv(t, time.Second)
	clk := clock.NewFake(time.Unix(1000, 0))
	e.collector.now = clk.Now
	e.collector.Track("obj", nil)
	if err := e.collector.Renew("obj", "client-1", time.Minute); err != nil {
		t.Fatal(err)
	}
	e.collector.Track("obj", nil)
	clk.Advance(2 * time.Second) // past the activity grace, inside the lease
	if victims := e.collector.Sweep(); len(victims) != 0 {
		t.Fatalf("second Track dropped the lease: swept %v", victims)
	}
	clk.Advance(time.Minute)
	if victims := e.collector.Sweep(); len(victims) != 1 {
		t.Fatalf("expired lease: swept %v, want [obj]", victims)
	}
	e.collector.Track("obj", nil)
	if err := e.collector.Renew("obj", "client-1", time.Minute); err != nil {
		t.Fatalf("collected id tracked again is unknown: %v", err)
	}
}

func TestExpiredLeaseCollected(t *testing.T) {
	e := newGCEnv(t, 10*time.Millisecond)
	_ = e.exportTracked("fleeting", nil, nil)
	if err := e.collector.Renew("fleeting", "client-1", 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if victims := e.collector.Sweep(); len(victims) != 1 {
		t.Fatalf("expired-lease object not collected: %v", victims)
	}
}

func TestActiveObjectNotCollected(t *testing.T) {
	// "only passive objects need be considered — active ones cannot be
	// garbage by definition".
	e := newGCEnv(t, 200*time.Millisecond)
	ref := e.exportTracked("busy", nil, nil)
	// No lease at all, but recent invocations keep it active.
	if _, _, err := e.client.Invoke(context.Background(), ref, "work", nil); err != nil {
		t.Fatal(err)
	}
	if victims := e.collector.Sweep(); len(victims) != 0 {
		t.Fatalf("active object collected: %v", victims)
	}
}

// Calls stamp an object's activity while Sweep reads it. The stamp takes
// no collector lock, so under -race this test is what watches the two
// sides: no sweep during the calls collects the object, the first sweep
// after a grace without calls does.
func TestActivityStampedConcurrently(t *testing.T) {
	e := newGCEnv(t, time.Second)
	clk := clock.NewFake(time.Unix(1000, 0))
	e.collector.now = clk.Now
	var collected []string
	var mu sync.Mutex
	servant := e.collector.Track("obj", func(id string) {
		mu.Lock()
		collected = append(collected, id)
		mu.Unlock()
	})(capsule.ServantFunc(func(context.Context, string, []wire.Value) (string, []wire.Value, error) {
		return "ok", nil, nil
	}))
	call := func() {
		if _, _, err := servant.Dispatch(context.Background(), "ping", nil); err != nil {
			t.Error(err)
		}
	}
	clk.Advance(2 * time.Second) // idle past the grace: only a call saves it
	call()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				call()
			}
		}()
	}
	for i := 0; i < 100; i++ {
		if victims := e.collector.Sweep(); len(victims) != 0 {
			t.Fatalf("sweep %d collected an object being called: %v", i, victims)
		}
	}
	wg.Wait()
	clk.Advance(2 * time.Second)
	if victims := e.collector.Sweep(); len(victims) != 1 {
		t.Fatalf("idle object: swept %v, want [obj]", victims)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(collected) != 1 {
		t.Fatalf("onCollect ran %d times", len(collected))
	}
}

func TestReleaseAllowsCollection(t *testing.T) {
	e := newGCEnv(t, 10*time.Millisecond)
	_ = e.exportTracked("obj", nil, nil)
	if err := e.collector.Renew("obj", "holder", time.Minute); err != nil {
		t.Fatal(err)
	}
	e.collector.Release("obj", "holder")
	time.Sleep(30 * time.Millisecond)
	if victims := e.collector.Sweep(); len(victims) != 1 {
		t.Fatalf("released object not collected: %v", victims)
	}
}

func TestMultipleHoldersAllMustExpire(t *testing.T) {
	e := newGCEnv(t, 10*time.Millisecond)
	_ = e.exportTracked("shared", nil, nil)
	if err := e.collector.Renew("shared", "h1", 30*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := e.collector.Renew("shared", "h2", time.Minute); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // h1 expired, h2 alive
	if victims := e.collector.Sweep(); len(victims) != 0 {
		t.Fatalf("object with live lease collected: %v", victims)
	}
}

func TestCloseTombstones(t *testing.T) {
	e := newGCEnv(t, time.Minute)
	ref := e.exportTracked("doomed", nil, nil)
	e.collector.Close("doomed")
	_, _, err := e.client.Invoke(context.Background(), ref, "ping", nil,
		capsule.WithQoS(rpc.QoS{Timeout: time.Second}))
	if err == nil {
		t.Fatal("closed interface still invokable")
	}
	// The error indication is explicit, not a silent no-object miss.
	if got := err.Error(); !contains(got, "explicitly closed") {
		t.Fatalf("close error %q lacks indication", got)
	}
}

func TestRemoteLeaseProtocol(t *testing.T) {
	e := newGCEnv(t, 10*time.Millisecond)
	_ = e.exportTracked("remote-held", nil, nil)
	ctx := context.Background()
	outcome, _, err := e.client.Invoke(ctx, e.collector.Ref(), "renew",
		[]wire.Value{"remote-held", "client", int64(60000)})
	if err != nil || outcome != "ok" {
		t.Fatalf("remote renew: %q %v", outcome, err)
	}
	outcome, _, err = e.client.Invoke(ctx, e.collector.Ref(), "renew",
		[]wire.Value{"no-such", "client", int64(60000)})
	if err != nil || outcome != "unknown" {
		t.Fatalf("renew unknown: %q %v", outcome, err)
	}
	time.Sleep(30 * time.Millisecond)
	if victims := e.collector.Sweep(); len(victims) != 0 {
		t.Fatalf("remotely-leased object collected: %v", victims)
	}
	outcome, _, err = e.client.Invoke(ctx, e.collector.Ref(), "release",
		[]wire.Value{"remote-held", "client"})
	if err != nil || outcome != "ok" {
		t.Fatalf("remote release: %q %v", outcome, err)
	}
	if victims := e.collector.Sweep(); len(victims) != 1 {
		t.Fatalf("after remote release: %v", victims)
	}
}

func TestHolderAutoRenewal(t *testing.T) {
	e := newGCEnv(t, 10*time.Millisecond)
	_ = e.exportTracked("kept", nil, nil)
	holder := NewHolder(e.client, "client", 60*time.Millisecond)
	t.Cleanup(holder.Stop)
	holder.Hold("kept", e.collector.Ref())

	// Several lease lifetimes pass; auto-renewal must keep it alive.
	for i := 0; i < 5; i++ {
		time.Sleep(40 * time.Millisecond)
		if victims := e.collector.Sweep(); len(victims) != 0 {
			t.Fatalf("auto-renewed object collected at round %d", i)
		}
	}
	if e.collector.Renewals() < 3 {
		t.Fatalf("too few renewals: %d", e.collector.Renewals())
	}
	// Dropping the hold releases promptly.
	holder.Drop("kept")
	time.Sleep(30 * time.Millisecond)
	if victims := e.collector.Sweep(); len(victims) != 1 {
		t.Fatalf("dropped object not collected: %v", victims)
	}
}

func TestLiveFractionShape(t *testing.T) {
	// E13's shape: with a fraction of objects leased, exactly the
	// unleased complement is reclaimed, never a leased object.
	e := newGCEnv(t, 10*time.Millisecond)
	const n = 100
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("obj-%03d", i)
		_ = e.exportTracked(id, nil, nil)
		if i%4 == 0 { // 25% live
			if err := e.collector.Renew(id, "holder", time.Minute); err != nil {
				t.Fatal(err)
			}
		}
	}
	time.Sleep(30 * time.Millisecond)
	victims := e.collector.Sweep()
	if len(victims) != n-n/4 {
		t.Fatalf("collected %d, want %d", len(victims), n-n/4)
	}
	for _, id := range victims {
		var i int
		if _, err := fmt.Sscanf(id, "obj-%03d", &i); err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 {
			t.Fatalf("live object %s collected", id)
		}
	}
}

func contains(haystack, needle string) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if haystack[i:i+len(needle)] == needle {
			return true
		}
	}
	return false
}
