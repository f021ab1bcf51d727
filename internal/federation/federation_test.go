package federation

import (
	"context"
	"errors"
	"fmt"
	"odp/internal/transport"
	"sync"
	"testing"

	"odp/internal/capsule"
	"odp/internal/clock"
	"odp/internal/netsim"
	"odp/internal/rpc"
	"odp/internal/wire"
)

// twoDomains builds two genuinely separate fabrics — domain A speaks the
// packed codec, domain B the textual codec — bridged by one gateway.
type twoDomains struct {
	t        *testing.T
	fabA     *netsim.Fabric
	fabB     *netsim.Fabric
	gateway  *Gateway
	clientA  *capsule.Capsule
	serverB  *capsule.Capsule
	policyMu sync.Mutex
	policy   Policy
}

func newTwoDomains(t *testing.T) *twoDomains {
	t.Helper()
	d := &twoDomains{
		t:    t,
		fabA: netsim.NewFabric(),
		fabB: netsim.NewFabric(),
	}
	t.Cleanup(func() { _ = d.fabA.Close(); _ = d.fabB.Close() })
	mk := func(f *netsim.Fabric, name string, codec wire.Codec) *capsule.Capsule {
		ep, err := f.Endpoint(name)
		if err != nil {
			t.Fatal(err)
		}
		c := capsule.New(name, transport.NewCoalescer(ep, clock.Real{}, nil), codec)
		t.Cleanup(func() { _ = c.Close() })
		return c
	}
	d.clientA = mk(d.fabA, "client-a", wire.PackedCodec{})
	d.serverB = mk(d.fabB, "server-b", wire.TextCodec{})
	gwA := mk(d.fabA, "gw-a", wire.PackedCodec{})
	gwB := mk(d.fabB, "gw-b", wire.TextCodec{})
	d.gateway = New("gw", gwA, gwB, func(from Side, target wire.Ref, op string) error {
		d.policyMu.Lock()
		defer d.policyMu.Unlock()
		if d.policy == nil {
			return nil
		}
		return d.policy(from, target, op)
	})
	return d
}

// dict is a simple dictionary servant in domain B.
type dict struct {
	mu sync.Mutex
	m  map[string]string
}

func (d *dict) Dispatch(_ context.Context, op string, args []wire.Value) (string, []wire.Value, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch op {
	case "put":
		d.m[args[0].(string)] = args[1].(string)
		return "ok", nil, nil
	case "get":
		v, ok := d.m[args[0].(string)]
		if !ok {
			return "missing", nil, nil
		}
		return "ok", []wire.Value{v}, nil
	default:
		return "", nil, fmt.Errorf("dict: no op %q", op)
	}
}

func TestDomainsAreSeparate(t *testing.T) {
	d := newTwoDomains(t)
	refB, err := d.serverB.Export(&dict{m: map[string]string{}})
	if err != nil {
		t.Fatal(err)
	}
	// A client in domain A cannot reach a domain-B reference directly.
	if _, _, err := d.clientA.Invoke(context.Background(), refB, "get",
		[]wire.Value{"k"}); err == nil {
		t.Fatal("cross-domain invoke without gateway succeeded")
	}
}

func TestCrossDomainInvocationThroughGateway(t *testing.T) {
	d := newTwoDomains(t)
	refB, err := d.serverB.Export(&dict{m: map[string]string{"greeting": "hello"}})
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := d.gateway.Export(refB, SideB)
	if err != nil {
		t.Fatal(err)
	}
	// The proxy is context-qualified with the gateway's name.
	if len(proxy.Context) != 1 || proxy.Context[0] != "gw" {
		t.Fatalf("proxy context %v", proxy.Context)
	}
	ctx := context.Background()
	outcome, res, err := d.clientA.Invoke(ctx, proxy, "get", []wire.Value{"greeting"})
	if err != nil || outcome != "ok" || res[0] != "hello" {
		t.Fatalf("cross invoke: %q %v %v", outcome, res, err)
	}
	outcome, _, err = d.clientA.Invoke(ctx, proxy, "put", []wire.Value{"k", "v"})
	if err != nil || outcome != "ok" {
		t.Fatalf("cross put: %q %v", outcome, err)
	}
	st := d.gateway.Stats()
	if st.AtoB != 2 || st.BtoA != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestPolicyRefusesCrossing(t *testing.T) {
	d := newTwoDomains(t)
	refB, err := d.serverB.Export(&dict{m: map[string]string{}})
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := d.gateway.Export(refB, SideB)
	if err != nil {
		t.Fatal(err)
	}
	d.policyMu.Lock()
	d.policy = func(from Side, target wire.Ref, op string) error {
		if op == "put" {
			return errors.New("writes may not cross this boundary")
		}
		return nil
	}
	d.policyMu.Unlock()
	ctx := context.Background()
	if _, _, err := d.clientA.Invoke(ctx, proxy, "put", []wire.Value{"k", "v"}); !errors.Is(err, rpc.ErrDenied) {
		t.Fatalf("policy crossing: want ErrDenied, got %v", err)
	}
	if outcome, _, err := d.clientA.Invoke(ctx, proxy, "get", []wire.Value{"k"}); err != nil || outcome != "missing" {
		t.Fatalf("read crossing: %q %v", outcome, err)
	}
	if d.gateway.Stats().Refused != 1 {
		t.Fatalf("refusals %d", d.gateway.Stats().Refused)
	}
}

// echoRef returns whatever ref argument it is given, plus serves "poke".
type echoRef struct {
	mu    sync.Mutex
	seen  []wire.Ref
	poked int
}

func (e *echoRef) Dispatch(_ context.Context, op string, args []wire.Value) (string, []wire.Value, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch op {
	case "take":
		ref, ok := args[0].(wire.Ref)
		if !ok {
			return "", nil, fmt.Errorf("take wants a ref, got %T", args[0])
		}
		e.seen = append(e.seen, ref)
		return "ok", []wire.Value{ref}, nil
	case "poke":
		e.poked++
		return "ok", []wire.Value{int64(e.poked)}, nil
	default:
		return "", nil, fmt.Errorf("no op %q", op)
	}
}

func TestRefCrossingCreatesUsableProxy(t *testing.T) {
	// A reference passed as an argument across the boundary must arrive
	// as a proxy the receiver can actually invoke (the "proxy objects in
	// each domain" of §5.6).
	d := newTwoDomains(t)
	bSide := &echoRef{}
	refB, err := d.serverB.Export(bSide)
	if err != nil {
		t.Fatal(err)
	}
	proxyInA, err := d.gateway.Export(refB, SideB)
	if err != nil {
		t.Fatal(err)
	}
	// Domain A exports a callback object and passes its ref to B.
	aSide := &echoRef{}
	refA, err := d.clientA.Export(aSide)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	outcome, res, err := d.clientA.Invoke(ctx, proxyInA, "take", []wire.Value{refA})
	if err != nil || outcome != "ok" {
		t.Fatalf("take: %q %v", outcome, err)
	}
	// What B received is a proxy, not the raw domain-A ref.
	bSide.mu.Lock()
	got := bSide.seen[0]
	bSide.mu.Unlock()
	if got.ID == refA.ID {
		t.Fatal("raw domain-A reference leaked into domain B")
	}
	if len(got.Context) == 0 || got.Context[0] != "gw" {
		t.Fatalf("crossed ref lacks context: %v", got)
	}
	// B can invoke the proxy and reach the object in A.
	outcome, pres, err := d.serverB.Invoke(ctx, got, "poke", nil)
	if err != nil || outcome != "ok" || pres[0].(int64) != 1 {
		t.Fatalf("B->A callback: %q %v %v", outcome, pres, err)
	}
	if d.gateway.Stats().BtoA != 1 {
		t.Fatalf("BtoA crossings %d", d.gateway.Stats().BtoA)
	}
	// The result of "take" came back to A: it must have been unwrapped
	// back to the original domain-A reference, not double-proxied.
	back, ok := res[0].(wire.Ref)
	if !ok {
		t.Fatalf("result %T", res[0])
	}
	if back.ID != refA.ID {
		t.Fatalf("returned ref %v, want original %v", back, refA)
	}
}

func TestProxyDeduplication(t *testing.T) {
	d := newTwoDomains(t)
	refB, err := d.serverB.Export(&dict{m: map[string]string{}})
	if err != nil {
		t.Fatal(err)
	}
	p1, err := d.gateway.Export(refB, SideB)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := d.gateway.Export(refB, SideB)
	if err != nil {
		t.Fatal(err)
	}
	if !wire.Equal(p1, p2) {
		t.Fatalf("duplicate proxies for the same target: %v vs %v", p1, p2)
	}
	if d.gateway.Stats().Proxies != 1 {
		t.Fatalf("proxy count %d", d.gateway.Stats().Proxies)
	}
}

func TestNestedRefsInsideContainersCross(t *testing.T) {
	d := newTwoDomains(t)
	bSide := &echoRef{}
	refB, err := d.serverB.Export(capsule.ServantFunc(
		func(_ context.Context, op string, args []wire.Value) (string, []wire.Value, error) {
			rec := args[0].(wire.Record)
			inner := rec["cb"].(wire.Ref)
			bSide.mu.Lock()
			bSide.seen = append(bSide.seen, inner)
			bSide.mu.Unlock()
			return "ok", nil, nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := d.gateway.Export(refB, SideB)
	if err != nil {
		t.Fatal(err)
	}
	refA, err := d.clientA.Export(&echoRef{})
	if err != nil {
		t.Fatal(err)
	}
	payload := wire.Record{"cb": refA, "note": "nested"}
	outcome, _, err := d.clientA.Invoke(context.Background(), proxy, "deliver", []wire.Value{payload})
	if err != nil || outcome != "ok" {
		t.Fatalf("deliver: %q %v", outcome, err)
	}
	bSide.mu.Lock()
	inner := bSide.seen[0]
	bSide.mu.Unlock()
	if inner.ID == refA.ID {
		t.Fatal("nested ref crossed unproxied")
	}
}
