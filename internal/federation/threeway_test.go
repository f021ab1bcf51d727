// Three-way federation across three domains and the platform's two wire
// technologies: two packed domains and a textual far domain. Every hop
// re-marshals under the receiving domain's codec, so one invocation
// crosses packed → packed → text on the way out and back again: the
// second gateway translates (§5.6), the first only relays.
package federation

import (
	"context"
	"testing"

	"odp/internal/capsule"
	"odp/internal/clock"
	"odp/internal/netsim"
	"odp/internal/transport"
	"odp/internal/wire"
)

// threeDomains bridges fabrics A and B (packed) and C (text) with
// gateways A↔B and B↔C.
type threeDomains struct {
	clientA *capsule.Capsule
	serverC *capsule.Capsule
	gwAB    *Gateway
	gwBC    *Gateway
}

func newThreeDomains(t *testing.T) *threeDomains {
	t.Helper()
	fabA, fabB, fabC := netsim.NewFabric(), netsim.NewFabric(), netsim.NewFabric()
	t.Cleanup(func() { _ = fabA.Close(); _ = fabB.Close(); _ = fabC.Close() })
	mk := func(f *netsim.Fabric, name string, codec wire.Codec) *capsule.Capsule {
		ep, err := f.Endpoint(name)
		if err != nil {
			t.Fatal(err)
		}
		c := capsule.New(name, transport.NewCoalescer(ep, clock.Real{}, nil), codec)
		t.Cleanup(func() { _ = c.Close() })
		return c
	}
	d := &threeDomains{
		clientA: mk(fabA, "client-a", wire.PackedCodec{}),
		serverC: mk(fabC, "server-c", wire.TextCodec{}),
	}
	gwABa := mk(fabA, "gw-ab-a", wire.PackedCodec{})
	gwABb := mk(fabB, "gw-ab-b", wire.PackedCodec{})
	gwBCb := mk(fabB, "gw-bc-b", wire.PackedCodec{})
	gwBCc := mk(fabC, "gw-bc-c", wire.TextCodec{})
	d.gwAB = New("gw-ab", gwABa, gwABb, nil)
	d.gwBC = New("gw-bc", gwBCb, gwBCc, nil)
	return d
}

// export chains target (living in domain C) through both gateways and
// returns the proxy reference usable from domain A.
func (d *threeDomains) export(t *testing.T, target wire.Ref) wire.Ref {
	t.Helper()
	inB, err := d.gwBC.Export(target, SideB)
	if err != nil {
		t.Fatal(err)
	}
	inA, err := d.gwAB.Export(inB, SideB)
	if err != nil {
		t.Fatal(err)
	}
	return inA
}

// TestThreeWayTranslation drives values from the first packed domain
// through the second into the text domain and back,
// checking that they survive both crossings and that every call of the
// first hop, the very first included, ran packed.
func TestThreeWayTranslation(t *testing.T) {
	d := newThreeDomains(t)
	store := &dict{m: map[string]string{"greeting": "hello from C"}}
	refC, err := d.serverC.Export(store)
	if err != nil {
		t.Fatal(err)
	}
	proxy := d.export(t, refC)
	ctx := context.Background()

	// Domain A's coalescers batch from the first frame; every call, the
	// first included, must come back whole.
	const gets = 20
	for i := 0; i < gets; i++ {
		outcome, res, err := d.clientA.Invoke(ctx, proxy, "get", []wire.Value{"greeting"})
		if err != nil || outcome != "ok" || res[0] != "hello from C" {
			t.Fatalf("three-way get: %q %v %v", outcome, res, err)
		}
	}
	if got := d.clientA.Client().Stats().PackedUpgrades; got != gets {
		t.Fatalf("domain A sent %d of %d calls packed", got, gets)
	}
	outcome, _, err := d.clientA.Invoke(ctx, proxy, "put", []wire.Value{"k", "written from A"})
	if err != nil || outcome != "ok" {
		t.Fatalf("three-way put: %q %v", outcome, err)
	}
	outcome, res, err := d.clientA.Invoke(ctx, proxy, "get", []wire.Value{"k"})
	if err != nil || outcome != "ok" || res[0] != "written from A" {
		t.Fatalf("read-back: %q %v %v", outcome, res, err)
	}
	if ab, bc := d.gwAB.Stats(), d.gwBC.Stats(); ab.AtoB == 0 || bc.BtoA != 0 && bc.AtoB == 0 {
		t.Fatalf("crossings unaccounted: AB %+v BC %+v", ab, bc)
	}
}

// TestThreeWayRefCrossing passes a reference from the packed domain all
// the way into the text domain; the far side must receive a proxy it
// can invoke, with the reply traversing both gateways back.
func TestThreeWayRefCrossing(t *testing.T) {
	d := newThreeDomains(t)
	far := &echoRef{}
	refC, err := d.serverC.Export(far)
	if err != nil {
		t.Fatal(err)
	}
	proxy := d.export(t, refC)
	ctx := context.Background()

	home := &echoRef{}
	refA, err := d.clientA.Export(home)
	if err != nil {
		t.Fatal(err)
	}
	outcome, res, err := d.clientA.Invoke(ctx, proxy, "take", []wire.Value{refA})
	if err != nil || outcome != "ok" {
		t.Fatalf("take across two boundaries: %q %v", outcome, err)
	}
	// take echoes its argument, so the returned ref — after crossing
	// back twice — must again denote the home object: invoking it from
	// A is a poke of home (unwrapped or re-proxied, either way usable).
	back, ok := res[0].(wire.Ref)
	if !ok {
		t.Fatalf("result is %T, want wire.Ref", res[0])
	}
	if _, _, err := d.clientA.Invoke(ctx, back, "poke", nil); err != nil {
		t.Fatalf("poke via returned ref: %v", err)
	}
	// The ref the far domain recorded must be a usable proxy too: C
	// pokes the object that lives in A through both gateways.
	far.mu.Lock()
	seen := append([]wire.Ref(nil), far.seen...)
	far.mu.Unlock()
	if len(seen) != 1 {
		t.Fatalf("far side saw %d refs", len(seen))
	}
	if _, _, err := d.serverC.Invoke(ctx, seen[0], "poke", nil); err != nil {
		t.Fatalf("far-side poke back into A: %v", err)
	}
	home.mu.Lock()
	poked := home.poked
	home.mu.Unlock()
	if poked != 2 {
		t.Fatalf("home object poked %d times, want 2 (once via the echoed ref, once from C)", poked)
	}
}
