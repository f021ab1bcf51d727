package naming

import (
	"context"
	"errors"
	"fmt"
	"odp/internal/transport"
	"testing"
	"testing/quick"
	"time"

	"odp/internal/capsule"
	"odp/internal/clock"
	"odp/internal/netsim"
	"odp/internal/obs"
	"odp/internal/rpc"
	"odp/internal/wire"
)

var codec = wire.PackedCodec{}

func TestTableRegisterLookup(t *testing.T) {
	tb := NewTable()
	if tb.Len() != 0 {
		t.Fatal("new table not empty")
	}
	ref := wire.Ref{ID: "x", Endpoints: []string{"ep1"}, Epoch: 1}
	tb.Register(ref)
	got, err := tb.Lookup("x")
	if err != nil || !wire.Equal(got, ref) {
		t.Fatalf("lookup: %v %v", got, err)
	}
	if _, err := tb.Lookup("missing"); !errors.Is(err, ErrUnknownInterface) {
		t.Fatalf("want ErrUnknownInterface, got %v", err)
	}
	tb.Unregister("x")
	if _, err := tb.Lookup("x"); err == nil {
		t.Fatal("lookup after unregister succeeded")
	}
}

func TestTableStaleEpochIgnored(t *testing.T) {
	tb := NewTable()
	tb.Register(wire.Ref{ID: "x", Endpoints: []string{"new"}, Epoch: 5})
	tb.Register(wire.Ref{ID: "x", Endpoints: []string{"old"}, Epoch: 3})
	got, err := tb.Lookup("x")
	if err != nil || got.Endpoints[0] != "new" {
		t.Fatalf("stale registration overwrote fresher one: %v %v", got, err)
	}
	// Equal epoch replaces (idempotent re-registration).
	tb.Register(wire.Ref{ID: "x", Endpoints: []string{"same"}, Epoch: 5})
	got, _ = tb.Lookup("x")
	if got.Endpoints[0] != "same" {
		t.Fatalf("same-epoch re-registration ignored: %v", got)
	}
}

func TestTableIsolation(t *testing.T) {
	tb := NewTable()
	ref := wire.Ref{ID: "x", Endpoints: []string{"ep1"}}
	tb.Register(ref)
	ref.Endpoints[0] = "mutated"
	got, _ := tb.Lookup("x")
	if got.Endpoints[0] != "ep1" {
		t.Fatal("table shares storage with caller")
	}
	got.Endpoints[0] = "mutated2"
	again, _ := tb.Lookup("x")
	if again.Endpoints[0] != "ep1" {
		t.Fatal("table shares storage with lookup result")
	}
}

func TestParseAndFormatName(t *testing.T) {
	tests := []struct {
		give    string
		wantCtx int
		local   string
		wantErr bool
	}{
		{give: "svc", wantCtx: 0, local: "svc"},
		{give: "org!svc", wantCtx: 1, local: "svc"},
		{give: "a!b!c!svc", wantCtx: 3, local: "svc"},
		{give: "", wantErr: true},
		{give: "a!!b", wantErr: true},
		{give: "!a", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.give, func(t *testing.T) {
			n, err := ParseName(tt.give)
			if tt.wantErr {
				if !errors.Is(err, ErrBadName) {
					t.Fatalf("want ErrBadName, got %v", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(n.Contexts) != tt.wantCtx || n.Local != tt.local {
				t.Fatalf("parsed %+v", n)
			}
			if n.String() != tt.give {
				t.Fatalf("round trip %q -> %q", tt.give, n.String())
			}
		})
	}
}

func TestNameDescendQualify(t *testing.T) {
	n, err := ParseName("a!b!svc")
	if err != nil {
		t.Fatal(err)
	}
	d, err := n.Descend("a")
	if err != nil || d.String() != "b!svc" {
		t.Fatalf("descend: %v %v", d, err)
	}
	if _, err := n.Descend("wrong"); !errors.Is(err, ErrBadName) {
		t.Fatalf("descend wrong ctx: %v", err)
	}
	local := Name{Local: "svc"}
	if _, err := local.Descend("a"); !errors.Is(err, ErrBadName) {
		t.Fatalf("descend local: %v", err)
	}
	q := d.Qualify("gateway")
	if q.String() != "gateway!b!svc" {
		t.Fatalf("qualify: %v", q)
	}
	// Qualify must not mutate the original.
	if d.String() != "b!svc" {
		t.Fatal("qualify mutated the original")
	}
}

func TestNameQualifyDescendRoundTripProperty(t *testing.T) {
	prop := func(ctxIdx uint8, depth uint8) bool {
		contexts := []string{"alpha", "beta", "gamma"}
		n := Name{Local: "svc"}
		for i := 0; i < int(depth%4); i++ {
			n = n.Qualify(contexts[(int(ctxIdx)+i)%3])
		}
		// Descending through every qualified context must recover "svc".
		for !n.IsLocal() {
			var err error
			n, err = n.Descend(n.Contexts[0])
			if err != nil {
				return false
			}
		}
		return n.Local == "svc"
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// setupRelocation builds: a relocator capsule, a home capsule, a new-home
// capsule and a client with a Binder. The client's node records its
// spans into col (nil: untraced).
func setupRelocation(t *testing.T, col *obs.Collector) (*netsim.Fabric, *capsule.Capsule, *capsule.Capsule, *capsule.Capsule, *Table, *Binder) {
	t.Helper()
	f := netsim.NewFabric()
	t.Cleanup(func() { _ = f.Close() })
	mk := func(name string, col *obs.Collector) *capsule.Capsule {
		ep, err := f.Endpoint(name)
		if err != nil {
			t.Fatal(err)
		}
		c := capsule.New(name, transport.NewCoalescer(ep, clock.Real{}, col), codec)
		t.Cleanup(func() { _ = c.Close() })
		return c
	}
	relocCap := mk("reloc", nil)
	home := mk("home", nil)
	newHome := mk("newhome", nil)
	client := mk("client", col)
	table, relocRef, err := ExportRelocator(relocCap)
	if err != nil {
		t.Fatal(err)
	}
	binder := NewBinder(client, relocRef)
	return f, home, newHome, client, table, binder
}

func TestBinderResolveSpanCoversRelocation(t *testing.T) {
	// E-series coverage for the binder.resolve channel stage: a
	// relocation consulted during an invocation must surface as an
	// obs.KindResolve span under the invocation's root span, so traces
	// make the Movable constraint's enforcement visible.
	col := obs.NewCollector("client", clock.Real{}, obs.WithSampleEvery(1))
	_, home, newHome, _, table, binder := setupRelocation(t, col)
	ref, err := home.Export(constServant("movable"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := binder.Invoke(context.Background(), ref, "get", nil); err != nil {
		t.Fatal(err)
	}
	home.Unexport(ref.ID)
	newRef, err := newHome.Export(constServant("movable"), capsule.WithID(ref.ID))
	if err != nil {
		t.Fatal(err)
	}
	newRef.Epoch = ref.Epoch + 1
	table.Register(newRef)
	if _, res, err := binder.Invoke(context.Background(), ref, "get", nil,
		capsule.WithQoS(rpc.QoS{Timeout: time.Second})); err != nil || res[0] != "movable" {
		t.Fatalf("relocated invoke: %v %v", res, err)
	}

	var resolves int
	for _, sp := range col.Snapshot() {
		if sp.Kind == obs.KindResolve {
			resolves++
			if sp.Name != ref.ID {
				t.Fatalf("resolve span names %q, want the moved ref %q", sp.Name, ref.ID)
			}
		}
	}
	if resolves != 1 {
		t.Fatalf("got %d %s spans, want exactly 1 (one relocator consultation)", resolves, obs.KindResolve)
	}
}

type constServant string

func (s constServant) Dispatch(_ context.Context, op string, _ []wire.Value) (string, []wire.Value, error) {
	return "ok", []wire.Value{string(s)}, nil
}

func TestBinderDirectPathNoRelocatorTraffic(t *testing.T) {
	// Stationary interfaces must not touch the relocator (§5.4 scaling
	// requirement).
	_, home, _, _, _, binder := setupRelocation(t, nil)
	ref, err := home.Export(constServant("stationary"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		_, res, err := binder.Invoke(context.Background(), ref, "get", nil)
		if err != nil || res[0] != "stationary" {
			t.Fatalf("invoke: %v %v", res, err)
		}
	}
	st := binder.Stats()
	if st.Relocations != 0 {
		t.Fatalf("binder consulted relocator %d times for a stationary interface", st.Relocations)
	}
}

func TestBinderRecoversAfterMove(t *testing.T) {
	_, home, newHome, _, table, binder := setupRelocation(t, nil)
	ref, err := home.Export(constServant("movable"))
	if err != nil {
		t.Fatal(err)
	}
	// First contact succeeds directly.
	if _, _, err := binder.Invoke(context.Background(), ref, "get", nil); err != nil {
		t.Fatal(err)
	}
	// The object moves *without* leaving a forward (its old host
	// evaporated); only the relocator knows the new location.
	home.Unexport(ref.ID)
	newRef, err := newHome.Export(constServant("movable"), capsule.WithID(ref.ID))
	if err != nil {
		t.Fatal(err)
	}
	newRef.Epoch = ref.Epoch + 1
	table.Register(newRef)

	_, res, err := binder.Invoke(context.Background(), ref, "get", nil,
		capsule.WithQoS(rpc.QoS{Timeout: time.Second}))
	if err != nil || res[0] != "movable" {
		t.Fatalf("relocated invoke: %v %v", res, err)
	}
	if binder.Stats().Relocations != 1 {
		t.Fatalf("relocations = %d, want 1", binder.Stats().Relocations)
	}
	// Second invocation hits the cache, no further relocator traffic.
	if _, _, err := binder.Invoke(context.Background(), ref, "get", nil); err != nil {
		t.Fatal(err)
	}
	st := binder.Stats()
	if st.Relocations != 1 || st.CacheHits == 0 {
		t.Fatalf("cache not used: %+v", st)
	}
}

func TestBinderUnknownInterface(t *testing.T) {
	_, home, _, _, _, binder := setupRelocation(t, nil)
	ref, err := home.Export(constServant("x"))
	if err != nil {
		t.Fatal(err)
	}
	home.Unexport(ref.ID)
	_, _, err = binder.Invoke(context.Background(), ref, "get", nil,
		capsule.WithQoS(rpc.QoS{Timeout: 300 * time.Millisecond}))
	if err == nil {
		t.Fatal("invoke of vanished unregistered interface succeeded")
	}
}

func TestBinderApplicationErrorNotRelocated(t *testing.T) {
	_, home, _, _, _, binder := setupRelocation(t, nil)
	boom := capsule.ServantFunc(func(_ context.Context, _ string, _ []wire.Value) (string, []wire.Value, error) {
		return "", nil, errors.New("application fault")
	})
	ref, err := home.Export(boom)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := binder.Invoke(context.Background(), ref, "op", nil); err == nil {
		t.Fatal("expected fault")
	}
	if binder.Stats().Relocations != 0 {
		t.Fatal("binder treated an application fault as a relocation")
	}
}

func TestRelocatorServantOperations(t *testing.T) {
	f := netsim.NewFabric()
	t.Cleanup(func() { _ = f.Close() })
	ep, _ := f.Endpoint("r")
	c := capsule.New("r", transport.NewCoalescer(ep, clock.Real{}, nil), codec)
	t.Cleanup(func() { _ = c.Close() })
	_, relocRef, err := ExportRelocator(c)
	if err != nil {
		t.Fatal(err)
	}
	cep, _ := f.Endpoint("c")
	client := capsule.New("c", transport.NewCoalescer(cep, clock.Real{}, nil), codec)
	t.Cleanup(func() { _ = client.Close() })

	ctx := context.Background()
	target := wire.Ref{ID: "moved-obj", Endpoints: []string{"somewhere"}, Epoch: 7}
	outcome, _, err := client.Invoke(ctx, relocRef, "register", []wire.Value{target})
	if err != nil || outcome != "ok" {
		t.Fatalf("register: %q %v", outcome, err)
	}
	outcome, res, err := client.Invoke(ctx, relocRef, "lookup", []wire.Value{"moved-obj"})
	if err != nil || outcome != "found" || !wire.Equal(res[0], target) {
		t.Fatalf("lookup: %q %v %v", outcome, res, err)
	}
	outcome, _, err = client.Invoke(ctx, relocRef, "lookup", []wire.Value{"nope"})
	if err != nil || outcome != "unknown" {
		t.Fatalf("lookup miss: %q %v", outcome, err)
	}
	outcome, _, err = client.Invoke(ctx, relocRef, "unregister", []wire.Value{"moved-obj"})
	if err != nil || outcome != "ok" {
		t.Fatalf("unregister: %q %v", outcome, err)
	}
	outcome, _, _ = client.Invoke(ctx, relocRef, "lookup", []wire.Value{"moved-obj"})
	if outcome != "unknown" {
		t.Fatalf("lookup after unregister: %q", outcome)
	}
	if _, _, err := client.Invoke(ctx, relocRef, "frobnicate", nil); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestRegisterOnlyChangesScaling(t *testing.T) {
	// E7's qualitative shape: the relocator's table size is proportional
	// to the number of *moved* interfaces, not the number of interfaces.
	_, home, _, _, table, binder := setupRelocation(t, nil)
	const stationary = 200
	refs := make([]wire.Ref, stationary)
	for i := range refs {
		ref, err := home.Export(constServant(fmt.Sprintf("s%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}
	for _, ref := range refs {
		if _, _, err := binder.Invoke(context.Background(), ref, "get", nil); err != nil {
			t.Fatal(err)
		}
	}
	if table.Len() != 0 {
		t.Fatalf("relocator holds %d entries for stationary interfaces", table.Len())
	}
}
