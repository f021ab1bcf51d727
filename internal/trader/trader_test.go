package trader

import (
	"context"
	"errors"
	"fmt"
	"odp/internal/transport"
	"testing"
	"time"

	"odp/internal/capsule"
	"odp/internal/clock"
	"odp/internal/netsim"
	"odp/internal/types"
	"odp/internal/wire"
)

var codec = wire.PackedCodec{}

func printerType() types.Type {
	return types.Type{
		Name: "Printer",
		Ops: map[string]types.Operation{
			"print": {
				Args:     []types.Desc{types.String},
				Outcomes: map[string][]types.Desc{"ok": {types.Int}, "jammed": {}},
			},
			"status": {
				Outcomes: map[string][]types.Desc{"ok": {types.String}},
			},
		},
	}
}

// printRequirement is a narrower requirement Printer conforms to.
func printRequirement() types.Type {
	return types.Type{
		Name: "CanPrint",
		Ops: map[string]types.Operation{
			"print": {
				Args:     []types.Desc{types.String},
				Outcomes: map[string][]types.Desc{"ok": {types.Int}, "jammed": {}},
			},
		},
	}
}

type env struct {
	fabric *netsim.Fabric
	t      *testing.T
}

func newEnv(t *testing.T) *env {
	f := netsim.NewFabric()
	t.Cleanup(func() { _ = f.Close() })
	return &env{fabric: f, t: t}
}

func (e *env) capsule(name string) *capsule.Capsule {
	ep, err := e.fabric.Endpoint(name)
	if err != nil {
		e.t.Fatal(err)
	}
	c := capsule.New(name, transport.NewCoalescer(ep, clock.Real{}, nil), codec)
	e.t.Cleanup(func() { _ = c.Close() })
	return c
}

func (e *env) trader(name string) *Trader {
	c := e.capsule(name)
	tr, err := New(name, c, types.NewManager())
	if err != nil {
		e.t.Fatal(err)
	}
	return tr
}

func mkRef(id string) wire.Ref {
	return wire.Ref{ID: id, TypeName: "Printer", Endpoints: []string{"ep-" + id}}
}

func TestAdvertiseImportBasic(t *testing.T) {
	e := newEnv(t)
	tr := e.trader("t1")
	if _, err := tr.Advertise(printerType(), mkRef("p1"), map[string]wire.Value{"dpi": int64(600)}); err != nil {
		t.Fatal(err)
	}
	offers, err := tr.Import(context.Background(), ImportSpec{Requirement: printRequirement()})
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 1 || offers[0].Ref.ID != "p1" {
		t.Fatalf("offers %v", offers)
	}
}

func TestImportTypeSafety(t *testing.T) {
	// "a client is only told of service offers which provide at least the
	// operations it requires".
	e := newEnv(t)
	tr := e.trader("t1")
	scanner := types.Type{Name: "Scanner", Ops: map[string]types.Operation{
		"scan": {Outcomes: map[string][]types.Desc{"ok": {types.Bytes}}},
	}}
	if _, err := tr.Advertise(scanner, mkRef("s1"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Advertise(printerType(), mkRef("p1"), nil); err != nil {
		t.Fatal(err)
	}
	offers, err := tr.Import(context.Background(), ImportSpec{Requirement: printRequirement()})
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 1 || offers[0].ServiceType != "Printer" {
		t.Fatalf("type-unsafe import: %v", offers)
	}
}

func TestPropertyConstraints(t *testing.T) {
	e := newEnv(t)
	tr := e.trader("t1")
	ads := []struct {
		id   string
		prop map[string]wire.Value
	}{
		{"fast", map[string]wire.Value{"dpi": int64(1200), "colour": true, "zone": "east"}},
		{"slow", map[string]wire.Value{"dpi": int64(300), "colour": false, "zone": "east"}},
		{"mono", map[string]wire.Value{"dpi": int64(600), "zone": "west"}},
	}
	for _, a := range ads {
		if _, err := tr.Advertise(printerType(), mkRef(a.id), a.prop); err != nil {
			t.Fatal(err)
		}
	}
	imp := func(cs ...Constraint) []string {
		offers, err := tr.Import(context.Background(), ImportSpec{
			Requirement: printRequirement(), Constraints: cs,
		})
		if err != nil {
			t.Fatal(err)
		}
		var ids []string
		for _, o := range offers {
			ids = append(ids, o.Ref.ID)
		}
		return ids
	}
	if got := imp(Constraint{Key: "dpi", Op: OpGe, Value: int64(600)}); len(got) != 2 {
		t.Fatalf("dpi>=600: %v", got)
	}
	if got := imp(Constraint{Key: "colour", Op: OpEq, Value: true}); len(got) != 1 || got[0] != "fast" {
		t.Fatalf("colour==true: %v", got)
	}
	if got := imp(Constraint{Key: "colour", Op: OpExists}); len(got) != 2 {
		t.Fatalf("colour exists: %v", got)
	}
	if got := imp(Constraint{Key: "zone", Op: OpNe, Value: "east"}); len(got) != 1 || got[0] != "mono" {
		t.Fatalf("zone!=east: %v", got)
	}
	if got := imp(
		Constraint{Key: "dpi", Op: OpGe, Value: int64(500)},
		Constraint{Key: "zone", Op: OpEq, Value: "east"},
	); len(got) != 1 || got[0] != "fast" {
		t.Fatalf("conjunction: %v", got)
	}
	// Non-numeric comparison errors.
	if _, err := tr.Import(context.Background(), ImportSpec{
		Requirement: printRequirement(),
		Constraints: []Constraint{{Key: "zone", Op: OpGe, Value: "east"}},
	}); !errors.Is(err, ErrBadConstraint) {
		t.Fatalf("want ErrBadConstraint, got %v", err)
	}
}

func TestWithdraw(t *testing.T) {
	e := newEnv(t)
	tr := e.trader("t1")
	id, err := tr.Advertise(printerType(), mkRef("p1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Withdraw(id); err != nil {
		t.Fatal(err)
	}
	if err := tr.Withdraw(id); !errors.Is(err, ErrUnknownOffer) {
		t.Fatalf("double withdraw: %v", err)
	}
	offers, _ := tr.Import(context.Background(), ImportSpec{Requirement: printRequirement()})
	if len(offers) != 0 {
		t.Fatalf("withdrawn offer still matched: %v", offers)
	}
}

func TestFederatedImportQualifiesContext(t *testing.T) {
	e := newEnv(t)
	trA := e.trader("org-a")
	trB := e.trader("org-b")
	trA.LinkTo("to-b", trB.Ref())
	if _, err := trB.Advertise(printerType(), mkRef("remote-p"), nil); err != nil {
		t.Fatal(err)
	}
	// Local-only import misses the remote offer.
	offers, err := trA.Import(context.Background(), ImportSpec{Requirement: printRequirement()})
	if err != nil || len(offers) != 0 {
		t.Fatalf("local import: %v %v", offers, err)
	}
	// One hop finds it, context-qualified.
	offers, err = trA.Import(context.Background(), ImportSpec{Requirement: printRequirement(), MaxHops: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 1 {
		t.Fatalf("federated import: %v", offers)
	}
	o := offers[0]
	if len(o.Ref.Context) != 1 || o.Ref.Context[0] != "to-b" {
		t.Fatalf("reference not context-qualified: %v", o.Ref)
	}
	if o.ID != "to-b!org-b/offer-1" {
		t.Fatalf("offer id not qualified: %q", o.ID)
	}
}

func TestFederatedImportChain(t *testing.T) {
	e := newEnv(t)
	trs := make([]*Trader, 4)
	for i := range trs {
		trs[i] = e.trader(fmt.Sprintf("ctx%d", i))
	}
	for i := 0; i+1 < len(trs); i++ {
		trs[i].LinkTo(fmt.Sprintf("next%d", i+1), trs[i+1].Ref())
	}
	if _, err := trs[3].Advertise(printerType(), mkRef("deep"), nil); err != nil {
		t.Fatal(err)
	}
	// Not enough hops: miss.
	offers, err := trs[0].Import(context.Background(), ImportSpec{Requirement: printRequirement(), MaxHops: 2})
	if err != nil || len(offers) != 0 {
		t.Fatalf("2 hops should miss: %v %v", offers, err)
	}
	// Three hops: found, with the full context trail.
	offers, err = trs[0].Import(context.Background(), ImportSpec{Requirement: printRequirement(), MaxHops: 3})
	if err != nil || len(offers) != 1 {
		t.Fatalf("3 hops: %v %v", offers, err)
	}
	wantTrail := []string{"next1", "next2", "next3"}
	got := offers[0].Ref.Context
	if len(got) != len(wantTrail) {
		t.Fatalf("context trail %v, want %v", got, wantTrail)
	}
	for i := range wantTrail {
		if got[i] != wantTrail[i] {
			t.Fatalf("context trail %v, want %v", got, wantTrail)
		}
	}
}

func TestFederationLoopTerminates(t *testing.T) {
	e := newEnv(t)
	trA := e.trader("a")
	trB := e.trader("b")
	trA.LinkTo("ab", trB.Ref())
	trB.LinkTo("ba", trA.Ref())
	if _, err := trA.Advertise(printerType(), mkRef("pa"), nil); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var offers []Offer
	var err error
	go func() {
		offers, err = trA.Import(context.Background(), ImportSpec{Requirement: printRequirement(), MaxHops: 10})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("federated import with a cyclic graph did not terminate")
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 1 {
		t.Fatalf("loop produced duplicates or losses: %v", offers)
	}
}

func TestDeadLinkSkipped(t *testing.T) {
	e := newEnv(t)
	trA := e.trader("a")
	trB := e.trader("b")
	trA.LinkTo("dead", wire.Ref{ID: "gone", Endpoints: []string{"nowhere"}})
	trA.LinkTo("live", trB.Ref())
	if _, err := trB.Advertise(printerType(), mkRef("pb"), nil); err != nil {
		t.Fatal(err)
	}
	offers, err := trA.Import(context.Background(), ImportSpec{Requirement: printRequirement(), MaxHops: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 1 || offers[0].Ref.ID != "pb" {
		t.Fatalf("dead link handling: %v", offers)
	}
}

func TestRemoteClientAdvertiseImportWithdraw(t *testing.T) {
	e := newEnv(t)
	tr := e.trader("t1")
	clientCap := e.capsule("client")
	tc := NewClient(clientCap, tr.Ref())

	ctx := context.Background()
	id, err := tc.Advertise(ctx, printerType(), mkRef("p1"), map[string]wire.Value{"dpi": int64(600)})
	if err != nil {
		t.Fatal(err)
	}
	offer, err := tc.ImportOne(ctx, ImportSpec{Requirement: printRequirement()})
	if err != nil {
		t.Fatal(err)
	}
	if offer.Ref.ID != "p1" || offer.Properties["dpi"] != int64(600) {
		t.Fatalf("imported offer %v", offer)
	}
	if err := tc.Withdraw(ctx, id); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.ImportOne(ctx, ImportSpec{Requirement: printRequirement()}); !errors.Is(err, ErrNoOffer) {
		t.Fatalf("want ErrNoOffer, got %v", err)
	}
}

func TestMaxMatches(t *testing.T) {
	e := newEnv(t)
	tr := e.trader("t1")
	for i := 0; i < 10; i++ {
		if _, err := tr.Advertise(printerType(), mkRef(fmt.Sprintf("p%d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	offers, err := tr.Import(context.Background(), ImportSpec{Requirement: printRequirement(), MaxMatches: 3})
	if err != nil || len(offers) != 3 {
		t.Fatalf("max matches: %v %v", offers, err)
	}
}

func TestResourceManagerPokedOnSelection(t *testing.T) {
	e := newEnv(t)
	tr := e.trader("t1")
	rmCap := e.capsule("rm")
	poked := make(chan wire.Value, 1)
	rmRef, err := rmCap.Export(capsule.ServantFunc(
		func(_ context.Context, op string, args []wire.Value) (string, []wire.Value, error) {
			if op == "selected" {
				poked <- args[0]
			}
			return "", nil, nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	id, err := tr.Advertise(printerType(), mkRef("passive"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SetResourceManager(id, rmRef); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Import(context.Background(), ImportSpec{Requirement: printRequirement()}); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-poked:
		ref, ok := v.(wire.Ref)
		if !ok || ref.ID != "passive" {
			t.Fatalf("resource manager got %v", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("resource manager not poked on selection")
	}
}

func TestTypeEncodeDecodeRoundTrip(t *testing.T) {
	orig := printerType()
	enc := types.EncodeType(orig)
	// Push it through the codec as a real import would.
	raw, err := codec.Encode(nil, enc)
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := codec.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	got, err := types.DecodeType(v)
	if err != nil {
		t.Fatal(err)
	}
	if got.Signature() != orig.Signature() || got.Name != orig.Name {
		t.Fatalf("type round trip mismatch:\n%s\n%s", got.Signature(), orig.Signature())
	}
}

func TestAdvertiserInterface(t *testing.T) {
	// The trader satisfies capsule.Advertiser for the node manager:
	// AdvertiseOffer resolves the named type via the type manager.
	e := newEnv(t)
	tr := e.trader("t1")
	// Unknown type name: refused.
	if _, err := tr.AdvertiseOffer("Printer", mkRef("p1"), nil); err == nil {
		t.Fatal("unregistered type advertised")
	}
	if _, err := tr.Advertise(printerType(), mkRef("p0"), nil); err != nil {
		t.Fatal(err) // registers the type as a side effect
	}
	id, err := tr.AdvertiseOffer("Printer", mkRef("p1"), map[string]wire.Value{"k": "v"})
	if err != nil {
		t.Fatal(err)
	}
	if tr.OfferCount() != 2 {
		t.Fatalf("offer count %d", tr.OfferCount())
	}
	if err := tr.WithdrawOffer(id); err != nil {
		t.Fatal(err)
	}
	if tr.OfferCount() != 1 {
		t.Fatalf("offer count after withdraw %d", tr.OfferCount())
	}
	if tr.ContextName() != "t1" {
		t.Fatalf("context name %q", tr.ContextName())
	}
}

func TestRemoteLinkOperation(t *testing.T) {
	// Federation links can be installed through the trader's own remote
	// interface ("link" op), not only through the Go API.
	e := newEnv(t)
	trA := e.trader("a")
	trB := e.trader("b")
	clientCap := e.capsule("client")
	if _, err := trB.Advertise(printerType(), mkRef("pb"), nil); err != nil {
		t.Fatal(err)
	}
	outcome, _, err := clientCap.Invoke(context.Background(), trA.Ref(), "link",
		[]wire.Value{"to-b", trB.Ref()})
	if err != nil || outcome != "ok" {
		t.Fatalf("remote link: %q %v", outcome, err)
	}
	offers, err := trA.Import(context.Background(), ImportSpec{
		Requirement: printRequirement(), MaxHops: 1,
	})
	if err != nil || len(offers) != 1 {
		t.Fatalf("import through remotely-installed link: %v %v", offers, err)
	}
}
