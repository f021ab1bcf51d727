// Federation: interworking across organisational and technology
// boundaries.
//
// Two organisations run genuinely separate networks: org-a speaks the
// packed network representation, org-b the textual one, and no direct
// route exists between them. A gateway stands on the boundary,
// translating representations, policing crossings with the
// administrative policy, and creating proxy objects for references that
// cross. Traders in each organisation federate through the gateway, so a
// client in org-a imports a service offered in org-b by structural type
// alone — the returned reference is context-qualified so its origin stays
// resolvable.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"

	"odp"
)

// weather is the service offered in org-b.
type weather struct {
	mu       sync.Mutex
	readings map[string]int64
}

func (w *weather) Dispatch(_ context.Context, op string, args []odp.Value) (string, []odp.Value, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch op {
	case "report":
		city := args[0].(string)
		t, ok := w.readings[city]
		if !ok {
			return "unknown-city", nil, nil
		}
		return "ok", []odp.Value{t}, nil
	case "record":
		w.readings[args[0].(string)] = args[1].(int64)
		return "ok", nil, nil
	default:
		return "", nil, fmt.Errorf("weather: no operation %q", op)
	}
}

var weatherType = odp.Type{
	Name: "WeatherService",
	Ops: map[string]odp.Operation{
		"report": {Args: []odp.Desc{odp.String}, Outcomes: map[string][]odp.Desc{"ok": {odp.Int}, "unknown-city": {}}},
		"record": {Args: []odp.Desc{odp.String, odp.Int}, Outcomes: map[string][]odp.Desc{"ok": {}}},
	},
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()

	// Two separate fabrics: there is no route between the organisations
	// except through the gateway.
	fabA := odp.NewFabric(odp.WithDefaultLink(odp.LAN))
	fabB := odp.NewFabric(odp.WithDefaultLink(odp.LAN))
	defer fabA.Close()
	defer fabB.Close()

	mk := func(f *odp.Fabric, name string, opts ...odp.Option) *odp.Platform {
		ep, err := f.Endpoint(name)
		if err != nil {
			log.Fatal(err)
		}
		p, err := odp.NewPlatform(name, ep, opts...)
		if err != nil {
			log.Fatal(err)
		}
		return p
	}
	// org-a: packed (default). org-b: text codec — a real
	// technology boundary.
	clientA := mk(fabA, "client-a", odp.WithTrader("org-a"))
	defer clientA.Close()
	serverB := mk(fabB, "server-b", odp.WithCodec(odp.TextCodec{}), odp.WithTrader("org-b"))
	defer serverB.Close()
	gwA := mk(fabA, "gw-a")
	defer gwA.Close()
	gwB := mk(fabB, "gw-b", odp.WithCodec(odp.TextCodec{}))
	defer gwB.Close()

	// The administrative policy at the boundary: org-a may read
	// (report) but not write (record) org-b's service.
	policy := func(from odp.Side, target odp.Ref, op string) error {
		if from == odp.SideA && op == "record" {
			return errors.New("org-b does not accept foreign writes")
		}
		return nil
	}
	gateway := odp.NewGateway("gw-ab", gwA, gwB, policy)
	fmt.Println("gateway gw-ab standing between org-a (packed) and org-b (text)")

	// org-b publishes and advertises the weather service locally.
	refB, err := serverB.Publish("weather", odp.Object{
		Servant: &weather{readings: map[string]int64{"cambridge": 11, "berlin": 7}},
		Type:    weatherType,
	})
	if err != nil {
		return err
	}
	if _, err := serverB.Trader.Advertise(weatherType, refB, map[string]odp.Value{
		"coverage": "europe",
	}); err != nil {
		return err
	}

	// Federate the traders through the gateway: org-a's trader links to a
	// proxy of org-b's trader.
	traderBProxy, err := gateway.Export(serverB.Trader.Ref(), odp.SideB)
	if err != nil {
		return err
	}
	clientA.Trader.LinkTo("org-b", traderBProxy)
	fmt.Println("org-a's trader federated to org-b's through the gateway")

	// A client in org-a imports by structural requirement, one federation
	// hop away.
	requirement := odp.Type{
		Name: "CanReport",
		Ops: map[string]odp.Operation{
			"report": {Args: []odp.Desc{odp.String}, Outcomes: map[string][]odp.Desc{"ok": {odp.Int}, "unknown-city": {}}},
		},
	}
	tc := odp.NewTraderClient(clientA, clientA.Trader.Ref())
	offer, err := tc.ImportOne(ctx, odp.ImportSpec{Requirement: requirement, MaxHops: 1})
	if err != nil {
		return err
	}
	fmt.Printf("imported %s; reference context trail: %v\n", offer.ID, offer.Ref.Context)

	// The imported reference is a gateway proxy: invoking it crosses the
	// boundary, translating packed -> text and back.
	out, err := clientA.Bind(offer.Ref).Call(ctx, "report", "berlin")
	if err != nil || !out.Is("ok") {
		return fmt.Errorf("report: %v %v", out, err)
	}
	temp, _ := out.Int(0)
	fmt.Printf("report(berlin) across the boundary -> %d°C\n", temp)

	// Administrative interception: the write is refused at the boundary,
	// without reaching org-b.
	_, err = clientA.Bind(offer.Ref).Call(ctx, "record", "cambridge", int64(30))
	if err == nil {
		return errors.New("policy failed to stop the crossing")
	}
	fmt.Printf("record(...) refused at the boundary: %v\n", err)

	st := gateway.Stats()
	fmt.Printf("gateway accounting: A->B crossings=%d refused=%d proxies=%d\n",
		st.AtoB, st.Refused, st.Proxies)
	if st.Refused != 1 {
		return errors.New("expected exactly one refusal")
	}
	fmt.Println("federation example OK")
	return nil
}
