package odp_test

import (
	"context"
	"testing"

	"odp"
)

// TestNodeManagerThroughFacade bootstraps a node's default servers via
// the public API, advertises them through the trader, and manages them
// remotely.
func TestNodeManagerThroughFacade(t *testing.T) {
	ctx := context.Background()
	fabric := odp.NewFabric()
	t.Cleanup(func() { _ = fabric.Close() })
	nep, err := fabric.Endpoint("node")
	if err != nil {
		t.Fatal(err)
	}
	node, err := odp.NewPlatform("node", nep, odp.WithTrader("site"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = node.Close() })

	echoType := odp.Type{
		Name: "Echo",
		Ops: map[string]odp.Operation{
			"echo": {Args: []odp.Desc{odp.String}, Outcomes: map[string][]odp.Desc{"ok": {odp.String}}},
		},
	}
	if err := node.Types.Register(echoType); err != nil {
		t.Fatal(err)
	}
	nm, err := odp.NewNodeManager(node, []odp.ServerSpec{{
		Name: "echo-svc",
		Type: echoType,
		New: func() (odp.Servant, error) {
			return odp.ServantFunc(func(_ context.Context, _ string, args []odp.Value) (string, []odp.Value, error) {
				return "ok", []odp.Value{args[0]}, nil
			}), nil
		},
		Properties: map[string]odp.Value{"tier": "default"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := nm.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	// The default server is now discoverable through the trader.
	cep, err := fabric.Endpoint("client")
	if err != nil {
		t.Fatal(err)
	}
	client, err := odp.NewPlatform("client", cep, odp.WithRelocator(node.RelocRef))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	tc := odp.NewTraderClient(client, node.Trader.Ref())
	offer, err := tc.ImportOne(ctx, odp.ImportSpec{Requirement: echoType})
	if err != nil {
		t.Fatal(err)
	}
	out, err := client.Bind(offer.Ref).Call(ctx, "echo", "ping")
	if err != nil || !out.Is("ok") {
		t.Fatalf("echo: %+v %v", out, err)
	}
	// Remote management: stop the server; the offer is withdrawn.
	out, err = client.Bind(nm.Ref()).Call(ctx, "stop", "echo-svc")
	if err != nil || !out.Is("ok") {
		t.Fatalf("remote stop: %+v %v", out, err)
	}
	if _, err := tc.ImportOne(ctx, odp.ImportSpec{Requirement: echoType}); err == nil {
		t.Fatal("offer survived remote stop")
	}
}

// TestEnterprisePolicyCompilesToLiveGuard crosses the enterprise and
// engineering viewpoints: a community's declarative statements compile
// into the security.Policy an actual woven guard enforces — §8's point
// that the enterprise language is "the design rationale for placing
// security requirements on the components".
func TestEnterprisePolicyCompilesToLiveGuard(t *testing.T) {
	community := odp.Community{
		Name:      "records-office",
		Objective: "keep records legible and unforged",
		Roles:     []string{"clerk", "reader"},
		Statements: []odp.PolicyStatement{
			{Kind: odp.Permission, Role: "clerk", Action: "put"},
			{Kind: odp.Permission, Role: "*", Action: "get"},
			{Kind: odp.Prohibition, Role: "reader", Action: "put"},
		},
	}
	assignment := odp.Assignment{
		"carla": {"clerk"},
		"rita":  {"reader"},
	}
	policy, err := community.CompileGuardPolicy(assignment, []string{"put", "get"})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	fabric := odp.NewFabric()
	t.Cleanup(func() { _ = fabric.Close() })
	sep, err := fabric.Endpoint("server")
	if err != nil {
		t.Fatal(err)
	}
	server, err := odp.NewPlatform("server", sep)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = server.Close() })
	server.Keys.Share("carla", []byte("carla-key"))
	server.Keys.Share("rita", []byte("rita-key"))

	ref, err := server.Publish("records", odp.Object{
		Servant: newVault(),
		Type:    vaultType,
		Env:     odp.Env{Secured: &odp.SecureSpec{Policy: policy}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cep, err := fabric.Endpoint("client")
	if err != nil {
		t.Fatal(err)
	}
	client, err := odp.NewPlatform("client", cep, odp.WithRelocator(server.RelocRef))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })

	carla := odp.NewSigner("carla", []byte("carla-key"))
	rita := odp.NewSigner("rita", []byte("rita-key"))

	// The clerk writes; the reader reads but cannot write.
	if out, err := client.Bind(ref).WithSigner(carla).Call(ctx, "put", "deed-1", int64(7)); err != nil || !out.Is("ok") {
		t.Fatalf("clerk put: %+v %v", out, err)
	}
	if out, err := client.Bind(ref).WithSigner(rita).Call(ctx, "get", "deed-1"); err != nil || !out.Is("ok") {
		t.Fatalf("reader get: %+v %v", out, err)
	}
	if _, err := client.Bind(ref).WithSigner(rita).Call(ctx, "put", "deed-2", int64(9)); err == nil {
		t.Fatal("reader write admitted despite prohibition")
	}
	// Audit: clerks are not obligated here, but the audit API works
	// end to end with the community the guard was compiled from.
	if err := community.CheckObligations(assignment, nil); err != nil {
		t.Fatalf("no obligations declared, audit should pass: %v", err)
	}
}
