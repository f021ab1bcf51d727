package odp_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"odp"
	"odp/internal/rpc"
)

// TestShortArgumentVectorsFailTheCallNotTheNode sends every operation
// that reads a fixed argument vector without a type to check it, with no
// arguments at all, across a fabric. Each must come back as an error
// reply, and the serving node must still answer the next call: a servant
// that indexes past its arguments panics the server's dispatch, which
// nothing recovers.
func TestShortArgumentVectorsFailTheCallNotTheNode(t *testing.T) {
	fabric := odp.NewFabric(odp.WithSeed(1))
	t.Cleanup(func() { _ = fabric.Close() })
	start := func(name string) *odp.Platform {
		ep, err := fabric.Endpoint(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := odp.NewPlatform(name, ep)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = p.Close() })
		return p
	}
	server, client := start("server"), start("client")

	rx, err := odp.NewStreamReceiver(server, func(odp.StreamSpec) (odp.Sink, error) {
		return odp.SinkFunc(func(odp.Frame) {}), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	replicated, err := odp.PublishReplicated([]*odp.Platform{server}, odp.ReplicaSpec{GroupID: "g"},
		func() odp.Servant { return newVault() })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(replicated.Stop)
	atomic, err := server.Publish("atomic", odp.Object{Servant: newVault(), Env: odp.Env{Atomic: &odp.AtomicSpec{}}})
	if err != nil {
		t.Fatal(err)
	}

	qos := odp.QoS{Timeout: 5 * time.Second, Retransmit: time.Second}
	ctx := context.Background()
	for _, tc := range []struct {
		ref odp.Ref
		op  string
	}{
		{server.Agent.Ref(), "get-param"},
		{rx.Ref(), "open"},
		{rx.Ref(), "close"},
		{replicated.Ref(), "g!heartbeat"},
		{replicated.Ref(), "g!view"},
		{replicated.Ref(), "g!join"},
		{atomic, "t!prepare"},
		{atomic, "t!commit"},
		{atomic, "t!abort"},
	} {
		t.Run(tc.op, func(t *testing.T) {
			_, err := client.Bind(tc.ref).WithQoS(qos).Call(ctx, tc.op)
			var remote *rpc.RemoteError
			if !errors.As(err, &remote) {
				t.Fatalf("%s with no arguments: err = %v, want an error reply", tc.op, err)
			}
			if _, err := client.Bind(server.Agent.Ref()).WithQoS(qos).Call(ctx, "gather"); err != nil {
				t.Fatalf("the node stopped answering after %s: %v", tc.op, err)
			}
		})
	}
}
