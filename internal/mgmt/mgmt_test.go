package mgmt

import (
	"context"
	"fmt"
	"odp/internal/transport"
	"sync/atomic"
	"testing"

	"odp/internal/capsule"
	"odp/internal/clock"
	"odp/internal/netsim"
	"odp/internal/wire"
)

var codec = wire.PackedCodec{}

func TestEventLogBounded(t *testing.T) {
	r := NewRegistry(clock.Real{})
	for i := 0; i < maxEvents+15; i++ {
		r.Log(fmt.Sprintf("event-%d", i))
	}
	evs := r.Events()
	if len(evs) != maxEvents {
		t.Fatalf("event log holds %d, want %d", len(evs), maxEvents)
	}
	if evs[0].What != "event-15" || evs[maxEvents-1].What != fmt.Sprintf("event-%d", maxEvents+14) {
		t.Fatalf("kept %q..%q, want the newest %d", evs[0].What, evs[maxEvents-1].What, maxEvents)
	}
}

func TestAgentRemoteStatsAndParams(t *testing.T) {
	f := netsim.NewFabric()
	t.Cleanup(func() { _ = f.Close() })
	sep, _ := f.Endpoint("server")
	cep, _ := f.Endpoint("manager")
	server := capsule.New("server", transport.NewCoalescer(sep, clock.Real{}, nil), codec)
	manager := capsule.New("manager", transport.NewCoalescer(cep, clock.Real{}, nil), codec)
	t.Cleanup(func() { _ = server.Close(); _ = manager.Close() })

	agent, err := NewAgent(server, NewRegistry(clock.Real{}), Sources{
		Gather: func() wire.Record { return wire.Record{"registry.c.invocations.calls": uint64(7)} },
	})
	if err != nil {
		t.Fatal(err)
	}
	// A tunable transparency parameter: a heartbeat interval.
	var intervalMs atomic.Int64
	intervalMs.Store(50)
	agent.RegisterParam("heartbeat-ms", Param{
		Get: func() wire.Value { return intervalMs.Load() },
		Set: func(v wire.Value) error {
			n, ok := v.(int64)
			if !ok || n <= 0 {
				return fmt.Errorf("heartbeat must be a positive int, got %v", v)
			}
			intervalMs.Store(n)
			return nil
		},
	})

	ctx := context.Background()
	outcome, res, err := manager.Invoke(ctx, agent.Ref(), "gather", nil)
	if err != nil || outcome != "ok" {
		t.Fatalf("gather: %q %v", outcome, err)
	}
	if res[0].(wire.Record)["registry.c.invocations.calls"] != uint64(7) {
		t.Fatalf("gather record %v", res[0])
	}
	// An agent built without spans, series or a flight recorder answers
	// those operations empty.
	for _, op := range []string{"spans", "series", "blackbox"} {
		outcome, res, err := manager.Invoke(ctx, agent.Ref(), op, nil)
		if err != nil || outcome != "ok" || len(res) != 1 {
			t.Fatalf("%s: %q %v %v", op, outcome, res, err)
		}
	}
	outcome, res, err = manager.Invoke(ctx, agent.Ref(), "get-param", []wire.Value{"heartbeat-ms"})
	if err != nil || outcome != "ok" || res[0].(int64) != 50 {
		t.Fatalf("get-param: %q %v %v", outcome, res, err)
	}
	outcome, _, err = manager.Invoke(ctx, agent.Ref(), "set-param", []wire.Value{"heartbeat-ms", int64(20)})
	if err != nil || outcome != "ok" {
		t.Fatalf("set-param: %q %v", outcome, err)
	}
	if intervalMs.Load() != 20 {
		t.Fatal("parameter not applied")
	}
	outcome, res, err = manager.Invoke(ctx, agent.Ref(), "set-param", []wire.Value{"heartbeat-ms", "fast"})
	if err != nil || outcome != "rejected" {
		t.Fatalf("invalid set: %q %v %v", outcome, res, err)
	}
	outcome, _, err = manager.Invoke(ctx, agent.Ref(), "get-param", []wire.Value{"no-such"})
	if err != nil || outcome != "unknown" {
		t.Fatalf("unknown param: %q %v", outcome, err)
	}
	outcome, res, err = manager.Invoke(ctx, agent.Ref(), "list-params", nil)
	if err != nil || outcome != "ok" || len(res[0].(wire.List)) != 1 {
		t.Fatalf("list-params: %q %v %v", outcome, res, err)
	}
	// Parameter changes are logged.
	outcome, res, err = manager.Invoke(ctx, agent.Ref(), "events", nil)
	if err != nil || outcome != "ok" || len(res[0].(wire.List)) == 0 {
		t.Fatalf("events: %q %v %v", outcome, res, err)
	}
}
