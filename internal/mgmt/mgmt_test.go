package mgmt

import (
	"context"
	"errors"
	"fmt"
	"odp/internal/transport"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"odp/internal/capsule"
	"odp/internal/netsim"
	"odp/internal/wire"
)

var codec = wire.PackedCodec{}

func TestRegistryCountersGauges(t *testing.T) {
	r := NewRegistry()
	r.Add("x", 1)
	r.Add("x", 2)
	r.Set("g", 3.5)
	if r.Counter("x") != 3 || r.Gauge("g") != 3.5 {
		t.Fatalf("counter=%d gauge=%f", r.Counter("x"), r.Gauge("g"))
	}
	snap := r.Snapshot()
	if snap["c.x"] != uint64(3) || snap["g.g"] != 3.5 {
		t.Fatalf("snapshot %v", snap)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Add("hits", 1)
			}
		}()
	}
	wg.Wait()
	if r.Counter("hits") != 8000 {
		t.Fatalf("hits %d", r.Counter("hits"))
	}
}

func TestEventLogBounded(t *testing.T) {
	r := NewRegistry()
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

func TestInstrumentCountsCallsAndErrors(t *testing.T) {
	f := netsim.NewFabric()
	t.Cleanup(func() { _ = f.Close() })
	ep, _ := f.Endpoint("n")
	c := capsule.New("n", transport.NewCoalescer(ep), codec)
	t.Cleanup(func() { _ = c.Close() })

	r := NewRegistry()
	var fail atomic.Bool
	ref, err := c.Export(capsule.ServantFunc(
		func(context.Context, string, []wire.Value) (string, []wire.Value, error) {
			if fail.Load() {
				return "", nil, errors.New("boom")
			}
			time.Sleep(time.Millisecond)
			return "ok", nil, nil
		}),
		capsule.WithInterceptors(Instrument(r, "svc")))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, _, err := c.Invoke(ctx, ref, "work", nil); err != nil {
			t.Fatal(err)
		}
	}
	fail.Store(true)
	_, _, _ = c.Invoke(ctx, ref, "work", nil)
	if r.Counter("svc.calls") != 4 || r.Counter("svc.errors") != 1 {
		t.Fatalf("calls=%d errors=%d", r.Counter("svc.calls"), r.Counter("svc.errors"))
	}
	if r.Gauge("svc.last_us") < 0 {
		t.Fatal("latency gauge never set")
	}
}

func TestAgentRemoteStatsAndParams(t *testing.T) {
	f := netsim.NewFabric()
	t.Cleanup(func() { _ = f.Close() })
	sep, _ := f.Endpoint("server")
	cep, _ := f.Endpoint("manager")
	server := capsule.New("server", transport.NewCoalescer(sep), codec)
	manager := capsule.New("manager", transport.NewCoalescer(cep), codec)
	t.Cleanup(func() { _ = server.Close(); _ = manager.Close() })

	r := NewRegistry()
	r.Add("invocations", 7)
	agent, err := NewAgent(server, r)
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
	outcome, res, err := manager.Invoke(ctx, agent.Ref(), "stats", nil)
	if err != nil || outcome != "ok" {
		t.Fatalf("stats: %q %v", outcome, err)
	}
	if res[0].(wire.Record)["c.invocations"] != uint64(7) {
		t.Fatalf("stats record %v", res[0])
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
