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
	"odp/internal/clock"
	"odp/internal/netsim"
	"odp/internal/obs"
	"odp/internal/wire"
)

var codec = wire.PackedCodec{}

// exported renders the meter as the platform exports it.
func exported(m *Meter, prefix string) wire.Record {
	ms := obs.NewMetrics()
	m.Fold(ms, prefix)
	rec := wire.Record{}
	ms.Export(rec, "")
	return rec
}

// TestInstrumentConcurrent drives one instrumented servant from 64
// goroutines: the meter's atomics count every call and every error
// exactly.
func TestInstrumentConcurrent(t *testing.T) {
	const workers, perWorker = 64, 200
	var m Meter
	clk := clock.Real{}
	path := Instrument(&m, clk)(
		func(_ context.Context, inv capsule.Invocation) (string, []wire.Value, error) {
			if inv.Op == "fail" {
				return "", nil, errors.New("boom")
			}
			return "ok", nil, nil
		})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				op := "work"
				if (w+i)%4 == 0 {
					op = "fail"
				}
				_, _, _ = path(context.Background(), capsule.Invocation{Op: op, At: clk.Now()})
			}
		}(w)
	}
	wg.Wait()
	rec := exported(&m, "hits")
	if rec["registry.c.hits.calls"] != uint64(workers*perWorker) ||
		rec["registry.c.hits.errors"] != uint64(workers*perWorker/4) {
		t.Fatalf("calls=%v errors=%v, want %d and %d", rec["registry.c.hits.calls"],
			rec["registry.c.hits.errors"], workers*perWorker, workers*perWorker/4)
	}
}

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

func TestInstrumentCountsCallsAndErrors(t *testing.T) {
	f := netsim.NewFabric()
	t.Cleanup(func() { _ = f.Close() })
	ep, _ := f.Endpoint("n")
	c := capsule.New("n", transport.NewCoalescer(ep, clock.Real{}, nil), codec)
	t.Cleanup(func() { _ = c.Close() })

	var m Meter
	var fail atomic.Bool
	ref, err := c.Export(capsule.ServantFunc(
		func(context.Context, string, []wire.Value) (string, []wire.Value, error) {
			if fail.Load() {
				return "", nil, errors.New("boom")
			}
			time.Sleep(time.Millisecond)
			return "ok", nil, nil
		}),
		capsule.WithInterceptors(Instrument(&m, clock.Real{})))
	if err != nil {
		t.Fatal(err)
	}
	// Nothing is exported before the first call.
	if rec := exported(&m, "svc"); len(rec) != 0 {
		t.Fatalf("an idle meter exports %v", rec)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, _, err := c.Invoke(ctx, ref, "work", nil); err != nil {
			t.Fatal(err)
		}
	}
	rec := exported(&m, "svc")
	if _, ok := rec["registry.c.svc.errors"]; ok || len(rec) != 2 {
		t.Fatalf("after three good calls the meter exports %v, want calls and last_us", rec)
	}
	if us, _ := rec["registry.g.svc.last_us"].(float64); us < 1000 {
		t.Fatalf("last_us = %v after a 1ms dispatch", rec["registry.g.svc.last_us"])
	}
	fail.Store(true)
	_, _, _ = c.Invoke(ctx, ref, "work", nil)
	rec = exported(&m, "svc")
	if rec["registry.c.svc.calls"] != uint64(4) || rec["registry.c.svc.errors"] != uint64(1) {
		t.Fatalf("calls=%v errors=%v", rec["registry.c.svc.calls"], rec["registry.c.svc.errors"])
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

	var m Meter
	clk := clock.Real{}
	path := Instrument(&m, clk)(
		func(context.Context, capsule.Invocation) (string, []wire.Value, error) { return "ok", nil, nil })
	for i := 0; i < 7; i++ {
		_, _, _ = path(context.Background(), capsule.Invocation{Op: "work", At: clk.Now()})
	}
	agent, err := NewAgent(server, NewRegistry(clock.Real{}), Sources{
		Gather: func() wire.Record { return exported(&m, "invocations") },
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
