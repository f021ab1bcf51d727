package odp_test

// Flight-recorder acceptance: under the simulation harness a seeded
// scenario that breaches its SLO rules produces byte-identical black-box
// reports on every replay — the anomaly pipeline (histogram → recorder →
// rule → report) is as deterministic as the trace pipeline, so a
// captured report can be asserted on like a trace hash.

import (
	"context"
	"strings"
	"testing"
	"time"

	"odp"
	"odp/internal/sim"
)

// slowServant parks on the virtual clock for a fixed latency per
// dispatch, so the server's dispatch histogram fills with deterministic
// 5ms observations.
type slowServant struct {
	clk odp.Clock
}

func (s *slowServant) Dispatch(_ context.Context, op string, _ []odp.Value) (string, []odp.Value, error) {
	s.clk.Sleep(5 * time.Millisecond)
	return "ok", nil, nil
}

// runFlightSim drives the breach scenario once and returns the rendered
// black-box reports fetched through the management "blackbox" op.
func runFlightSim(t *testing.T, seed int64) string {
	t.Helper()
	s := sim.New(seed,
		sim.WithDefaultLink(odp.LinkProfile{Latency: 500 * time.Microsecond}),
	)
	defer s.Close()

	// The sampling interval is deliberately off the server janitor's 1s
	// tick: the sim orders distinct virtual deadlines (RunFor settles
	// between them) but coincident ones wake concurrent goroutines whose
	// interleaving virtual time cannot order, so a byte-stable scenario
	// keeps its periodic timers disjoint.
	server := simPlatform(t, s, "server",
		odp.WithTracing(odp.TraceSampleEvery(1)),
		odp.WithRecorder(900*time.Millisecond),
		odp.WithFlightRecorder(
			odp.CeilingRule("dispatch-p99", "rpc.server.dispatch_p99", 1000), // 1ms ceiling
			odp.StallRule("no-progress", "rpc.server.requests", 3),
		))
	client := simPlatform(t, s, "client", odp.WithTracing(odp.TraceSampleEvery(1)))

	ref, err := server.Publish("slow", odp.Object{Servant: &slowServant{clk: s.Clock}})
	if err != nil {
		t.Fatal(err)
	}
	qos := odp.QoS{Timeout: 30 * time.Second, Retransmit: 50 * time.Millisecond}
	for i := 0; i < 3; i++ {
		if err := driveCall(t, s, time.Minute, func() error {
			_, err := client.Bind(ref).WithQoS(qos).Call(context.Background(), "work")
			return err
		}); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}

	// Let the recorder sample: the first window sees a ~5ms dispatch p99
	// (ceiling breach), then the requests counter sits still for three
	// windows (stall breach).
	s.RunFor(6 * time.Second)

	// Freeze sampling so fetching the evidence does not grow the rings.
	server.Observer().SetSampleEvery(0)
	client.Observer().SetSampleEvery(0)

	var texts []string
	if err := driveCall(t, s, time.Minute, func() error {
		out, err := client.Bind(server.Agent.Ref()).WithQoS(qos).Call(context.Background(), "blackbox")
		if err != nil {
			return err
		}
		list, _ := out.Result(0).(odp.List)
		for _, v := range list {
			rec, _ := v.(odp.Record)
			text, _ := rec["text"].(string)
			texts = append(texts, text)
		}
		return nil
	}); err != nil {
		t.Fatalf("blackbox via management interface: %v", err)
	}
	return strings.Join(texts, "---\n")
}

// TestSimFlightRecorderBreachDeterministic is the anomaly-pipeline
// determinism pin: same seed, same black-box bytes — and because runs
// are seed-anchored, `go test -count=2` reproduces them again.
func TestSimFlightRecorderBreachDeterministic(t *testing.T) {
	r1, r2 := runFlightSim(t, 43), runFlightSim(t, 43)
	if r1 != r2 {
		t.Fatalf("black-box reports diverged for seed 43:\n--- run 1\n%s\n--- run 2\n%s", r1, r2)
	}
	if !strings.Contains(r1, "rule=dispatch-p99") {
		t.Fatalf("no ceiling breach captured:\n%s", r1)
	}
	if !strings.Contains(r1, "rule=no-progress") {
		t.Fatalf("no stall breach captured:\n%s", r1)
	}
	if !strings.Contains(r1, "spans:") {
		t.Fatalf("report carries no spans:\n%s", r1)
	}
	if !strings.Contains(r1, "delta rpc.server.requests") {
		t.Fatalf("ceiling report misses the window's request delta:\n%s", r1)
	}
	t.Logf("seed=43 black box (%d bytes):\n%s", len(r1), r1)
}

// TestRecorderWithoutRulesExportsNoBlackbox: a node built WithRecorder
// alone serves "series" and an empty "blackbox" list, and its Gather
// carries no blackbox.* key; a node built WithFlightRecorder exports
// its armed rule count.
func TestRecorderWithoutRulesExportsNoBlackbox(t *testing.T) {
	s := sim.New(7, sim.WithDefaultLink(odp.LinkProfile{Latency: 500 * time.Microsecond}))
	defer s.Close()
	plain := simPlatform(t, s, "plain", odp.WithRecorder(900*time.Millisecond))
	armed := simPlatform(t, s, "armed",
		odp.WithFlightRecorder(odp.StallRule("no-progress", "rpc.server.requests", 3)))
	client := simPlatform(t, s, "client")
	s.RunFor(2 * time.Second)

	qos := odp.QoS{Timeout: 30 * time.Second, Retransmit: 50 * time.Millisecond}
	ask := func(p *odp.Platform, op string) odp.Value {
		t.Helper()
		var v odp.Value
		if err := driveCall(t, s, time.Minute, func() error {
			out, err := client.Bind(p.Agent.Ref()).WithQoS(qos).Call(context.Background(), op)
			if err == nil {
				v = out.Result(0)
			}
			return err
		}); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		return v
	}

	gather, _ := ask(plain, "gather").(odp.Record)
	for k := range gather {
		if strings.HasPrefix(k, "blackbox.") {
			t.Errorf("recorder without rules exports %s = %v", k, gather[k])
		}
	}
	if list, ok := ask(plain, "blackbox").(odp.List); !ok || len(list) != 0 {
		t.Errorf("blackbox without rules = %v, want an empty list", list)
	}
	if series, _ := ask(plain, "series").(odp.Record); series["series.samples"] != uint64(2) {
		t.Errorf("series = %v, want rates from 2 samples", series)
	}
	if got := ask(armed, "gather").(odp.Record)["blackbox.rules"]; got != uint64(1) {
		t.Errorf("armed node's blackbox.rules = %v, want 1", got)
	}
}
