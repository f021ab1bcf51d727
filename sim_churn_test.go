package odp_test

import (
	"context"
	"testing"
	"time"

	"odp"
	"odp/internal/sim"
)

// churnPlan builds a seeded schedule of partition/heal cycles between
// client and server from the simulation's own randomness: the fault
// instants are part of the seed's identity.
//
// Every instant carries an offGrid skew. Traffic events in this scenario
// all land on a 500µs grid (link latency 500µs, retransmit period 5ms),
// and a fault sharing an exact instant with a send or delivery would
// leave their order to goroutine scheduling — the one tie the harness
// cannot break for us (see the determinism note on sim.FaultPlan).
func churnPlan(s *sim.Sim, cycles int) *sim.FaultPlan {
	const offGrid = 250 * time.Microsecond
	plan := sim.NewFaultPlan()
	r := s.Rand()
	var at time.Duration
	for i := 0; i < cycles; i++ {
		// Short clear gaps, partition windows a few retransmit periods
		// wide: every cycle cuts live traffic.
		at += time.Duration(r.Intn(3)+1) * time.Millisecond
		plan.At(at+offGrid).Partition("client", "server")
		at += time.Duration(r.Intn(10)+3) * time.Millisecond
		plan.At(at+offGrid).Heal("client", "server")
	}
	return plan
}

// runChurn drives a single sequential client through repeated partition
// churn: every call must eventually succeed (the QoS timeout outlasts
// any partition window) and execute exactly once (at-most-once holds
// across every retransmission a cut provokes). Returns the run's
// event-trace hash.
func runChurn(t testing.TB, s *sim.Sim, calls int) string {
	t.Helper()
	ctx := context.Background()
	server := simPlatform2(t, s, "server")
	client := simPlatform2(t, s, "client")
	counter := &countingServant{}
	ref, err := server.Publish("ctr", odp.Object{Servant: counter})
	if err != nil {
		t.Fatal(err)
	}
	s.Install(churnPlan(s, 6))

	for i := 0; i < calls; i++ {
		if err := driveCall(t, s, time.Minute, func() error {
			_, err := client.Bind(ref).
				WithQoS(odp.QoS{Timeout: 30 * time.Second, Retransmit: 5 * time.Millisecond}).
				Call(ctx, "add")
			return err
		}); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if got := counter.load(); got != int64(calls) {
		t.Fatalf("executions = %d, want %d (at-most-once across churn)", got, calls)
	}
	stats := s.Fabric.Stats()
	if stats.Cut == 0 {
		t.Fatal("churn plan cut nothing — the scenario exercised no partition")
	}
	s.Mark("churn done calls=%d cut=%d delivered=%d", calls, stats.Cut, stats.Delivered)
	return s.Trace.Hash()
}

// simPlatform2 is simPlatform for testing.TB callers (sweep scenarios
// get a *testing.T, the churn hash test reuses the same body).
func simPlatform2(t testing.TB, s *sim.Sim, name string, opts ...odp.Option) *odp.Platform {
	t.Helper()
	ep, err := s.Fabric.Endpoint(name)
	if err != nil {
		t.Fatal(err)
	}
	opts = append(opts, odp.WithClock(s.Clock))
	p, err := odp.NewPlatform(name, ep, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Drain(func() { _ = p.Close() }) })
	return p
}

// TestSimPartitionChurn is the determinism pin: the same seed replayed
// twice in one process must produce byte-identical event-trace hashes,
// and because the hash is seed-anchored (fixed epoch, canonical event
// order), `go test -count=2` reproduces the same hash again.
func TestSimPartitionChurn(t *testing.T) {
	run := func() string {
		s := sim.New(13,
			sim.WithDefaultLink(odp.LinkProfile{Latency: 500 * time.Microsecond}),
		)
		defer s.Close()
		return runChurn(t, s, 20)
	}
	h1, h2 := run(), run()
	if h1 != h2 {
		t.Fatalf("event trace diverged for seed 13:\n run1 %s\n run2 %s", h1, h2)
	}
	t.Logf("seed=13 trace hash %s", h1)
}

// TestSimSweepPartitionChurn explores the churn scenario across many
// seeds (ODP_SIM_SEEDS widens it in CI); the first failing seed is the
// replay command.
func TestSimSweepPartitionChurn(t *testing.T) {
	sim.Sweep(t, sim.SeedsFromEnv(4), func(t *testing.T, s *sim.Sim) {
		runChurn(t, s, 10)
	}, sim.WithDefaultLink(odp.LinkProfile{Latency: 500 * time.Microsecond}))
}
