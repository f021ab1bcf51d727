package sim

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"odp/internal/netsim"
	"odp/internal/transport"
)

// TestSwarmBuildTopology: Build registers every subnet, membership and
// gateway link; adjacent domains deliver, and non-adjacent domains are
// unreachable at the fabric level — multi-hop is the federation's job
// (trader link-following), not the network's.
func TestSwarmBuildTopology(t *testing.T) {
	s := New(1)
	defer s.Close()
	n := Swarm{Domains: 3, CapsulesPerDomain: 2}.Build(s)

	if n.Addr(0, 0) != "d00/c000" || n.Addr(2, 1) != "d02/c001" {
		t.Fatalf("addressing: %q %q", n.Addr(0, 0), n.Addr(2, 1))
	}
	if sn, _ := s.Fabric.SubnetOf(n.Addr(1, 1)); sn != "d01" {
		t.Fatalf("membership: %q", sn)
	}

	var got atomic.Int64
	for _, addr := range []string{n.Addr(0, 0), n.Addr(0, 1), n.Addr(1, 0), n.Addr(2, 0)} {
		ep, err := s.Fabric.Endpoint(addr)
		if err != nil {
			t.Fatal(err)
		}
		ep.SetHandler(func(string, []byte) { got.Add(1) })
	}
	a, _ := s.Fabric.Endpoint(n.Addr(0, 0))

	// Adjacent domain: one gateway hop, delivered.
	if err := a.Send(n.Addr(1, 0), []byte("x")); err != nil {
		t.Fatal(err)
	}
	s.Run(t, time.Second, func() bool { return got.Load() == 1 })

	// Non-adjacent domain: no direct gateway link, rejected.
	if err := a.Send(n.Addr(2, 0), []byte("x")); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("chain-skipping send: err = %v, want ErrUnreachable", err)
	}

	// Intra-domain: same subnet, delivered.
	if err := a.Send(n.Addr(0, 1), []byte("x")); err != nil {
		t.Fatal(err)
	}
}

// TestSwarmRingClosesChain: with Ring set, the last and first domains are
// gateway-adjacent.
func TestSwarmRingClosesChain(t *testing.T) {
	s := New(1)
	defer s.Close()
	n := Swarm{Domains: 4, CapsulesPerDomain: 1, Ring: true}.Build(s)
	var got atomic.Int64
	for d := 0; d < 4; d++ {
		ep, err := s.Fabric.Endpoint(n.Addr(d, 0))
		if err != nil {
			t.Fatal(err)
		}
		ep.SetHandler(func(string, []byte) { got.Add(1) })
	}
	last, _ := s.Fabric.Endpoint(n.Addr(3, 0))
	if err := last.Send(n.Addr(0, 0), []byte("x")); err != nil {
		t.Fatal(err)
	}
	s.Run(t, time.Second, func() bool { return got.Load() == 1 })
}

// TestSwarmSubnetFaultPlan: subnet-level plan steps cut and heal whole
// domains at logical instants.
func TestSwarmSubnetFaultPlan(t *testing.T) {
	s := New(7, WithDefaultLink(netsim.LinkProfile{}))
	defer s.Close()
	n := Swarm{
		Domains: 2, CapsulesPerDomain: 1,
		Intra:   netsim.LinkProfile{},
		Gateway: netsim.LinkProfile{Latency: time.Millisecond},
	}.Build(s)
	a, _ := s.Fabric.Endpoint(n.Addr(0, 0))
	b, err := s.Fabric.Endpoint(n.Addr(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	var got atomic.Int64
	b.SetHandler(func(string, []byte) { got.Add(1) })

	s.Install(NewFaultPlan().
		At(10*time.Millisecond).PartitionSubnets("d00", "d01").
		At(30*time.Millisecond).HealSubnets("d00", "d01"))

	send := func() {
		if err := a.Send(n.Addr(1, 0), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	send() // before the partition: delivered
	s.RunFor(15 * time.Millisecond)
	send() // during: cut
	s.RunFor(20 * time.Millisecond)
	send() // after the heal: delivered
	s.RunFor(5 * time.Millisecond)

	if got.Load() != 2 {
		t.Fatalf("delivered %d, want 2 (one cut by the subnet partition)", got.Load())
	}
	if cut := s.Fabric.Stats().Cut; cut != 1 {
		t.Fatalf("Cut = %d, want 1", cut)
	}
}

// TestDrainManyParkedGoroutines is the swarm-scale regression for the
// stall detector: teardown with hundreds of goroutines parked on virtual
// timers must advance them all out rather than stalling — a thousand
// platforms' worth of janitors and detectors all park on one clock.
func TestDrainManyParkedGoroutines(t *testing.T) {
	s := New(3)
	defer s.Close()
	const parked = 400
	var wg sync.WaitGroup
	wg.Add(parked)
	started := make(chan struct{}, parked)
	for i := 0; i < parked; i++ {
		d := time.Duration(i%50+1) * time.Millisecond
		go func() {
			defer wg.Done()
			started <- struct{}{}
			s.Clock.Sleep(d)
		}()
	}
	for i := 0; i < parked; i++ {
		<-started
	}
	done := make(chan struct{})
	go func() {
		s.Drain(func() { wg.Wait() })
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("Drain did not unpark the timer-parked goroutines")
	}
	if got := s.Clock.PendingWaiters(); got != 0 {
		t.Fatalf("PendingWaiters after drain = %d, want 0", got)
	}
}
