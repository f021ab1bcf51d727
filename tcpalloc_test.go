package odp_test

import (
	"context"
	"testing"
	"time"

	"odp"
)

// tcpCallAllocBudget is the ceiling for one serial interrogation between
// two platforms over loopback TCP, both roles counted. It reads 2: what
// the servant returns and the client's decoded reply; neither rpc role
// nor the transport allocates for the call. It read 8 while every
// dispatch was a fresh goroutine with the header strings cloned for it,
// every reply outcome was copied and every frame write put its vector
// header on the heap.
const tcpCallAllocBudget = 2

// TestTCPCallAllocGate: one serial add between two platforms on
// 127.0.0.1, both in this process, so AllocsPerRun counts the client and
// the server alike.
func TestTCPCallAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are skewed under -race: sync.Pool drops puts by design")
	}
	start := func(name string, opts ...odp.Option) *odp.Platform {
		ep, err := odp.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		p, err := odp.NewPlatform(name, ep, opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = p.Close() })
		return p
	}
	server := start("server")
	client := start("client", odp.WithRelocator(server.RelocRef))
	ref, err := server.Publish("cell", odp.Object{Servant: &countingServant{}})
	if err != nil {
		t.Fatal(err)
	}
	proxy := client.Bind(ref).WithQoS(odp.QoS{Timeout: 30 * time.Second})
	ctx := context.Background()
	call := func() {
		if _, err := proxy.Call(ctx, "add"); err != nil {
			t.Fatal(err)
		}
	}
	settleE1(call)
	allocs := minAllocsPerRun(200, call)
	if allocs > tcpCallAllocBudget {
		t.Fatalf("a TCP call allocates %.2f/op, budget %d", allocs, tcpCallAllocBudget)
	}
	t.Logf("TCP call: %.2f allocs/op (budget %d)", allocs, tcpCallAllocBudget)
}
