package odp_test

// Allocation gate for the packed-codec hot path: between two platforms,
// an E1 remote loopback call must stay under
// packedE1AllocBudget allocations — the budget that keeps the sub-10 µs
// latency target reachable. The count is measured with AllocsPerRun so a
// regression fails deterministically instead of showing up as bench
// noise.

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"odp"
	"odp/internal/wire"
)

// packedE1AllocBudget is the ceiling for allocations per packed E1
// call. The path costs 2 — the result vector the servant returns and the
// client's decoded reply (3 while every reply's outcome was a fresh
// string, before the client interned it); PRs 13 and 16 took it from 13
// to 7, and PR 22 took the server's call row, its cached reply packet
// and the ack queue's growth out (the row and its buffer are reused per
// peer). The budget leaves one allocation of headroom: a row, a reply
// packet or an outcome string allocated per call again fails the gate.
const packedE1AllocBudget = 3

// minAllocsPerRun is the least of three AllocsPerRun rounds, the figure
// every E1 gate compares. A real per-call allocation raises every round;
// the three rounds guard against a stray background allocation, which one
// sample cannot tell from a leak.
func minAllocsPerRun(runs int, f func()) float64 {
	least := testing.AllocsPerRun(runs, f)
	for round := 1; round < 3; round++ {
		if a := testing.AllocsPerRun(runs, f); a < least {
			least = a
		}
	}
	return least
}

// e1Pair starts the two platforms every E1 gate calls across, on one
// zero-latency fabric, and returns a call that invokes do and then drains
// the fabric. A call sends 2 packets — the request, carrying the previous
// call's ack, and the reply — and the caller wakes before the delivery
// that woke it has finished. Draining makes every measured call start
// from the same idle fabric, on AllocsPerRun's one P and beside a
// contended CPU alike.
func e1Pair(t *testing.T, opts ...odp.Option) (server, client *odp.Platform, call func(do func() error) func()) {
	t.Helper()
	f := odp.NewFabric(odp.WithSeed(1))
	t.Cleanup(func() { _ = f.Close() })
	start := func(name string) *odp.Platform {
		ep, err := f.Endpoint(name)
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
	call = func(do func() error) func() {
		return func() {
			if err := do(); err != nil {
				t.Fatal(err)
			}
			for f.InFlight() > 0 {
				runtime.Gosched()
			}
		}
	}
	return start("server"), start("client"), call
}

// settleE1 repeats call until pools, shards and routes are warm.
func settleE1(call func()) {
	for i := 0; i < 100; i++ {
		call()
	}
}

func TestPackedE1AllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are skewed under -race: sync.Pool drops puts by design")
	}
	server, client, e1 := e1Pair(t)
	ref, err := server.Publish("cell", odp.Object{Servant: &countingServant{}})
	if err != nil {
		t.Fatal(err)
	}
	proxy := client.Bind(ref).WithQoS(odp.QoS{Timeout: 30 * time.Second})
	ctx := context.Background()
	call := e1(func() error {
		_, err := proxy.Call(ctx, "add")
		return err
	})
	settleE1(call)

	before, _ := client.Gather()["rpc.client.packed_upgrades"].(uint64)
	allocs := minAllocsPerRun(200, call)
	after, _ := client.Gather()["rpc.client.packed_upgrades"].(uint64)
	if after <= before {
		t.Fatalf("measured calls were not packed: upgrades %d -> %d", before, after)
	}
	if allocs >= packedE1AllocBudget {
		t.Fatalf("packed E1 loopback allocates %.1f/op, budget < %d", allocs, packedE1AllocBudget)
	}
	t.Logf("packed E1 loopback: %.1f allocs/op (budget < %d)", allocs, packedE1AllocBudget)
}

// bulkEchoAllocBudget is the ceiling for echoing tcp_bulk's ~12 KiB
// structured value between two coalesced platforms: about 300 boxed
// scalars and headers each way, decoded into a dozen slabs a side. The
// call costs 25 (26 before the client interned the reply's outcome, 30
// while a reply above 512 bytes was encoded into a nil buffer that
// append grew four times and recycle then dropped — it now comes from,
// and returns to, the buffer pool); it cost 764 when every scalar was its
// own object, twice over on the server.
const bulkEchoAllocBudget = 28

func TestBulkEchoAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are skewed under -race: sync.Pool drops puts by design")
	}
	server, client, e1 := e1Pair(t)
	ref, err := server.Publish("echo", odp.Object{Servant: odp.ServantFunc(
		func(_ context.Context, _ string, args []odp.Value) (string, []odp.Value, error) {
			return "ok", args[:1], nil
		})})
	if err != nil {
		t.Fatal(err)
	}
	// The value bulkValue builds in cmd/odpload/workload.go.
	rng := rand.New(rand.NewSource(1))
	str := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	tags, samples, blob := make(odp.List, 32), make(odp.List, 256), make([]byte, 8<<10)
	for i := range tags {
		tags[i] = str(4 + rng.Intn(12))
	}
	for i := range samples {
		samples[i] = int64(rng.Uint64())
	}
	rng.Read(blob)
	payload := odp.Record{"id": rng.Int63(), "name": str(64), "tags": tags, "samples": samples, "blob": blob}

	proxy := client.Bind(ref).WithQoS(odp.QoS{Timeout: 30 * time.Second})
	ctx := context.Background()
	call := e1(func() error {
		out, err := proxy.Call(ctx, "echo", payload)
		if err == nil && !wire.Equal(out.Result(0), payload) {
			err = errors.New("the echo differs from the request")
		}
		return err
	})
	settleE1(call)
	allocs := minAllocsPerRun(100, call)
	if allocs > bulkEchoAllocBudget {
		t.Fatalf("bulk echo allocates %.1f/op, budget <= %d", allocs, bulkEchoAllocBudget)
	}
	t.Logf("bulk echo: %.1f allocs/op (budget <= %d)", allocs, bulkEchoAllocBudget)
}
