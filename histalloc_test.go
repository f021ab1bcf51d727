package odp_test

// Allocation gate for latency-histogram recording: the client, server,
// bypass and binder histograms record on every invocation — always on,
// no sampling knob — so the claim that recording is free must hold on
// the tightest path there is, the packed E1 remote loopback. The gate
// proves two things at once: the histograms really are in the measured
// path (their counts advance by exactly the measured calls), and the
// path's allocation budget is the one TestPackedE1AllocGate holds the
// same call to.

import (
	"context"
	"testing"
	"time"

	"odp"
)

func TestHistogramRecordingAddsNoAllocsE1(t *testing.T) {
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

	const runs = 200
	callsBefore, _ := client.Gather()["rpc.client.call_count"].(uint64)
	dispatchBefore, _ := server.Gather()["rpc.server.dispatch_count"].(uint64)
	allocs := minAllocsPerRun(runs, call)
	callsAfter, _ := client.Gather()["rpc.client.call_count"].(uint64)
	dispatchAfter, _ := server.Gather()["rpc.server.dispatch_count"].(uint64)

	// Each AllocsPerRun round executes runs+1 calls (one warm-up); every
	// one must have landed in both ends' histograms or the gate is
	// measuring a path that skips recording.
	if got := callsAfter - callsBefore; got < runs {
		t.Fatalf("client call histogram advanced %d over %d measured calls", got, runs)
	}
	if got := dispatchAfter - dispatchBefore; got < runs {
		t.Fatalf("server dispatch histogram advanced %d over %d measured calls", got, runs)
	}
	if allocs >= packedE1AllocBudget {
		t.Fatalf("packed E1 loopback with histogram recording allocates %.1f/op, budget < %d — recording must stay alloc-free",
			allocs, packedE1AllocBudget)
	}
	t.Logf("packed E1 with histograms: %.1f allocs/op (budget < %d)", allocs, packedE1AllocBudget)
}
