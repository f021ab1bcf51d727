package bench

import (
	"context"
	"runtime"
	"testing"
	"time"

	"odp"
)

// This file holds the hot-path micro-benchmarks behind the repo-root
// Benchmark wrappers (`go test -bench`, the CI bench-smoke step).

// mustPair builds the standard two-node rig or aborts the benchmark.
func mustPair(b *testing.B, profile odp.LinkProfile) *pair {
	b.Helper()
	p, err := newPair(profile)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func mustPublish(b *testing.B, p *pair, id string, obj odp.Object) odp.Ref {
	b.Helper()
	ref, err := p.server.Publish(id, obj)
	if err != nil {
		b.Fatal(err)
	}
	return ref
}

// MicroE1DirectGoCall is the floor of the E1 ladder: the servant invoked
// as a plain Go call, no platform at all.
func MicroE1DirectGoCall(b *testing.B) {
	servant := newCell(0)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := servant.Dispatch(ctx, "add", []odp.Value{int64(1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// MicroE1CoLocatedOptimised measures the §4.5 direct-local-access path:
// proxy and servant share a capsule, the dispatcher short-circuits codec
// and transport, arguments cross by copy only when mutable.
func MicroE1CoLocatedOptimised(b *testing.B) {
	p := mustPair(b, odp.LinkProfile{})
	defer p.close()
	ref := mustPublish(b, p, "cell", odp.Object{Servant: newCell(0)})
	proxy := p.server.Bind(ref)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proxy.Call(ctx, "add", int64(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// MicroE1RemoteLoopback measures the full protocol stack — codec, rpc,
// simulated fabric — with zero network latency, so what remains is the
// platform's own per-invocation cost. The rig is the steady state a
// tuned deployment reaches: both nodes run write coalescing (serial
// sends take the direct scatter-gather path) and the HELLO exchange has negotiated the packed codec, so
// requests travel as ansa-packed/1 bodies the server decodes zero-copy.
// MicroE1BinaryLoopback keeps the un-negotiated baseline.
func MicroE1RemoteLoopback(b *testing.B) {
	p, proxy := mustBatchedPair(b, odp.LinkProfile{}, odp.QoS{Timeout: 30 * time.Second})
	defer p.close()
	if n, _ := p.client.Gather()["rpc.client.packed_upgrades"].(uint64); n == 0 {
		b.Fatal("packed codec not negotiated after warm-up")
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proxy.Call(ctx, "add", int64(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// MicroE1HistogramLoopback is MicroE1RemoteLoopback with the latency
// histograms pinned into the measured path: after the timed loop it
// checks both ends' histogram counts advanced once per call. Recording
// is always on — there is no sampling knob to turn it off — so this
// rung and E1RemoteLoopback measure the same path and should track each
// other exactly; what the assertion buys is that a refactor which
// routes the hot path around the histograms fails the benchmark instead
// of silently recording an uninstrumented number.
func MicroE1HistogramLoopback(b *testing.B) {
	p, proxy := mustBatchedPair(b, odp.LinkProfile{}, odp.QoS{Timeout: 30 * time.Second})
	defer p.close()
	if n, _ := p.client.Gather()["rpc.client.packed_upgrades"].(uint64); n == 0 {
		b.Fatal("packed codec not negotiated after warm-up")
	}
	callsBefore, _ := p.client.Gather()["rpc.client.call_count"].(uint64)
	dispatchBefore, _ := p.server.Gather()["rpc.server.dispatch_count"].(uint64)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proxy.Call(ctx, "add", int64(1)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	callsAfter, _ := p.client.Gather()["rpc.client.call_count"].(uint64)
	dispatchAfter, _ := p.server.Gather()["rpc.server.dispatch_count"].(uint64)
	if got := callsAfter - callsBefore; got < uint64(b.N) {
		b.Fatalf("client call histogram advanced %d over %d measured calls", got, b.N)
	}
	if got := dispatchAfter - dispatchBefore; got < uint64(b.N) {
		b.Fatalf("server dispatch histogram advanced %d over %d measured calls", got, b.N)
	}
}

// MicroE1BinaryLoopback is the plain-binary control for
// MicroE1RemoteLoopback: the same serial loopback invocation ladder rung
// with no coalescer and no capability negotiation, every request a
// version-1 binary-codec datagram of its own. The delta against
// E1RemoteLoopback is what packed framing plus scatter-gather writes
// buy; this rung is also what a peer that never sent a HELLO keeps
// paying, so it must not regress when the packed path evolves.
func MicroE1BinaryLoopback(b *testing.B) {
	p := mustPair(b, odp.LinkProfile{})
	defer p.close()
	ref := mustPublish(b, p, "cell", odp.Object{Servant: newCell(0)})
	proxy := p.client.Bind(ref).WithQoS(odp.QoS{Timeout: 30 * time.Second})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proxy.Call(ctx, "add", int64(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// MicroE1TracedLoopback is E1RemoteLoopback with tracing on and every
// call sampled: each invocation mints a stub root, a send span, trace
// context on the wire and a server dispatch span. The delta against
// E1RemoteLoopback is the full per-call cost of observation.
func MicroE1TracedLoopback(b *testing.B) {
	p, err := newTracedPair(odp.LinkProfile{}, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer p.close()
	ref := mustPublish(b, p, "cell", odp.Object{Servant: newCell(0)})
	proxy := p.client.Bind(ref).WithQoS(odp.QoS{Timeout: 30 * time.Second})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proxy.Call(ctx, "add", int64(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// MicroE1TracedUnsampledLoopback is the overhead that matters: the
// collector wired through every layer but sampling off, which must cost
// nothing but a handful of nil/atomic checks — the alloc gate in
// trace_test.go pins it at zero added allocations.
func MicroE1TracedUnsampledLoopback(b *testing.B) {
	p, err := newTracedPair(odp.LinkProfile{}, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer p.close()
	ref := mustPublish(b, p, "cell", odp.Object{Servant: newCell(0)})
	proxy := p.client.Bind(ref).WithQoS(odp.QoS{Timeout: 30 * time.Second})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proxy.Call(ctx, "add", int64(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// mustBatchedPair builds the two-node rig with write coalescing on both
// sides and warms it up until the in-band negotiation has fully
// settled — the peers have exchanged HELLOs and the client has started
// upgrading calls to the packed codec — so the measured region is pure
// steady state. A fixed warm-up count is not enough: the HELLO probe's
// delivery goroutine can be starved for a while behind the
// request/reply ping-pong on a single-CPU runner, so the loop polls
// the negotiated state instead of assuming it.
func mustBatchedPair(b *testing.B, profile odp.LinkProfile, proxyQoS odp.QoS) (*pair, *odp.Proxy) {
	b.Helper()
	p, err := newBatchedPair(profile)
	if err != nil {
		b.Fatal(err)
	}
	ref, err := p.server.Publish("cell", odp.Object{Servant: newCell(0)})
	if err != nil {
		p.close()
		b.Fatal(err)
	}
	proxy := p.client.Bind(ref).WithQoS(proxyQoS)
	ctx := context.Background()
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; ; i++ {
		if _, err := proxy.Call(ctx, "add", int64(1)); err != nil {
			p.close()
			b.Fatal(err)
		}
		if i >= 16 {
			if n, _ := p.client.Gather()["rpc.client.packed_upgrades"].(uint64); n > 0 {
				break
			}
			if time.Now().After(deadline) {
				p.close()
				b.Fatal("packed codec not negotiated within warm-up deadline")
			}
			runtime.Gosched()
		}
	}
	return p, proxy
}

// MicroE1PipelinedLoopback is the headline batching benchmark: 16
// concurrent callers pipeline interrogations over one coalesced
// loopback connection. Each caller still waits for its reply, but
// requests, replies and piggybacked acks share BATCH datagrams, so the
// per-packet channel overhead that dominates MicroE1RemoteLoopback is
// amortised across the callers and the ns/op reported here is the
// throughput-side cost of an invocation under load.
func MicroE1PipelinedLoopback(b *testing.B) {
	p, proxy := mustBatchedPair(b, odp.LinkProfile{}, odp.QoS{Timeout: 30 * time.Second})
	defer p.close()
	ctx := context.Background()
	b.ReportAllocs()
	b.SetParallelism(16)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := proxy.Call(ctx, "add", int64(1)); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// MicroE4Interrogation is the request-reply half of the E4 comparison,
// over a LAN-like link.
func MicroE4Interrogation(b *testing.B) {
	p := mustPair(b, odp.LAN)
	defer p.close()
	ref := mustPublish(b, p, "sink", odp.Object{Servant: newCell(0)})
	proxy := p.client.Bind(ref).WithQoS(odp.QoS{Timeout: 30 * time.Second})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proxy.Call(ctx, "add", int64(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// MicroE4Announcement is the request-only half: no reply to wait for.
// Announcements are fire-and-forget, so a naive send loop measures only
// enqueue cost while the server's backlog (one execute goroutine per
// announcement) grows with b.N — the ns/op then depends on the iteration
// count through GC pressure, which is exactly what a recorded trajectory
// cannot tolerate. The loop therefore keeps a bounded in-flight window
// and drains the sink before stopping the clock: the number is
// steady-state announcement *throughput* (send + execute), independent
// of b.N. Recorded as E4AnnouncementDrained since the semantics changed.
func MicroE4Announcement(b *testing.B) {
	const window = 1024
	p := mustPair(b, odp.LAN)
	defer p.close()
	sink := newCell(0)
	ref := mustPublish(b, p, "sink", odp.Object{Servant: sink})
	proxy := p.client.Bind(ref)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := proxy.Announce("note"); err != nil {
			b.Fatal(err)
		}
		if (i+1)%window == 0 {
			drainAnnouncements(b, sink, int64(i+1-window))
		}
	}
	drainAnnouncements(b, sink, int64(b.N))
}

// drainAnnouncements blocks until the sink has executed at least n
// announcements, yielding so the server's goroutines get the CPU.
func drainAnnouncements(b *testing.B, sink *cell, n int64) {
	deadline := time.Now().Add(30 * time.Second)
	for sink.count() < n {
		if time.Now().After(deadline) {
			b.Fatalf("announcement backlog never drained: %d/%d", sink.count(), n)
		}
		runtime.Gosched()
	}
}

// MicroE4AnnounceConcurrent measures announcement throughput with 16
// concurrent senders sharing one coalesced connection — the
// scaling-with-senders headline of the batching layer. Announcements
// are fire-and-forget, so every sender runs flat out and the coalescer
// packs their bursts into shared datagrams.
func MicroE4AnnounceConcurrent(b *testing.B) {
	p, proxy := mustBatchedPair(b, odp.LAN, odp.QoS{Timeout: 30 * time.Second})
	defer p.close()
	b.ReportAllocs()
	b.SetParallelism(16)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := proxy.Announce("note"); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// MicroE12FrameSend measures the stream fast path: one 256-byte frame
// per op through the stream binding.
func MicroE12FrameSend(b *testing.B) {
	p := mustPair(b, odp.LinkProfile{})
	defer p.close()
	rx, err := odp.NewStreamReceiver(p.client, func(odp.StreamSpec) (odp.Sink, error) {
		return odp.SinkFunc(func(odp.Frame) {}), nil
	})
	if err != nil {
		b.Fatal(err)
	}
	bind, err := odp.BindStream(p.server, rx.Ref(), odp.StreamSpec{Media: "data"})
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bind.Send(int64(i), payload); err != nil {
			b.Fatal(err)
		}
	}
}

// traderRig builds a trader populated with n offers (one in ten matching
// the Cell requirement) for the store micro-benchmarks.
func traderRig(b *testing.B, n int, opts ...odp.Option) (*pair, odp.ImportSpec) {
	b.Helper()
	p, err := newPair(odp.LinkProfile{}, append([]odp.Option{odp.WithTrader("bench")}, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		t := cellTypeOnly("get")
		if i%10 != 0 {
			t = odp.Type{Name: "Other", Ops: map[string]odp.Operation{
				"frob": {Outcomes: map[string][]odp.Desc{"ok": {}}},
			}}
		}
		if _, err := p.server.Trader.Advertise(t,
			odp.Ref{ID: "o", Endpoints: []string{"x"}},
			map[string]odp.Value{"i": int64(i)}); err != nil {
			p.close()
			b.Fatal(err)
		}
	}
	return p, odp.ImportSpec{Requirement: cellTypeOnly("get"), MaxMatches: 1}
}

// microTraderImport measures a steady-state single-match import: every
// shard lookup hits a current RCU snapshot, so the op is sixteen atomic
// loads plus one offer clone regardless of population.
func microTraderImport(b *testing.B, n int) {
	p, spec := traderRig(b, n)
	defer p.close()
	ctx := context.Background()
	tr := p.server.Trader
	if _, err := tr.Import(ctx, spec); err != nil { // publish snapshots
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Import(ctx, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// MicroTraderImport10k: single-match import over ten thousand offers.
func MicroTraderImport10k(b *testing.B) { microTraderImport(b, 10_000) }

// MicroTraderImport100k: the same import over ten times the population —
// the trajectory gate holds the pair together, pinning the flatness
// claim of E19.
func MicroTraderImport100k(b *testing.B) { microTraderImport(b, 100_000) }

// MicroTraderChurn10k interleaves advertise/withdraw churn with imports
// under the bounded-staleness snapshot policy: the cost of keeping the
// store hot while it changes.
func MicroTraderChurn10k(b *testing.B) {
	p, spec := traderRig(b, 10_000,
		odp.WithTraderSnapshotPolicy(10*time.Millisecond, 1<<16))
	defer p.close()
	ctx := context.Background()
	tr := p.server.Trader
	if _, err := tr.Import(ctx, spec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	id := ""
	for i := 0; i < b.N; i++ {
		if id != "" {
			if err := tr.Withdraw(id); err != nil {
				b.Fatal(err)
			}
		}
		var err error
		if id, err = tr.Advertise(cellTypeOnly("get"),
			odp.Ref{ID: "churn", Endpoints: []string{"x"}}, nil); err != nil {
			b.Fatal(err)
		}
		if _, err := tr.Import(ctx, spec); err != nil {
			b.Fatal(err)
		}
	}
}
