// Tests for the rpc layer's interaction with the write coalescer
// (transport.Coalescer): ack piggybacking onto batches, the bounded
// announcement dedup window behind the E4 fix, and handler-context
// cancellation on Close.
package rpc

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"odp/internal/clock"
	"odp/internal/netsim"
	"odp/internal/transport"
	"odp/internal/wire"
)

// TestCallsOverCoalescedEndpoints: the whole interrogation protocol —
// request, reply, ack, dedup — works unchanged when both directions are
// batched, and the traffic demonstrably went through BATCH frames.
func TestCallsOverCoalescedEndpoints(t *testing.T) {
	_, cli, mkServer := setup(t)
	srv := mkServer(echoHandler)
	for i := 0; i < 20; i++ {
		outcome, results, err := cli.Call(context.Background(), "server", "obj", "reverse",
			[]wire.Value{int64(i), "x"}, QoS{Timeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if outcome != "ok" || len(results) != 2 || results[1] != int64(i) {
			t.Fatalf("call %d: outcome=%q results=%v", i, outcome, results)
		}
	}
	if st := srv.Stats(); st.Requests != 20 {
		t.Fatalf("server executed %d requests, want 20", st.Requests)
	}
	if bst := cli.ep.BatchStats(); bst.BatchesSent == 0 || bst.FramesBatched == 0 {
		t.Fatalf("no batches on the wire: %+v", bst)
	}
}

// TestAckPiggybackOnBatches: acks are deferred and flushed ahead of the
// next send to the same destination, so they share its batch; none are
// lost (the server still evicts), and Close flushes the tail.
func TestAckPiggybackOnBatches(t *testing.T) {
	_, cli, mkServer := setup(t)
	mkServer(echoHandler)
	const calls = 6
	for i := 0; i < calls; i++ {
		if _, _, err := cli.Call(context.Background(), "server", "obj", "reverse",
			[]wire.Value{int64(i)}, QoS{Timeout: 5 * time.Second}); err != nil {
			t.Fatal(err)
		}
	}
	st := cli.Stats()
	if st.AcksDeferred != calls {
		t.Fatalf("AcksDeferred = %d, want %d (every ack deferred)",
			st.AcksDeferred, calls)
	}
	// All but the last call's ack had a later send to piggyback on.
	if st.AcksPiggybacked < calls-1 {
		t.Fatalf("AcksPiggybacked = %d, want >= %d", st.AcksPiggybacked, calls-1)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	if st := cli.Stats(); st.AcksPiggybacked != calls {
		t.Fatalf("Close must flush the deferred tail: piggybacked %d of %d",
			st.AcksPiggybacked, calls)
	}
}

// TestAnnouncementDedupBounded is the E4 regression test: the server's
// announcement dedup state must stay O(1) in announcement volume — the
// unbounded map growth it replaces is what made E4Announcement ns/op a
// function of b.N.
func TestAnnouncementDedupBounded(t *testing.T) {
	f, cli, mkServer := setup(t)
	srv := mkServer(func(_ context.Context, _ *Incoming) (string, []wire.Value, error) {
		return "", nil, nil
	})

	// In windows, as a sender that wants them all delivered must send
	// them: a best-effort queue behind a write in flight sheds past its
	// byte limit.
	const n, window = 20000, 500
	for i := 1; i <= n; i++ {
		if err := cli.Announce("server", "obj", "note", nil, QoS{}); err != nil {
			t.Fatal(err)
		}
		if i%window == 0 {
			pollUntil(t, "announcements delivered", func() bool {
				return srv.Stats().Announcements == uint64(i)
			})
		}
	}

	// One sender numbering in order is one range, whatever the volume;
	// and announcements claim no call rows.
	pc := peerState(srv, "client")
	if pc.announcedRanges > 2 {
		t.Fatalf("%d in-order announcements left %d ranges, want one per generation", n, pc.announcedRanges)
	}
	if pc.liveRows != 0 || pc.ackedRanges != 0 || pc.freeCalls != 0 {
		t.Fatalf("announcements leaked call-table state: %+v", pc)
	}

	// Ids that never merge — a sender alternating between two servers —
	// are capped per generation, the oldest half forgotten.
	raw, err := f.Endpoint("alternating")
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(2); id <= 4*announceWindow; id += 2 {
		if err := raw.Send("server", rawFrame(msgAnnounce, id)); err != nil {
			t.Fatal(err)
		}
	}
	pollUntil(t, "alternating announcements delivered", func() bool {
		return srv.Stats().Announcements == n+2*announceWindow
	})
	if got := peerState(srv, "alternating").announcedRanges; got > announceWindow {
		t.Fatalf("announcement window grew past its bound: %d > %d ranges", got, announceWindow)
	}

	// The bounded window must still deduplicate a Repeats burst.
	before := srv.Stats()
	if err := cli.Announce("server", "obj", "note", nil, QoS{Repeats: 4}); err != nil {
		t.Fatal(err)
	}
	pollUntil(t, "repeat burst deduplicated", func() bool {
		st := srv.Stats()
		return st.Announcements == before.Announcements+1 &&
			st.AnnounceDedup == before.AnnounceDedup+4
	})
}

// TestServerCloseCancelsHandlerCtx: the context handed to handlers is
// cancelled by Close, so a handler blocked on it unwinds and Close's
// wg.Wait can return — cancellation propagates instead of being
// dropped at the dispatch boundary.
func TestServerCloseCancelsHandlerCtx(t *testing.T) {
	f := netsim.NewFabric()
	t.Cleanup(func() { _ = f.Close() })
	cep, _ := f.Endpoint("client")
	sep, _ := f.Endpoint("server")
	cli := NewClient(coalesce(t, cep), codec)
	t.Cleanup(func() { _ = cli.Close() })

	entered := make(chan struct{})
	srv := NewServer(coalesce(t, sep), codec, func(ctx context.Context, _ *Incoming) (string, []wire.Value, error) {
		close(entered)
		<-ctx.Done() // blocks forever unless Close cancels
		return "", nil, ctx.Err()
	})

	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, _, _ = cli.Call(ctx, "server", "obj", "block", nil, QoS{Timeout: 5 * time.Second})
	}()
	<-entered

	done := make(chan struct{})
	go func() {
		_ = srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung: handler context was not cancelled")
	}
}

// batchedTCPPeers wires two peers over coalesced loopback TCP, so every
// frame takes the batching path. Dispatch is inline, on the connection's
// reader, which a handler that stalls hands on. A lost frame would show
// as a retransmission after two seconds; a slow machine does not.
func batchedTCPPeers(t *testing.T, ha, hb Handler) (a, b *Peer, aco, bco *transport.Coalescer) {
	t.Helper()
	listen := func() *transport.Coalescer {
		ep, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return coalesce(t, ep)
	}
	aco, bco = listen(), listen()
	a, b = NewPeer(aco, codec, ha), NewPeer(bco, codec, hb)
	t.Cleanup(func() {
		_ = a.Close()
		_ = b.Close()
	})
	return a, b, aco, bco
}

var batchQoS = QoS{Timeout: 20 * time.Second, Retransmit: 2 * time.Second}

// callConcurrently issues perCaller interrogations of op at dest from
// each of callers goroutines and fails the test on any error — also on a
// result that is not the caller's own argument, as one read from a
// buffer recycled under its Send would be.
func callConcurrently(t *testing.T, cli *Client, dest, op string, qos QoS, callers, perCaller int) {
	t.Helper()
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				want := int64(g*perCaller + i)
				_, res, err := cli.Call(context.Background(), dest, "obj", op, []wire.Value{want}, qos)
				if err != nil || len(res) != 1 || res[0] != want {
					t.Errorf("caller %d call %d: res=%v err=%v", g, i, res, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentCallsShareDatagrams is the batching rule, on the one
// core where the coalescer alone cannot see it: eight callers on one
// connection each find the wire idle, so only the rpc layer's count of
// interrogations in flight can tell them — and the replies to them — to
// queue for one write. A lone caller must keep the direct write.
func TestConcurrentCallsShareDatagrams(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range []struct {
		name    string
		callers int
		check   func(t *testing.T, side string, st transport.CoalescerStats)
	}{
		{"8 callers queue", 8, func(t *testing.T, side string, st transport.CoalescerStats) {
			if st.FramesBatched < 3*st.BatchesSent {
				t.Errorf("%s: %d frames in %d batches: concurrent calls are not sharing datagrams", side, st.FramesBatched, st.BatchesSent)
			}
		}},
		{"1 caller writes directly", 1, func(t *testing.T, side string, st transport.CoalescerStats) {
			if 10*st.DirectFlushes < 9*st.BatchesSent {
				t.Errorf("%s: %d of %d batches written directly: a lone caller is paying the flusher hand-off", side, st.DirectFlushes, st.BatchesSent)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b, aco, bco := batchedTCPPeers(t, echoHandler, echoHandler)
			callConcurrently(t, a.Client, bco.Addr(), "echo", batchQoS, tc.callers, 200)
			tc.check(t, "client", aco.BatchStats())
			tc.check(t, "server", bco.BatchStats())
			if st := b.Server.Stats(); st.Requests != uint64(tc.callers*200) || st.Duplicates != 0 {
				t.Errorf("server: %d executions, %d duplicates", st.Requests, st.Duplicates)
			}
			if st := a.Client.Stats(); st.Retransmissions != 0 || st.Timeouts != 0 {
				t.Errorf("client: %d retransmissions, %d timeouts", st.Retransmissions, st.Timeouts)
			}
			if n := aco.BatchStats().Overflows + bco.BatchStats().Overflows; n != 0 {
				t.Errorf("%d frames dropped from a full queue", n)
			}
		})
	}
}

// TestNestedCallOverSameConnectionCompletes: a handler that blocks on a
// call back over the connection its own request arrived on. Its reply,
// queued or direct, must not wait on that connection's read loop — the
// loop is busy delivering the nested call's reply.
func TestNestedCallOverSameConnectionCompletes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var a, b *Peer
	var aco *transport.Coalescer
	wired := make(chan struct{}) // the handler reads b and aco, set below
	outer := func(ctx context.Context, in *Incoming) (string, []wire.Value, error) {
		<-wired
		return b.Client.Call(ctx, aco.Addr(), "obj", "inner", in.Args, batchQoS)
	}
	a, b, aco, bco := batchedTCPPeers(t, echoHandler, outer)
	close(wired)
	callConcurrently(t, a.Client, bco.Addr(), "outer", batchQoS, 8, 50)
	if got := a.Server.Stats().Requests; got != 8*50 {
		t.Fatalf("%d nested calls executed, want %d", got, 8*50)
	}
}

// TestBlockedHandlerHoldsNoConnection: over TCP a dispatch runs on its
// connection's reader, and a handler blocked on a channel holds that
// reader for a stall bound, no longer — the quiet one, since it asked
// the peer nothing. A second call on the same connection completes
// within a few bounds while the first is still blocked, and the first
// completes once released. The log says what a call costs beside it,
// and what a nested call back over the connection its request came in on
// costs: its reply is read only once the reader blocked in the outer
// handler has been replaced, one short bound after the nested request
// left.
func TestBlockedHandlerHoldsNoConnection(t *testing.T) {
	release := make(chan struct{})
	var b *Peer
	var aco *transport.Coalescer
	wired := make(chan struct{}) // the handler reads b and aco, set below
	h := func(ctx context.Context, in *Incoming) (string, []wire.Value, error) {
		switch in.Op {
		case "block":
			<-release
		case "nested":
			<-wired
			return b.Client.Call(ctx, aco.Addr(), "obj", "echo", in.Args, batchQoS)
		}
		return echoHandler(ctx, in)
	}
	a, b, aco, bco := batchedTCPPeers(t, echoHandler, h)
	close(wired)
	call := func(op string, arg int64) (time.Duration, error) {
		start := time.Now()
		_, res, err := a.Client.Call(context.Background(), bco.Addr(), "obj", op, []wire.Value{arg}, batchQoS)
		if err == nil && (len(res) != 1 || res[0] != arg) {
			err = fmt.Errorf("res %v, want [%d]", res, arg)
		}
		return time.Since(start), err
	}
	median := func(op string) time.Duration {
		const n = 200
		lat := make([]time.Duration, n)
		for i := range lat {
			var err error
			if lat[i], err = call(op, int64(i)); err != nil {
				t.Fatalf("%s call %d: %v", op, i, err)
			}
		}
		slices.Sort(lat)
		return lat[n/2]
	}
	plain := median("echo")
	blocked := make(chan error, 1)
	go func() {
		_, err := call("block", -1)
		blocked <- err
	}()
	pollUntil(t, "the blocking call admitted", func() bool { return b.Server.active.Load() == 1 })
	beside, err := call("echo", 1)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-blocked:
		t.Fatalf("the blocked call returned before its release: %v", err)
	default:
	}
	if limit := 4 * clock.QuietStallBound; beside > limit {
		t.Errorf("a call beside the blocked handler took %v, over %v", beside, limit)
	}
	close(release)
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
	nested := median("nested")
	t.Logf("call p50 %v; beside a blocked handler %v (quiet bound %v); nested over the same connection p50 %v (bound %v)",
		plain, beside, clock.QuietStallBound, nested, clock.StallBound)
	for side, p := range map[string]*Peer{"caller": a, "nested caller": b} {
		if st := p.Client.Stats(); st.Retransmissions != 0 || st.Timeouts != 0 {
			t.Errorf("%s: %d retransmissions, %d timeouts", side, st.Retransmissions, st.Timeouts)
		}
	}
}

// TestSerialCallerBesideParkedCall is the mix the sharing rule reads
// wrongly: one interrogation parked in a slow handler keeps the count of
// those in flight above one, so a caller that is otherwise alone queues
// every request for the flusher with nobody to share the datagram. That
// must cost a hand-off and nothing else — every call completes, none is
// retransmitted or dropped — and the log says what the hand-off costs.
func TestSerialCallerBesideParkedCall(t *testing.T) {
	release := make(chan struct{})
	h := func(ctx context.Context, in *Incoming) (string, []wire.Value, error) {
		if in.Op == "park" {
			<-release
		}
		return echoHandler(ctx, in)
	}
	a, b, aco, bco := batchedTCPPeers(t, echoHandler, h)
	serial := func() (p50 time.Duration, directShare float64) {
		const n = 1000
		before := aco.BatchStats()
		lat := make([]time.Duration, n)
		for i := range lat {
			start := time.Now()
			if _, _, err := a.Client.Call(context.Background(), bco.Addr(), "obj", "echo", []wire.Value{int64(i)}, batchQoS); err != nil {
				t.Fatal(err)
			}
			lat[i] = time.Since(start)
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		st := aco.BatchStats()
		return lat[n/2], float64(st.DirectFlushes-before.DirectFlushes) / float64(st.BatchesSent-before.BatchesSent)
	}
	alone, aloneDirect := serial()
	parked := make(chan error, 1)
	go func() {
		_, _, err := a.Client.Call(context.Background(), bco.Addr(), "obj", "park", []wire.Value{int64(0)}, batchQoS)
		parked <- err
	}()
	pollUntil(t, "the parked call admitted", func() bool { return b.Server.active.Load() == 1 })
	beside, besideDirect := serial()
	close(release)
	if err := <-parked; err != nil {
		t.Fatal(err)
	}
	again, againDirect := serial()
	t.Logf("serial call p50 alone %v (direct writes %.2f), beside one parked call %v (%.2f), alone again %v (%.2f)",
		alone, aloneDirect, beside, besideDirect, again, againDirect)
	if aloneDirect < 0.9 || againDirect < 0.9 {
		t.Errorf("direct writes %.2f before and %.2f after the parked call: a lone caller is paying the flusher hand-off", aloneDirect, againDirect)
	}
	if st := a.Client.Stats(); st.Retransmissions != 0 || st.Timeouts != 0 {
		t.Errorf("client: %d retransmissions, %d timeouts", st.Retransmissions, st.Timeouts)
	}
	if n := aco.BatchStats().Overflows + bco.BatchStats().Overflows; n != 0 {
		t.Errorf("%d frames dropped from a full queue", n)
	}
}

// TestEmptyAckCheckStrandsNothing: a send that finds no ack queued skips
// the ack lock. Replies are delivered, their acks queued, while the
// other callers transmit to the same server, so the lock-free check
// races the queueing. An ack queued while the count reads 0 would be
// left behind by every send until the next ack: a watcher looks for that
// state under the lock while the calls run. After them, the next send
// carries every queued ack, the server's live rows shrink to the one call
// whose ack is still to come, and Close carries that one.
func TestEmptyAckCheckStrandsNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	_, cli, mkServer := setup(t)
	srv := mkServer(func(context.Context, *Incoming) (string, []wire.Value, error) {
		return "ok", nil, nil
	})
	call := func() error {
		_, _, err := cli.Call(context.Background(), "server", "obj", "get", nil, QoS{Timeout: 5 * time.Second})
		return err
	}
	var (
		stop, watched atomic.Bool
		stranded      atomic.Int64
		wg            sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			cli.ackMu.Lock()
			if cli.nacks.Load() == 0 && len(cli.acks) > 0 {
				stranded.Add(1)
			}
			cli.ackMu.Unlock()
			watched.Store(true)
		}
	}()
	const callers, calls = 8, 2000
	var callersWG sync.WaitGroup
	for g := 0; g < callers; g++ {
		callersWG.Add(1)
		go func() {
			defer callersWG.Done()
			for i := 0; i < calls; i++ {
				if err := call(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	callersWG.Wait()
	stop.Store(true)
	wg.Wait()
	if !watched.Load() {
		t.Fatal("the watcher never ran")
	}
	if n := stranded.Load(); n > 0 {
		t.Fatalf("%d times an ack sat queued while the count read 0: sends skipped it", n)
	}
	if err := call(); err != nil { // the next send
		t.Fatal(err)
	}
	// The fabric keeps no order between datagrams: an ack that left just
	// before the request may land just after it.
	pollUntil(t, "every ack but the last call's at the server", func() bool { return peerState(srv, "client").liveRows == 1 })
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	pollUntil(t, "Close's ack at the server", func() bool { return peerState(srv, "client").liveRows == 0 })
}
