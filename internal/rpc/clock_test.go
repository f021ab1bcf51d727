package rpc

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"odp/internal/clock"
	"odp/internal/netsim"
	"odp/internal/obs"
	"odp/internal/transport"
	"odp/internal/wire"
)

// TestReplyCacheExpiryFakeClock drives the server's reply-cache janitor
// with a manual clock: the dedup entry for a completed call is evicted
// exactly when logical time crosses its TTL, with no wall-clock sleeping
// beyond goroutine-scheduling polls.
func TestReplyCacheExpiryFakeClock(t *testing.T) {
	f := netsim.NewFabric()
	t.Cleanup(func() { _ = f.Close() })
	cep, err := f.Endpoint("client")
	if err != nil {
		t.Fatal(err)
	}
	sep, err := f.Endpoint("server")
	if err != nil {
		t.Fatal(err)
	}
	fake := clock.NewFake(time.Unix(1000, 0))
	cli := NewClient(coalesce(t, cep), codec)
	t.Cleanup(func() { _ = cli.Close() })
	srv := NewServer(coalesceOn(t, sep, fake, nil), codec, echoHandler, WithReplyTTL(3*time.Second))
	t.Cleanup(func() { _ = srv.Close() })

	if _, _, err := cli.Call(context.Background(), "server", "obj", "echo",
		[]wire.Value{int64(7)}, QoS{}); err != nil {
		t.Fatal(err)
	}

	// The janitor ticks once per logical second. The entry expires at
	// most TTL after completion (the client's Ack may shorten that to the
	// ack grace), so a handful of one-second advances must evict it.
	for i := 0; i < 50 && srv.Stats().CacheEvictions == 0; i++ {
		fake.Advance(time.Second)
		time.Sleep(2 * time.Millisecond)
	}
	if got := srv.Stats().CacheEvictions; got == 0 {
		t.Fatal("reply-cache entry never evicted under fake clock")
	}
}

// TestCallTimeoutFakeClock drives the client's QoS deadline with a manual
// clock: a call into a black hole times out when logical time crosses
// QoS.Timeout.
func TestCallTimeoutFakeClock(t *testing.T) {
	f := netsim.NewFabric()
	t.Cleanup(func() { _ = f.Close() })
	cep, err := f.Endpoint("client")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Endpoint("blackhole"); err != nil { // exists, never answers
		t.Fatal(err)
	}
	fake := clock.NewFake(time.Unix(0, 0))
	cli := NewClient(coalesceOn(t, cep, fake, nil), codec)
	t.Cleanup(func() { _ = cli.Close() })

	errCh := make(chan error, 1)
	go func() {
		_, _, err := cli.Call(context.Background(), "blackhole", "obj", "noop", nil,
			QoS{Timeout: 3 * time.Second, Retransmit: time.Second})
		errCh <- err
	}()
	for i := 0; i < 200; i++ {
		select {
		case err := <-errCh:
			if !errors.Is(err, ErrTimeout) {
				t.Fatalf("err = %v, want ErrTimeout", err)
			}
			if cli.Stats().Timeouts != 1 {
				t.Fatalf("Timeouts = %d, want 1", cli.Stats().Timeouts)
			}
			return
		default:
			fake.Advance(time.Second)
			time.Sleep(2 * time.Millisecond)
		}
	}
	t.Fatal("call never timed out under fake clock")
}

// blackHole is a client endpoint whose requests go nowhere. It records
// each request's send instant, per call id, on its node's fake clock.
// It is its own Batcher: a lazy send is recorded at once, not by a
// flusher running whenever the scheduler gets to it.
type blackHole struct {
	clk *clock.Fake

	mu   sync.Mutex
	sent map[uint64][]time.Time
}

func newBlackHole(clk *clock.Fake) *blackHole {
	return &blackHole{clk: clk, sent: make(map[uint64][]time.Time)}
}

func (b *blackHole) Addr() string                           { return "client" }
func (b *blackHole) SetHandler(transport.Handler)           {}
func (b *blackHole) SetChainHandler(transport.ChainHandler) {}
func (b *blackHole) Close() error                           { return nil }

func (b *blackHole) Send(_ string, pkt []byte) error {
	if h, _, err := decodeRawHeader(pkt); err == nil && h.kind == msgRequest {
		b.mu.Lock()
		b.sent[h.callID] = append(b.sent[h.callID], b.clk.Now())
		b.mu.Unlock()
	}
	return nil
}

func (b *blackHole) SendLazy(to string, pkt []byte) error { return b.Send(to, pkt) }
func (b *blackHole) SendHeld(to string, pkt []byte) error { return b.Send(to, pkt) }

func (b *blackHole) BatchStats() transport.CoalescerStats { return transport.CoalescerStats{} }
func (b *blackHole) RetireIdle()                          {}
func (b *blackHole) Clock() clock.Clock                   { return b.clk }
func (b *blackHole) Observer() *obs.Collector             { return nil }

func (b *blackHole) sends(id uint64) []time.Time {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]time.Time(nil), b.sent[id]...)
}

// nextDeadlineIs polls until the fake clock's earliest deadline is at.
func nextDeadlineIs(t *testing.T, fake *clock.Fake, at time.Time) {
	t.Helper()
	pollUntil(t, "retransmission clock armed", func() bool {
		next, ok := fake.NextDeadline()
		return ok && next.Equal(at)
	})
}

// TestRetransmissionClockKeepsEachCallsInstants: three calls with
// different QoS share the client's one retransmission clock, and each
// keeps its own schedule — retransmissions at exactly start + k·Retransmit
// and ErrTimeout at exactly start + Timeout — with the counters to match
// and no timer left behind.
func TestRetransmissionClockKeepsEachCallsInstants(t *testing.T) {
	start := time.Unix(0, 0)
	fake := clock.NewFake(start)
	ep := newBlackHole(fake)
	cli := NewClient(ep, codec)
	pre := fake.PendingWaiters()

	const ms = time.Millisecond
	qos := []QoS{
		{Retransmit: 10 * ms, Timeout: 50 * ms},
		{Retransmit: 25 * ms, Timeout: 100 * ms},
		{Retransmit: 40 * ms, Timeout: 130 * ms},
	}
	type result struct {
		call int
		err  error
	}
	results := make(chan result, len(qos))
	for i, q := range qos {
		go func() {
			_, _, err := cli.Call(context.Background(), "nowhere", "obj", "noop", nil, q)
			results <- result{i, err}
		}()
		id := uint64(i + 1)
		pollUntil(t, "call on the wire", func() bool { return len(ep.sends(id)) == 1 })
		nextDeadlineIs(t, fake, start.Add(qos[0].Retransmit))
	}

	// Fire one deadline at a time; after each pass, collect the calls it
	// failed before the clock moves on.
	timedOut := make([]time.Time, len(qos))
	for done := 0; done < len(qos); {
		next, ok := fake.NextDeadline()
		if !ok {
			t.Fatalf("nothing armed with %d calls pending", len(qos)-done)
		}
		fake.Advance(next.Sub(fake.Now()))
		pollUntil(t, "pass finished", func() bool { return fake.FiringCallbacks() == 0 })
		for ; done < int(cli.Stats().Timeouts); done++ {
			r := <-results
			if !errors.Is(r.err, ErrTimeout) {
				t.Fatalf("call %d: err = %v, want ErrTimeout", r.call, r.err)
			}
			timedOut[r.call] = fake.Now()
		}
	}

	var retransmits uint64
	for i, q := range qos {
		var want, got []time.Duration
		for at := time.Duration(0); at < q.Timeout; at += q.Retransmit {
			want = append(want, at)
		}
		for _, at := range ep.sends(uint64(i + 1)) {
			got = append(got, at.Sub(start))
		}
		retransmits += uint64(len(want) - 1)
		if !slices.Equal(got, want) {
			t.Errorf("call %d (%+v): sent at %v, want %v", i, q, got, want)
		}
		if at := timedOut[i].Sub(start); at != q.Timeout {
			t.Errorf("call %d (%+v): ErrTimeout at %v, want %v", i, q, at, q.Timeout)
		}
	}
	if st := cli.Stats(); st.Retransmissions != retransmits || st.Timeouts != uint64(len(qos)) {
		t.Errorf("Retransmissions = %d, Timeouts = %d, want %d and %d", st.Retransmissions, st.Timeouts, retransmits, len(qos))
	}
	if n := fake.PendingWaiters(); n != pre {
		t.Errorf("%d timers pending after the last call, want %d", n, pre)
	}
	_ = cli.Close()
	if n := fake.PendingWaiters(); n != pre {
		t.Errorf("%d timers pending after Close, want %d", n, pre)
	}
}

// TestClosedCallNeverPoolsItsChannel: Close fails parked calls by closing
// their channels, and a closed channel never returns to the pool — a
// second client in the same process then makes 1,000 calls that each see
// exactly their own reply. The second half races a caller's cancellation
// against the pass failing the same call: whichever removes the entry
// sends once, the caller takes that one value, and the counters agree.
func TestClosedCallNeverPoolsItsChannel(t *testing.T) {
	f := netsim.NewFabric()
	t.Cleanup(func() { _ = f.Close() })
	for _, addr := range []string{"parker", "client", "server", "blackhole"} {
		if _, err := f.Endpoint(addr); err != nil {
			t.Fatal(err)
		}
	}
	ep := func(addr string) transport.Endpoint { e, _ := f.Endpoint(addr); return e }
	ctx := context.Background()

	parker := NewClient(coalesce(t, ep("parker")), codec)
	const parked = 8
	errs := make(chan error, parked)
	for i := 0; i < parked; i++ {
		go func() {
			_, _, err := parker.Call(ctx, "blackhole", "o", "op", nil, QoS{Timeout: time.Hour, Retransmit: time.Hour})
			errs <- err
		}()
	}
	pollUntil(t, "calls parked", func() bool { return parker.Stats().Calls == parked })
	_ = parker.Close()
	for i := 0; i < parked; i++ {
		if err := <-errs; !errors.Is(err, ErrClosed) {
			t.Fatalf("parked call: %v, want ErrClosed", err)
		}
	}

	srv := NewServer(coalesce(t, ep("server")), codec, echoHandler)
	t.Cleanup(func() { _ = srv.Close() })
	cli := NewClient(coalesce(t, ep("client")), codec)
	t.Cleanup(func() { _ = cli.Close() })
	for i := int64(0); i < 1000; i++ {
		_, res, err := cli.Call(ctx, "server", "o", "echo", []wire.Value{i}, QoS{})
		if err != nil || len(res) != 1 || res[0] != i {
			t.Fatalf("call %d after a Close: %v %v", i, res, err)
		}
	}

	fake := clock.NewFake(time.Unix(0, 0))
	racer := NewClient(newBlackHole(fake), codec)
	t.Cleanup(func() { _ = racer.Close() })
	var timeouts uint64
	for round := 0; round < 100; round++ {
		cctx, cancel := context.WithCancel(ctx)
		done := make(chan error, 1)
		go func() {
			_, _, err := racer.Call(cctx, "nowhere", "o", "op", nil, QoS{Timeout: 10 * time.Millisecond, Retransmit: time.Hour})
			done <- err
		}()
		nextDeadlineIs(t, fake, fake.Now().Add(10*time.Millisecond))
		select {
		case err := <-done:
			t.Fatalf("round %d: call returned %v before anything failed it (stale channel)", round, err)
		default:
		}
		go cancel()
		fake.Advance(10 * time.Millisecond)
		switch err := <-done; {
		case errors.Is(err, ErrTimeout):
			timeouts++
		case errors.Is(err, context.Canceled):
		default:
			t.Fatalf("round %d: %v, want ErrTimeout or context.Canceled", round, err)
		}
		pollUntil(t, "pass finished", func() bool { return fake.FiringCallbacks() == 0 })
		cancel()
	}
	if got := racer.Stats().Timeouts; got != timeouts {
		t.Fatalf("Timeouts = %d, but %d calls returned ErrTimeout", got, timeouts)
	}
	t.Logf("the pass won %d of 100 races, the cancellation %d", timeouts, 100-timeouts)
}

// TestHeldRepliesLeaveAtBatchEndOnFrozenClock: replies held for the end
// of the batch their requests came in leave at that end, in one write,
// on a server whose clock never moves, so neither its flusher nor its
// EndOfInstant can be what sends them. The batch ends with a request,
// whose reply carries the held ones, or with an announcement, after
// which the end writes them itself. The caller is bare, with nothing to
// retransmit: its coalescer runs on a frozen clock of its own, so frames
// sent lazy, lazy, direct leave as one batch.
func TestHeldRepliesLeaveAtBatchEndOnFrozenClock(t *testing.T) {
	for name, last := range map[string]byte{"ends with a request": msgRequest, "ends with an announcement": msgAnnounce} {
		t.Run(name, func(t *testing.T) {
			f := netsim.NewFabric()
			t.Cleanup(func() { _ = f.Close() })
			cep, err := f.Endpoint("client")
			if err != nil {
				t.Fatal(err)
			}
			sep, err := f.Endpoint("server")
			if err != nil {
				t.Fatal(err)
			}
			start := time.Unix(100, 0)
			fc := clock.NewFake(start)
			sco := coalesceOn(t, sep, fc, nil)
			srv := NewServer(sco, codec, echoHandler)
			t.Cleanup(func() { _ = srv.Close() })
			cco := coalesceOn(t, cep, clock.NewFake(start), nil)
			const frames = 3
			replies := make(chan uint64, frames)
			cco.SetHandler(func(_ string, pkt []byte) {
				if h, _, err := decodeRawHeader(pkt); err == nil && h.kind == msgReply {
					replies <- h.callID
				}
			})
			want := frames
			for id := uint64(1); id <= frames; id++ {
				send, kind := cco.SendLazy, byte(msgRequest)
				if id == frames {
					send, kind = cco.Send, last
				}
				if kind == msgAnnounce {
					want--
				}
				if err := send("server", buildPacket(kind, 0, id, "obj", "echo", []wire.Value{int64(id)})); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < want; i++ {
				select {
				case <-replies:
				case <-time.After(5 * time.Second):
					t.Fatalf("%d of %d replies after 5s on a frozen clock", i, want)
				}
			}
			if st := cco.BatchStats(); st.BatchesReceived != 1 || st.FramesUnpacked != uint64(want) {
				t.Errorf("replies came in %d batches of %d frames in all, want one of %d", st.BatchesReceived, st.FramesUnpacked, want)
			}
			// The server counts a batch once its write has returned, which
			// can be after the client has every reply: wait for the count.
			watchdog := time.After(5 * time.Second)
			for sco.BatchStats().BatchesSent < 1 {
				select {
				case <-watchdog:
					t.Fatalf("the server counted no batch 5s after the client had its replies")
				case <-time.After(time.Millisecond):
				}
			}
			if st := sco.BatchStats(); st.BatchesSent != 1 || st.DirectFlushes != 1 {
				t.Errorf("server wrote %d batches, %d directly; want one, directly", st.BatchesSent, st.DirectFlushes)
			}
			if !fc.Now().Equal(start) {
				t.Fatalf("the server's clock moved to %v", fc.Now())
			}
		})
	}
}
