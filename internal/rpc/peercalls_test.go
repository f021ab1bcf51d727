// Tests for the per-peer call records: what is remembered and for how
// long, what is bounded, and the three places where a record or its
// buffer changes hands — retirement, recycling, Close.
package rpc

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"odp/internal/clock"
	"odp/internal/netsim"
	"odp/internal/transport"
	"odp/internal/wire"
)

// peerSnapshot is what one peer record holds. Range counts are those of
// the larger generation.
type peerSnapshot struct {
	liveRows, freeCalls          int
	liveMaps                     bool // the call maps exist
	ackedRanges, announcedRanges int
	ackedCur, ackedPrev          int
	announcedCap                 int
}

func peerCount(srv *Server) (n int) {
	srv.peers.Range(func(_, _ any) bool { n++; return true })
	return n
}

func peerState(srv *Server, from string) peerSnapshot {
	p := srv.lockPeer(from, false)
	if p == nil {
		return peerSnapshot{}
	}
	defer p.mu.Unlock()
	return peerSnapshot{
		liveRows:        len(p.cur) + len(p.prev),
		freeCalls:       len(p.free),
		liveMaps:        p.cur != nil,
		ackedRanges:     max(len(p.acked.cur), len(p.acked.prev)),
		announcedRanges: max(len(p.announced.cur), len(p.announced.prev)),
		ackedCur:        len(p.acked.cur),
		ackedPrev:       len(p.acked.prev),
		announcedCap:    cap(p.announced.cur) + cap(p.announced.prev),
	}
}

// fakeClockServer is a server on a fabric endpoint nobody else talks to,
// its janitor on a settable clock. Tests drive its inbound half directly
// with inject; replies to their invented addresses go nowhere.
func fakeClockServer(t *testing.T, h Handler, opts ...ServerOption) (*Server, *clock.Fake) {
	t.Helper()
	f := netsim.NewFabric()
	t.Cleanup(func() { _ = f.Close() })
	sep, err := f.Endpoint("server")
	if err != nil {
		t.Fatal(err)
	}
	fc := clock.NewFake(time.Unix(100, 0))
	srv := NewServer(coalesceOn(t, sep, fc, nil), codec, h, opts...)
	t.Cleanup(func() { _ = srv.Close() })
	return srv, fc
}

func rawFrame(kind byte, id uint64) []byte {
	if hasTarget(kind) {
		return buildPacket(kind, 0, id, "o", "op", nil)
	}
	return encodeHeader(nil, header{kind: kind, callID: id})
}

func inject(srv *Server, from string, kind byte, id uint64) {
	route(nil, srv, from, rawFrame(kind, id), time.Time{})
}

// tickAndWait advances the janitor one tick and waits until it has been:
// the janitor visits every record under one hold of the write lock, so
// the condition on one record speaks for all.
func tickAndWait(t *testing.T, fc *clock.Fake, what string, cond func() bool) {
	t.Helper()
	fc.Advance(time.Second)
	pollUntil(t, what, cond)
}

// TestPeerRetirement: a client that calls once and goes away costs the
// server nothing three ticks after its last ack — one tick carries the
// acknowledged id into the old generation, where it is still recognised;
// the next two find the record empty, and the second removes it.
func TestPeerRetirement(t *testing.T) {
	var executions atomic.Int64
	srv, fc := fakeClockServer(t, func(context.Context, *Incoming) (string, []wire.Value, error) {
		executions.Add(1)
		return "ok", nil, nil
	})
	const clients = 10000
	name := func(i int) string { return fmt.Sprintf("one-shot-%d", i) }
	for i := 0; i < clients; i++ {
		inject(srv, name(i), msgRequest, 1)
		inject(srv, name(i), msgAck, 1)
	}
	if st := srv.Stats(); st.Requests != clients || st.CacheEvictions != clients || peerCount(srv) != clients {
		t.Fatalf("%d requests, %d evictions, %d records; want %d of each", st.Requests, st.CacheEvictions, peerCount(srv), clients)
	}
	if pc := peerState(srv, name(0)); pc.liveRows != 0 || pc.ackedCur != 1 || pc.freeCalls != 1 {
		t.Fatalf("after the ack: %+v; want no live row, the id remembered, the record free", pc)
	}

	tickAndWait(t, fc, "tick 1 ages the acknowledged ids", func() bool {
		pc := peerState(srv, name(0))
		return pc.ackedCur == 0 && pc.ackedPrev == 1
	})
	// A full tick after its ack the id is still recognised: a straggling
	// retransmission is a duplicate, dropped without an answer.
	inject(srv, name(7), msgRequest, 1)
	if st := srv.Stats(); st.Duplicates != 1 || st.RepliesResent != 0 || st.Requests != clients {
		t.Fatalf("replay one tick after the ack: %+v", st)
	}
	tickAndWait(t, fc, "tick 2 forgets them", func() bool { return peerState(srv, name(0)).ackedRanges == 0 })
	if got := peerCount(srv); got != clients {
		t.Fatalf("%d records after the first empty tick, want all %d kept", got, clients)
	}
	stale := srv.lockPeer(name(0), false)
	stale.mu.Unlock()
	tickAndWait(t, fc, "tick 3 retires the records", func() bool { return peerCount(srv) == 0 })
	stale.mu.Lock()
	marked := stale.retired
	stale.mu.Unlock()
	if !marked {
		t.Fatal("a record was removed from the map without its retired mark")
	}
	if got := executions.Load(); got != clients {
		t.Fatalf("%d executions for %d calls", got, clients)
	}

	// A returning client gets a fresh record and is served as before.
	inject(srv, name(7), msgRequest, 2)
	if srv.Stats().Requests != clients+1 || peerCount(srv) != 1 {
		t.Fatalf("returning client: %d requests, %d records", srv.Stats().Requests, peerCount(srv))
	}
}

// TestCoalescerPeersRetireWithTheirCallers: per-peer state ends with the
// peer, in the coalescer too. A node answers one call from each of many
// one-shot addresses and announces to each, so its coalescer holds a
// record per address and a flusher for the lazy frames. Once the janitor's
// ticks have passed, the records and the goroutines are back at their
// baseline, and the rpc records with them.
func TestCoalescerPeersRetireWithTheirCallers(t *testing.T) {
	f := netsim.NewFabric()
	t.Cleanup(func() { _ = f.Close() })
	ep, err := f.Endpoint("node")
	if err != nil {
		t.Fatal(err)
	}
	fc := clock.NewFake(time.Unix(100, 0))
	co := coalesceOn(t, ep, fc, nil)
	node := NewPeer(co, codec, func(context.Context, *Incoming) (string, []wire.Value, error) {
		return "ok", nil, nil
	})
	t.Cleanup(func() { _ = node.Close() })
	peers, goroutines := co.Peers(), runtime.NumGoroutine()

	const clients = 2000
	for i := 0; i < clients; i++ {
		from := fmt.Sprintf("one-shot-%d", i)
		route(node.Client, node.Server, from, rawFrame(msgRequest, 1), time.Time{})
		route(node.Client, node.Server, from, rawFrame(msgAck, 1), time.Time{})
		if err := node.Client.Announce(from, "o", "op", nil, QoS{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := co.Peers(); got != peers+clients {
		t.Fatalf("%d coalescer records after %d one-shot callers, want %d", got, clients, peers+clients)
	}
	if got := runtime.NumGoroutine(); got < clients {
		t.Fatalf("%d goroutines, want a flusher for each of %d peers with lazy frames", got, clients)
	}
	deadline := time.Now().Add(5 * time.Second)
	for co.Peers() > peers || runtime.NumGoroutine() > goroutines || peerCount(node.Server) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("after %v of janitor ticks: %d coalescer records (baseline %d), %d goroutines (baseline %d), %d rpc records",
				fc.Now().Sub(time.Unix(100, 0)), co.Peers(), peers, runtime.NumGoroutine(), goroutines, peerCount(node.Server))
		}
		fc.Advance(time.Second)
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRetransmissionRacingRetirement: a first transmission resolves its
// peer's record, and the record is retired before the delivery gets its
// mutex. The delivery must see the mark and claim in the record that
// replaced it, where the retransmission will look — claimed in the dead
// one, the call would be executed twice. The test plays the janitor by
// hand to hold the delivery exactly there.
func TestRetransmissionRacingRetirement(t *testing.T) {
	var executions atomic.Int64
	srv, _ := fakeClockServer(t, func(context.Context, *Incoming) (string, []wire.Value, error) {
		executions.Add(1)
		return "ok", nil, nil
	})
	const from = "racer"
	for id := uint64(1); id <= 100; id++ {
		stale := srv.lockPeer(from, true)
		delivered := make(chan struct{})
		go func() {
			defer close(delivered)
			inject(srv, from, msgRequest, id) // resolves stale, waits for its mutex
		}()
		time.Sleep(200 * time.Microsecond)
		stale.retired = true // marked, then deleted, under stale.mu, which the delivery waits on
		srv.peers.Delete(from)
		stale.mu.Unlock()
		<-delivered
		inject(srv, from, msgRequest, id) // the retransmission
		if got := executions.Load(); got != int64(id) {
			t.Fatalf("call %d: %d executions so far — the retransmission was executed", id, got)
		}
		if pc := peerState(srv, from); pc.liveRows != 1 || len(stale.cur)+len(stale.prev) != 0 {
			t.Fatalf("call %d claimed in the retired record: live %+v, retired holds %d rows", id, pc, len(stale.cur)+len(stale.prev))
		}
		inject(srv, from, msgAck, id)
	}
	if st := srv.Stats(); st.Requests != 100 || st.Duplicates != 100 {
		t.Fatalf("Requests=%d Duplicates=%d, want 100 and 100", st.Requests, st.Duplicates)
	}
}

// flaky duplicates a share of what its owner sends, the copy three
// milliseconds behind the original: long enough for the answer to the
// original to arrive while the Send that carries pkt has yet to return.
type flaky struct {
	transport.Endpoint
	mu  sync.Mutex
	rng *rand.Rand
}

func (e *flaky) Send(to string, pkt []byte) error {
	e.mu.Lock()
	twice := e.rng.Float64() < 0.3
	e.mu.Unlock()
	err := e.Endpoint.Send(to, pkt)
	if twice {
		time.Sleep(3 * time.Millisecond)
		_ = e.Endpoint.Send(to, pkt)
	}
	return err
}

// hostilePair wires a client and a server over a fabric that loses 30 %
// of the packets and reorders the rest, through endpoints that send 30 %
// of them twice.
func hostilePair(t *testing.T, h Handler, opts ...ServerOption) (*Client, *Server) {
	t.Helper()
	f := netsim.NewFabric(netsim.WithSeed(22), netsim.WithDefaultLink(netsim.LinkProfile{
		Latency: 100 * time.Microsecond, Jitter: 400 * time.Microsecond, Loss: 0.3}))
	t.Cleanup(func() { _ = f.Close() })
	cep, err := f.Endpoint("client")
	if err != nil {
		t.Fatal(err)
	}
	sep, err := f.Endpoint("server")
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(coalesce(t, &flaky{Endpoint: cep, rng: rand.New(rand.NewSource(1))}), codec)
	t.Cleanup(func() { _ = cli.Close() })
	srv := NewServer(coalesce(t, &flaky{Endpoint: sep, rng: rand.New(rand.NewSource(2))}), codec, h, opts...)
	t.Cleanup(func() { _ = srv.Close() })
	return cli, srv
}

// hostileQoS retransmits fast enough to get through 30 % loss.
var hostileQoS = QoS{Timeout: 20 * time.Second, Retransmit: 2 * time.Millisecond}

// TestRecycledReplyNeverReachableFromSend: with replies evicted every few
// milliseconds, acks overtaking the sends they answer and duplicates
// answered from the cache, records are recycled as fast as they can be —
// and every reply still decodes to its own call's result.
func TestRecycledReplyNeverReachableFromSend(t *testing.T) {
	cli, srv := hostilePair(t, func(_ context.Context, in *Incoming) (string, []wire.Value, error) {
		return "ok", []wire.Value{in.Args[0]}, nil
	}, WithReplyTTL(5*time.Millisecond))
	callConcurrently(t, cli, "server", "id", hostileQoS, 8, 100)
	if st := srv.Stats(); st.RepliesResent == 0 || st.CacheEvictions == 0 {
		t.Fatalf("the stress exercised nothing: %+v", st)
	}
}

// bulkArg is a record whose echo makes a reply of about 12 KiB — a pooled
// buffer, where int64(salt) makes one of 30 bytes in the record's own —
// and that no other salt's equals.
func bulkArg(salt int64) wire.Value {
	blob := make([]byte, 12<<10)
	for i := range blob {
		blob[i] = byte(salt + int64(i)*7)
	}
	return wire.Record{"salt": salt, "blob": blob}
}

// TestPooledReplyBufferHasOneOwner: small replies live in their record's
// buffer and bulk ones in a buffer that goes back to the pool at recycle,
// where any other call, of any size, may pick it up. Under loss,
// duplication that holds a Send for 3 ms and a 5 ms reply TTL, acks
// overtake sends and duplicates are answered from the cache while both
// kinds of buffer change hands — and every result is still its own call's.
func TestPooledReplyBufferHasOneOwner(t *testing.T) {
	cli, srv := hostilePair(t, echoHandler, WithReplyTTL(5*time.Millisecond))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				salt := int64(g*1000 + i)
				var want wire.Value = salt
				if (g+i)%2 == 0 {
					want = bulkArg(salt)
				}
				_, res, err := cli.Call(context.Background(), "server", "obj", "echo", []wire.Value{want}, hostileQoS)
				if err != nil || len(res) != 1 || !wire.Equal(res[0], want) {
					t.Errorf("caller %d call %d: another call's reply, or none: err=%v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := srv.Stats(); st.RepliesResent == 0 || st.CacheEvictions == 0 {
		t.Fatalf("the stress exercised nothing: %+v", st)
	}
}

// TestBulkReplyBuffersReturnToPool: a free record keeps no buffer above
// maxKeptReply however many bulk calls it carried, and the buffer it gave
// up is in the pool, where the next bulk reply finds its capacity.
func TestBulkReplyBuffersReturnToPool(t *testing.T) {
	srv, _ := fakeClockServer(t, echoHandler)
	const from = "bulk"
	arg := []wire.Value{bulkArg(1)}
	for id := uint64(1); id <= 10000; id++ {
		route(nil, srv, from, buildPacket(msgRequest, 0, id, "o", "echo", arg), time.Time{})
		if id == 1 {
			p := srv.lockPeer(from, false)
			held := cap(*p.live(id).reply)
			p.mu.Unlock()
			if held < 12<<10 {
				t.Fatalf("an unacknowledged bulk reply is cached in %d bytes", held)
			}
		}
		inject(srv, from, msgAck, id)
	}
	p := srv.lockPeer(from, false)
	for _, sc := range p.free {
		if sc.reply != nil && cap(*sc.reply) > maxKeptReply {
			t.Errorf("a free record holds a %d-byte buffer, over maxKeptReply", cap(*sc.reply))
		}
	}
	free := len(p.free)
	p.mu.Unlock()
	if st := srv.Stats(); st.Requests != 10000 || st.CacheEvictions != 10000 || free == 0 || free > 2 {
		t.Fatalf("%+v, %d free records; want 10000 calls, all acknowledged, on one or two records", st, free)
	}
	if raceEnabled {
		return // sync.Pool drops puts at random under -race
	}
	var taken []*[]byte
	found := false
	for try := 0; try < 8 && !found; try++ {
		b := wire.GetBuffer()
		taken, found = append(taken, b), cap(*b) >= 12<<10
	}
	for _, b := range taken {
		wire.PutBuffer(b)
	}
	if !found {
		t.Fatal("no pooled buffer has a bulk reply's capacity: the last one did not go back")
	}
}

// TestAtMostOnceUnderLossDuplicationReordering: a request is executed at
// most once per (from, id) whatever the fabric does to its packets.
func TestAtMostOnceUnderLossDuplicationReordering(t *testing.T) {
	var mu sync.Mutex
	seen := map[int64]int{}
	cli, srv := hostilePair(t, func(_ context.Context, in *Incoming) (string, []wire.Value, error) {
		mu.Lock()
		seen[in.Args[0].(int64)]++
		mu.Unlock()
		return "ok", []wire.Value{in.Args[0]}, nil
	})
	callConcurrently(t, cli, "server", "id", hostileQoS, 8, 50)
	mu.Lock()
	defer mu.Unlock()
	for v, n := range seen {
		if n != 1 {
			t.Errorf("call %d executed %d times", v, n)
		}
	}
	if st := srv.Stats(); len(seen) != 8*50 || st.Requests != 8*50 || st.Duplicates == 0 {
		t.Fatalf("%d distinct executions, Requests=%d Duplicates=%d; want 400, 400 and some", len(seen), st.Requests, st.Duplicates)
	}
}

// TestBoundedMemoryUnderSerialCalls: what a long run of calls leaves
// behind does not depend on its length — acknowledged rows are gone,
// their ids are one range, and the records that carried them number no
// more than were ever live at once (two: a deferred ack rides with the
// next request).
func TestBoundedMemoryUnderSerialCalls(t *testing.T) {
	calls := 200000
	if raceEnabled {
		calls = 20000
	}
	_, cli, mkServer := setup(t)
	srv := mkServer(echoHandler)
	for i := 0; i < calls; i++ {
		if _, _, err := cli.Call(context.Background(), "server", "obj", "echo",
			[]wire.Value{int64(i)}, batchQoS); err != nil {
			t.Fatal(err)
		}
	}
	pc := peerState(srv, "client")
	if pc.liveRows > 4 || pc.ackedRanges > 2 || pc.announcedRanges != 0 || pc.freeCalls > 2 {
		t.Fatalf("%d serial calls left %+v; want ≤ 4 live rows, ≤ 2 ranges a set, ≤ 2 free records", calls, pc)
	}
	// A stalled machine may retransmit; nothing else may duplicate.
	if st := srv.Stats(); st.Requests != uint64(calls) || st.Duplicates > cli.Stats().Retransmissions || st.CacheEvictions < uint64(calls)-1 {
		t.Fatalf("server: %+v, client: %+v", st, cli.Stats())
	}
	if peerCount(srv) != 1 {
		t.Fatalf("%d peer records for one client", peerCount(srv))
	}
}

// TestReorderedBurstExecutesOnce: membership is exact, not a watermark.
// A burst of 64 ids delivered in reverse order executes every one of
// them; a second copy of each is answered from the cache; and once all
// are acknowledged — also in reverse, closing into one range — a third
// copy is dropped.
func TestReorderedBurstExecutesOnce(t *testing.T) {
	var executions atomic.Int64
	srv, _ := fakeClockServer(t, func(context.Context, *Incoming) (string, []wire.Value, error) {
		executions.Add(1)
		return "ok", nil, nil
	})
	const n, from = 64, "burst"
	burst := func(kind byte) {
		for id := uint64(n); id >= 1; id-- {
			inject(srv, from, kind, id)
		}
	}
	inject(srv, from, msgRequest, 1000) // a high id first refuses nothing below it
	inject(srv, from, msgAck, 1000)
	burst(msgRequest)
	if got := executions.Load(); got != n+1 {
		t.Fatalf("%d of %d never-seen ids executed", got-1, n)
	}
	burst(msgRequest)
	if st := srv.Stats(); st.Duplicates != n || st.RepliesResent != n {
		t.Fatalf("second copies: Duplicates=%d RepliesResent=%d, want %d each", st.Duplicates, st.RepliesResent, n)
	}
	burst(msgAck)
	if pc := peerState(srv, from); pc.liveRows != 0 || pc.ackedCur != 2 {
		t.Fatalf("after the acks: %+v; want no live row and the ranges [1,64] [1000,1000]", pc)
	}
	burst(msgRequest)
	if st := srv.Stats(); st.Duplicates != 2*n || st.RepliesResent != n || st.Requests != n+1 || executions.Load() != n+1 {
		t.Fatalf("third copies: %+v, %d executions", st, executions.Load())
	}
}

// TestSlowHandlerSuppressedAcrossRotations: a duplicate of a call whose
// handler is still running is suppressed however many reply-cache
// generations have passed — the running row is carried forward.
func TestSlowHandlerSuppressedAcrossRotations(t *testing.T) {
	release := make(chan struct{})
	var executions atomic.Int64
	srv, fc := fakeClockServer(t, func(context.Context, *Incoming) (string, []wire.Value, error) {
		executions.Add(1)
		<-release
		return "ok", nil, nil
	}, WithReplyTTL(time.Second))
	done := make(chan struct{})
	go func() { // inline dispatch: the delivery returns when the handler does
		defer close(done)
		inject(srv, "slow", msgRequest, 1)
	}()
	pollUntil(t, "handler entered", func() bool { return executions.Load() == 1 })
	for rotation := 0; rotation < 3; rotation++ {
		fc.Advance(time.Second)
		time.Sleep(5 * time.Millisecond)
		inject(srv, "slow", msgRequest, 1)
	}
	if st := srv.Stats(); st.Requests != 1 || st.Duplicates != 3 || st.RepliesResent != 0 || st.CacheEvictions != 0 {
		t.Fatalf("across three rotations: %+v", st)
	}
	if pc := peerState(srv, "slow"); pc.liveRows != 1 {
		t.Fatalf("running row lost: %+v", pc)
	}
	close(release)
	<-done
	inject(srv, "slow", msgRequest, 1)
	if st := srv.Stats(); st.Requests != 1 || st.RepliesResent != 1 || executions.Load() != 1 {
		t.Fatalf("after completion: %+v, %d executions", st, executions.Load())
	}
}

// TestCloseDuringClaims: Close while deliveries from many addresses are
// claiming slots neither hangs nor panics, and waits for every handler
// it let in.
func TestCloseDuringClaims(t *testing.T) {
	for round := 0; round < 50; round++ {
		f := netsim.NewFabric()
		sep, err := f.Endpoint("server")
		if err != nil {
			t.Fatal(err)
		}
		var running atomic.Int64
		srv := NewServer(coalesce(t, sep), codec, func(context.Context, *Incoming) (string, []wire.Value, error) {
			running.Add(1)
			defer running.Add(-1)
			return "ok", nil, nil
		})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for id := uint64(1); id <= 200; id++ {
					from := fmt.Sprintf("c%d-%d", g, id%8)
					inject(srv, from, msgRequest, id)
					inject(srv, from, msgAnnounce, id+1000)
					inject(srv, from, msgAck, id)
				}
			}(g)
		}
		closed := make(chan struct{})
		go func() {
			_ = srv.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Fatal("Close hung")
		}
		if n := running.Load(); n != 0 {
			t.Fatalf("Close returned with %d handlers running", n)
		}
		wg.Wait()
		_ = f.Close()
	}
}

// countingClock counts the reads of the instant and the timers armed.
// Left out is a read whose first caller outside this clock, the runtime
// and the span collector is the transport: a frame queued behind a write
// still in flight is stamped when queued and when claimed (its flush
// delay), which happens only when a writer is preempted mid-write — on a
// loaded host, not by the path's design.
type countingClock struct {
	clock.Clock
	reads, arms atomic.Int64
}

func (c *countingClock) NewTimer(d time.Duration) clock.Timer {
	c.arms.Add(1)
	return c.Clock.NewTimer(d)
}

func (c *countingClock) AfterFunc(d time.Duration, f func()) clock.Timer {
	c.arms.Add(1)
	return c.Clock.AfterFunc(d, f)
}

func (c *countingClock) Now() time.Time {
	c.count()
	return c.Clock.Now()
}

func (c *countingClock) Since(t time.Time) time.Duration {
	c.count()
	return c.Clock.Since(t)
}

// count counts a read unless the transport made it.
func (c *countingClock) count() {
	var pcs [64]uintptr
	frames := runtime.CallersFrames(pcs[:runtime.Callers(1, pcs[:])])
	for more := true; more; {
		var f runtime.Frame
		f, more = frames.Next()
		fn := f.Function
		if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "odp/internal/rpc.(*countingClock)") || strings.HasPrefix(fn, "odp/internal/obs.") {
			continue
		}
		if !strings.HasPrefix(fn, "odp/internal/transport.") {
			c.reads.Add(1)
		}
		return
	}
}

// TestNoClockOnTheTablePath: one uncontended interrogation reads the
// server's clock twice (dispatch latency: began, since) and the client's
// twice (send stamp, latency), and arms no timer: the retransmission
// clock the first call armed is due before the second call is. Claiming
// the slot, caching the reply and the ack that retires it read neither
// clock. Each role's coalescer runs on its role's counting clock too, so
// the count also holds the coalescer to reading no clock on a direct
// write. The interval is long so that pass does not fire in the window.
func TestNoClockOnTheTablePath(t *testing.T) {
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
	cclk := &countingClock{Clock: clock.Real{}}
	sclk := &countingClock{Clock: clock.Real{}}
	cli := NewClient(coalesceOn(t, cep, cclk, nil), codec)
	t.Cleanup(func() { _ = cli.Close() })
	srv := NewServer(coalesceOn(t, sep, sclk, nil), codec, echoHandler)
	t.Cleanup(func() { _ = srv.Close() })

	call := func() {
		t.Helper()
		qos := QoS{Timeout: 2 * time.Hour, Retransmit: time.Hour}
		if _, _, err := cli.Call(context.Background(), "server", "o", "echo", []wire.Value{int64(1)}, qos); err != nil {
			t.Fatal(err)
		}
	}
	// A call's ack rides with the next request: the second call builds
	// the record of acknowledged ids, the third is the one measured.
	call()
	call()
	pollUntil(t, "first ack", func() bool { return srv.Stats().CacheEvictions == 1 })
	c0, s0, a0 := cclk.reads.Load(), sclk.reads.Load(), cclk.arms.Load()+sclk.arms.Load()
	call()
	pollUntil(t, "second ack", func() bool { return srv.Stats().CacheEvictions == 2 })
	if c, s := cclk.reads.Load()-c0, sclk.reads.Load()-s0; c != 2 || s != 2 {
		t.Fatalf("one interrogation and its ack read the client clock %d times and the server clock %d times, want 2 and 2", c, s)
	}
	if a := cclk.arms.Load() + sclk.arms.Load() - a0; a != 0 {
		t.Fatalf("one interrogation armed %d timers, want 0", a)
	}
}
