package rpc

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"odp/internal/clock"
	"odp/internal/netsim"
	"odp/internal/obs"
	"odp/internal/transport"
	"odp/internal/wire"
)

// barrier is closed by the n-th arrive; wait fails the handler that
// waits for it longer than a loaded machine could need.
type barrier struct {
	n    int64
	in   atomic.Int64
	open chan struct{}
}

func newBarrier(n int) *barrier { return &barrier{n: int64(n), open: make(chan struct{})} }

func (b *barrier) arrive(ctx context.Context) error {
	if b.in.Add(1) == b.n {
		close(b.open)
	}
	select {
	case <-b.open:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(10 * time.Second):
		return fmt.Errorf("%d of %d handlers arrived", b.in.Load(), b.n)
	}
}

// nestedBarrier calls op "outer" at b from callers goroutines of a, each
// handler blocked on a nested invocation back to a over the connection its
// own request came in on, and the nested handlers in turn all held until
// every one of them runs. Every handler on each side must run at once, so
// none may hold up a delivery behind it — a frame later in its batch,
// the rest of its connection — or the calls never complete; and at once,
// not by the retransmission that re-sends a frame stuck behind it.
func nestedBarrier(t *testing.T, peers func(*testing.T, Handler, Handler) (a, b *Peer, aco, bco *transport.Coalescer), callers int, qos QoS) (a, b *Peer) {
	t.Helper()
	var aco *transport.Coalescer
	wired := make(chan struct{}) // the handlers read b and aco, set below
	outerIn, innerIn := newBarrier(callers), newBarrier(callers)
	inner := func(ctx context.Context, in *Incoming) (string, []wire.Value, error) {
		if err := innerIn.arrive(ctx); err != nil {
			return "", nil, err
		}
		return echoHandler(ctx, in)
	}
	outer := func(ctx context.Context, in *Incoming) (string, []wire.Value, error) {
		<-wired
		if err := outerIn.arrive(ctx); err != nil {
			return "", nil, err
		}
		return b.Client.Call(ctx, aco.Addr(), "obj", "inner", in.Args, qos)
	}
	a, b, aco, bco := peers(t, inner, outer)
	close(wired)
	callConcurrently(t, a.Client, bco.Addr(), "outer", qos, callers, 1)
	if got := a.Server.Stats().Requests; got != uint64(callers) {
		t.Fatalf("%d nested calls executed, want %d", got, callers)
	}
	for side, p := range map[string]*Peer{"outer caller": a, "nested caller": b} {
		if st := p.Client.Stats(); st.Retransmissions != 0 || st.Timeouts != 0 {
			t.Errorf("%s: %d retransmissions, %d timeouts", side, st.Retransmissions, st.Timeouts)
		}
	}
	return a, b
}

// TestNestedCallsBeyondTheWorkerBound: the nested barrier over TCP with
// more handlers than a server would keep dispatch workers. TCP delivers
// concurrently — a stalled delivery hands the rest of its batch and its
// connection to a fresh goroutine — so each server runs every dispatch
// inline and keeps no pool; the spill past a pool's bound is
// TestWorkersSpillPastTheBound's (internal/transport).
func TestNestedCallsBeyondTheWorkerBound(t *testing.T) {
	a, b := nestedBarrier(t, batchedTCPPeers, dispatchWorkers+8, batchQoS)
	for side, srv := range map[string]*Server{"outer": b.Server, "inner": a.Server} {
		if !srv.inline || srv.workers != nil {
			t.Errorf("%s server over TCP: inline %v, workers %v; want every dispatch inline", side, srv.inline, srv.workers)
		}
	}
}

// TestNestedCallsOverCoalescedFabric: the nested barrier on the
// real-time fabric, which dispatches inline. Its deliveries are
// concurrent, but a batch's frames are delivered one after another on
// one of them: unless a stalled frame hands the rest on, the first
// handler to block holds up every frame behind it and the calls run to
// their timeout. Retransmission is off: it would re-send the stuck
// frames in fresh batches and hide the hang.
func TestNestedCallsOverCoalescedFabric(t *testing.T) {
	nestedBarrier(t, coalescedFabricPeers, 8, QoS{Timeout: 5 * time.Second, Retransmit: time.Hour})
}

// coalescedFabricPeers wires two peers over coalesced endpoints of one
// real-time fabric.
func coalescedFabricPeers(t *testing.T, ha, hb Handler) (a, b *Peer, aco, bco *transport.Coalescer) {
	t.Helper()
	f := netsim.NewFabric()
	t.Cleanup(func() { _ = f.Close() })
	endpoint := func(name string) *transport.Coalescer {
		ep, err := f.Endpoint(name)
		if err != nil {
			t.Fatal(err)
		}
		return coalesce(t, ep)
	}
	aco, bco = endpoint("a"), endpoint("b")
	a, b = NewPeer(aco, codec, ha), NewPeer(bco, codec, hb)
	t.Cleanup(func() {
		_ = a.Close()
		_ = b.Close()
	})
	return a, b, aco, bco
}

// TestServerCloseStopsDispatchWorkers: Close stops what a server
// started. Where deliveries are serial and every dispatch is handed off,
// the workers start with the dispatches that need them, never more than
// the bound, and have exited once Close returns — this server's own
// pool, whatever other servers' workers are doing. Over TCP a server
// starts none: a handler blocked at Close unwinds on the cancelled
// context, and the endpoint's Close then returns, having waited for
// every reader it started, the one that took the blocked handler's
// connection over included.
func TestServerCloseStopsDispatchWorkers(t *testing.T) {
	t.Run("handed off", func(t *testing.T) {
		ep := &replySink{replies: make(chan struct{}, 1)}
		srv := NewServer(ep, codec, echoHandler)
		if n := srv.workers.Live(); n != 0 {
			t.Fatalf("%d workers before the first dispatch, want 0", n)
		}
		req := buildPacket(msgRequest, 0, 0, "obj", "echo", []wire.Value{int64(1)})
		for i := 1; i <= 50; i++ {
			binary.BigEndian.PutUint64(req[2:], uint64(i))
			route(nil, srv, "client", req, time.Time{})
			<-ep.replies
		}
		if n := srv.workers.Live(); n < 1 || n > dispatchWorkers {
			t.Fatalf("%d workers while open, want 1 to %d", n, dispatchWorkers)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if n := srv.workers.Live(); n != 0 {
			t.Fatalf("%d workers after Close returned, want 0", n)
		}
	})
	t.Run("tcp", func(t *testing.T) {
		entered := make(chan struct{})
		h := func(ctx context.Context, in *Incoming) (string, []wire.Value, error) {
			if in.Op == "block" {
				close(entered)
				<-ctx.Done()
				return "", nil, ctx.Err()
			}
			return echoHandler(ctx, in)
		}
		a, b, _, bco := batchedTCPPeers(t, echoHandler, h)
		if b.Server.workers != nil {
			t.Fatal("a server over TCP keeps a dispatch pool")
		}
		go func() { _, _, _ = a.Client.Call(context.Background(), bco.Addr(), "obj", "block", nil, batchQoS) }()
		<-entered
		callConcurrently(t, a.Client, bco.Addr(), "echo", batchQoS, 8, 50)
		closed := make(chan struct{})
		go func() {
			_ = b.Server.Close()
			_ = bco.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Fatal("Close did not return: a reader or a handler outlived it")
		}
	})
}

// TestHostileNamesStayBounded: a peer that names a new operation in
// every call fills the server's name table to its bound and no further;
// so do the outcomes it gets back, in the client's. Past the bound every
// name is cloned, and every call still sees its own. Over TCP a dispatch
// runs inline and reads the name from the packet; what keeps it beyond
// the dispatch is the span ring, so every call here is traced.
func TestHostileNamesStayBounded(t *testing.T) {
	const calls, callers = 10000, 8
	h := func(_ context.Context, in *Incoming) (string, []wire.Value, error) {
		return in.Op, []wire.Value{in.Op}, nil
	}
	ccol := obs.NewCollector("client", clock.Real{}, obs.WithSampleEvery(1))
	scol := obs.NewCollector("server", clock.Real{}, obs.WithSampleEvery(1))
	listen := func(col *obs.Collector) *transport.Coalescer {
		ep, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return coalesceOn(t, ep, clock.Real{}, col)
	}
	aco, bco := listen(ccol), listen(scol)
	a, b := NewPeer(aco, codec, echoHandler), NewPeer(bco, codec, h)
	t.Cleanup(func() {
		_ = a.Close()
		_ = b.Close()
	})
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < calls; i += callers {
				op := fmt.Sprintf("op-%d", i)
				ctx, _, endRoot := stubRoot(ccol, clock.Real{}, "hostile")
				outcome, res, err := a.Client.Call(ctx, bco.Addr(), "obj", op, nil, batchQoS)
				endRoot()
				if err != nil || outcome != op || len(res) != 1 || res[0] != op {
					t.Errorf("call %q: outcome %q, res %v, err %v", op, outcome, res, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for side, nm := range map[string]*names{"server": &b.Server.names, "client": &a.Client.names} {
		if n := len(nm.table.Load().(map[string]string)); n != maxNames {
			t.Errorf("%s table holds %d names after %d distinct ones, want its bound %d", side, n, calls, maxNames)
		}
	}
}

// TestNamesIntern: a name is copied once, never aliases what it was
// looked up with, and one too long to keep is cloned every time.
func TestNamesIntern(t *testing.T) {
	var nm names
	buf := []byte("echo")
	first := nm.intern(aliasString(buf))
	buf[0] = 'X'
	if first != "echo" {
		t.Fatalf("interned name changed with its source: %q", first)
	}
	if again := nm.intern("echo"); unsafe.StringData(again) != unsafe.StringData(first) {
		t.Fatal("a known name was copied again")
	}
	long := string(make([]byte, maxNameLen+1))
	if nm.intern(long) != long || len(nm.table.Load().(map[string]string)) != 1 {
		t.Fatal("a name longer than maxNameLen entered the table")
	}
	if nm.intern("") != "" {
		t.Fatal("empty name")
	}
}

// replySink is a server endpoint that signals each reply it is given on
// replies. Its deliveries are serial, like a virtual-time fabric's, so
// its server hands every dispatch to a worker — unless they are
// concurrent, as TCP's are, and its server dispatches inline.
type replySink struct {
	replies    chan struct{}
	concurrent bool
}

func (e *replySink) Addr() string                           { return "server" }
func (e *replySink) SetHandler(transport.Handler)           {}
func (e *replySink) SetChainHandler(transport.ChainHandler) {}
func (e *replySink) Close() error                           { return nil }
func (e *replySink) Send(string, []byte) error              { e.replies <- struct{}{}; return nil }
func (e *replySink) SendLazy(to string, pkt []byte) error   { return e.Send(to, pkt) }
func (e *replySink) SendHeld(to string, pkt []byte) error   { return e.Send(to, pkt) }
func (e *replySink) BatchStats() transport.CoalescerStats   { return transport.CoalescerStats{} }
func (e *replySink) RetireIdle()                            {}
func (e *replySink) Clock() clock.Clock                     { return clock.Real{} }
func (e *replySink) Observer() *obs.Collector               { return nil }
func (e *replySink) DeliversConcurrently() bool             { return e.concurrent }

// tcpServer is a server on a coalesced loopback TCP endpoint whose node
// runs on clk, and a raw TCP endpoint to send it hand-built frames from,
// which its reader delivers as it reads them.
func tcpServer(t *testing.T, clk clock.Clock, h Handler) (srv *Server, raw transport.Endpoint, addr string) {
	t.Helper()
	listen := func() *transport.TCPEndpoint {
		ep, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return ep
	}
	sep, rep := listen(), listen()
	t.Cleanup(func() { _ = rep.Close() })
	srv = NewServer(coalesceOn(t, sep, clk, nil), codec, h)
	t.Cleanup(func() { _ = srv.Close() })
	return srv, rep, sep.Addr()
}

// announcements are n announcements of op, ids first to first+n-1.
func announcements(first uint64, n int, op string) [][]byte {
	pkts := make([][]byte, n)
	for i := range pkts {
		pkts[i] = buildPacket(msgAnnounce, 0, first+uint64(i), "obj", op, []wire.Value{int64(i)})
	}
	return pkts
}

// TestBatchedDispatchesChainTheirStamps: n announcements that arrive in
// one batch are dispatched back to back on one TCP reader, and each
// begins where the one before it ended: the server's clock is read n+1
// times, not twice a dispatch, and the dispatch histogram still counts
// every one. A frame delivered alone reads it twice, as before.
func TestBatchedDispatchesChainTheirStamps(t *testing.T) {
	const n = 16
	sclk := &countingClock{Clock: clock.Real{}}
	srv, raw, addr := tcpServer(t, sclk, echoHandler)
	r0 := sclk.reads.Load()
	if err := raw.Send(addr, batchOf(announcements(1, n, "echo")...)); err != nil {
		t.Fatal(err)
	}
	pollUntil(t, "every dispatch", func() bool { return srv.DispatchLatency().Count() == n })
	if r := sclk.reads.Load() - r0; r != n+1 {
		t.Fatalf("a batch of %d announcements read the server clock %d times, want %d", n, r, n+1)
	}
	r0 = sclk.reads.Load()
	if err := raw.Send(addr, announcements(n+1, 1, "echo")[0]); err != nil {
		t.Fatal(err)
	}
	pollUntil(t, "the lone dispatch", func() bool { return srv.DispatchLatency().Count() == n+1 })
	if r := sclk.reads.Load() - r0; r != 2 {
		t.Fatalf("a lone announcement read the server clock %d times, want 2", r)
	}
}

// TestDispatchChainEndsAtWrites: only an announcement's dispatch hands
// its end to the next frame of the read, so no chained interval
// holds a write. Each batch below reaches the server in one read, behind
// the connection's hello. Two batches of two requests read the server's
// clock twice a request: a reply's encode and write follow each. After a
// batch of a request and an announcement, whose end writes the request's
// held reply, the next batch's first announcement reads its own start and
// only the second chains: 2+2+2+1 reads.
func TestDispatchChainEndsAtWrites(t *testing.T) {
	sclk := &countingClock{Clock: clock.Real{}}
	srv, _, addr := tcpServer(t, sclk, echoHandler)
	conn, err := net.Dial("tcp", strings.TrimPrefix(addr, "tcp:"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	const from = "tcp:127.0.0.1:9"
	out := append([]byte("ODP\x01\x00"), byte(len(from)))
	out = append(out, from...)
	read := func(what string, reads int64, batches ...[]byte) {
		t.Helper()
		n := srv.DispatchLatency().Count() + 2*uint64(len(batches)) // two frames a batch
		for _, b := range batches {
			out = append(binary.BigEndian.AppendUint32(out, uint32(len(b))), b...)
		}
		r0 := sclk.reads.Load()
		if _, err := conn.Write(out); err != nil {
			t.Fatal(err)
		}
		out = out[:0]
		pollUntil(t, what, func() bool { return srv.DispatchLatency().Count() == n })
		if r := sclk.reads.Load() - r0; r != reads {
			t.Fatalf("%s read the server clock %d times, want %d", what, r, reads)
		}
	}
	req := func(id uint64) []byte {
		return buildPacket(msgRequest, 0, id, "obj", "echo", []wire.Value{int64(id)})
	}
	ann := announcements(1, 3, "echo")
	read("two batches of two requests", 8, batchOf(req(1), req(2)), batchOf(req(3), req(4)))
	read("a request and an announcement, then two announcements", 7,
		batchOf(req(5), ann[0]), batchOf(ann[1], ann[2]))
}

// TestHandedOffDispatchReadsItsOwnInstant: the dispatch of "block", second
// in its batch and chained to the first, waits until the watch has
// handed the rest of the batch to a fresh reader. That reader's first
// dispatch begins at an instant it reads itself — after "block" began —
// not at a cursor copied from the stalled delivery; under -race, the
// stalled dispatch's end, written when it returns, shares no cursor with
// the dispatches that overtook it.
func TestHandedOffDispatchReadsItsOwnInstant(t *testing.T) {
	nextIn := make(chan struct{})
	var blockAt, blockIn, nextAt time.Time
	h := func(ctx context.Context, in *Incoming) (string, []wire.Value, error) {
		switch in.Op {
		case "block":
			blockAt, blockIn = in.At, time.Now()
			select {
			case <-nextIn:
			case <-time.After(10 * time.Second):
				return "", nil, fmt.Errorf("no hand-off")
			}
		case "next":
			nextAt = in.At
			close(nextIn)
		}
		return "ok", nil, nil
	}
	srv, raw, addr := tcpServer(t, clock.Real{}, h)
	var frames [][]byte
	for i, op := range []string{"first", "block", "next", "last"} {
		frames = append(frames, announcements(uint64(i+1), 1, op)...)
	}
	if err := raw.Send(addr, batchOf(frames...)); err != nil {
		t.Fatal(err)
	}
	pollUntil(t, "every dispatch", func() bool { return srv.DispatchLatency().Count() == 4 })
	if nextAt.Before(blockIn) || !nextAt.After(blockAt) {
		t.Fatalf("the reader that took the batch over began at %v, before the stalled dispatch it overtook (began %v, entered its handler %v)",
			nextAt, blockAt, blockIn)
	}
}

// BenchmarkTCPDispatch is the rung of a dispatch over TCP: a request
// delivered under a stall watch, as a TCP reader delivers it, executed
// inline and answered, then acknowledged. It prices the dispatch and the
// watch apart from any transport.
func BenchmarkTCPDispatch(b *testing.B) {
	ep := &replySink{replies: make(chan struct{}, 1), concurrent: true}
	srv := NewServer(ep, codec, echoHandler)
	b.Cleanup(func() { _ = srv.Close() })
	w := clock.NewWatch(new(atomic.Uint64), func() {})
	deliver := func(pkt []byte) {
		t := w.Begin()
		route(nil, srv, "client", pkt, time.Time{}) // each frame a read of its own
		w.End(t)
	}
	req := buildPacket(msgRequest, 0, 0, "obj", "echo", []wire.Value{int64(1), "two"})
	ack := encodeHeader(nil, header{kind: msgAck})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		binary.BigEndian.PutUint64(req[2:], uint64(i))
		deliver(req)
		<-ep.replies
		binary.BigEndian.PutUint64(ack[2:], uint64(i))
		deliver(ack)
	}
}

// BenchmarkTCPDispatchBatch is BenchmarkTCPDispatch for a batch: 64
// announcements delivered back to back under one stall watch, as a TCP
// reader delivers the frames of one read, on one cursor. It reports the
// time a frame.
func BenchmarkTCPDispatchBatch(b *testing.B) {
	const frames = 64
	ep := &replySink{concurrent: true}
	srv := NewServer(ep, codec, echoHandler)
	b.Cleanup(func() { _ = srv.Close() })
	w := clock.NewWatch(new(atomic.Uint64), func() {})
	pkts := announcements(0, frames, "echo")
	b.ReportAllocs()
	b.ResetTimer()
	id := uint64(0)
	for i := 0; i < b.N; i++ {
		var at time.Time // one read
		for _, pkt := range pkts {
			id++
			binary.BigEndian.PutUint64(pkt[2:], id)
			t := w.Begin()
			at = route(nil, srv, "client", pkt, at)
			w.End(t)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*frames), "ns/frame")
}
