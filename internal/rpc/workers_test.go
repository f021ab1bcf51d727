package rpc

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"odp/internal/clock"
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

// TestNestedCallsBeyondTheWorkerBound: more handlers than the server
// keeps workers, every one blocked on a nested invocation back over the
// connection its own request came in on, and the nested handlers in turn
// all held until every one of them runs. The dispatches past the bound
// must spill to goroutines of their own, on both sides, or the calls
// never complete.
func TestNestedCallsBeyondTheWorkerBound(t *testing.T) {
	const callers = dispatchWorkers + 8
	var a, b *Peer
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
		return b.Client.Call(ctx, aco.Addr(), "obj", "inner", in.Args, batchQoS)
	}
	a, b, aco, bco := batchedTCPPeers(t, inner, outer)
	close(wired)
	callConcurrently(t, a.Client, bco.Addr(), "outer", batchQoS, callers, 1)
	if got := a.Server.Stats().Requests; got != callers {
		t.Fatalf("%d nested calls executed, want %d", got, callers)
	}
	// Every dispatch on each side ran at once, so each pool reached its
	// bound and the rest spilled.
	for side, srv := range map[string]*Server{"outer": b.Server, "inner": a.Server} {
		if n := srv.workers.Live(); n != dispatchWorkers {
			t.Errorf("%s server keeps %d workers, want its bound %d", side, n, dispatchWorkers)
		}
	}
}

// TestServerCloseStopsDispatchWorkers: the workers start with the
// dispatches that need them, never more than the bound, and have exited
// once Close returns. It reads this server's own pool, whatever other
// servers' workers are doing.
func TestServerCloseStopsDispatchWorkers(t *testing.T) {
	a, b, _, bco := batchedTCPPeers(t, echoHandler, echoHandler)
	if n := b.Server.workers.Live(); n != 0 {
		t.Fatalf("%d workers before the first dispatch, want 0", n)
	}
	callConcurrently(t, a.Client, bco.Addr(), "echo", batchQoS, 8, 50)
	if n := b.Server.workers.Live(); n < 1 || n > dispatchWorkers {
		t.Fatalf("%d workers while open, want 1 to %d", n, dispatchWorkers)
	}
	if err := b.Server.Close(); err != nil {
		t.Fatal(err)
	}
	if n := b.Server.workers.Live(); n != 0 {
		t.Fatalf("%d workers after Close returned, want 0", n)
	}
}

// TestHostileNamesStayBounded: a peer that names a new operation in
// every call fills the server's name table to its bound and no further;
// so do the outcomes it gets back, in the client's. Past the bound every
// name is cloned, and every call still sees its own.
func TestHostileNamesStayBounded(t *testing.T) {
	const calls, callers = 10000, 8
	h := func(_ context.Context, in *Incoming) (string, []wire.Value, error) {
		return in.Op, []wire.Value{in.Op}, nil
	}
	a, b, _, bco := batchedTCPPeers(t, echoHandler, h)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < calls; i += callers {
				op := fmt.Sprintf("op-%d", i)
				outcome, res, err := a.Client.Call(context.Background(), bco.Addr(), "obj", op, nil, batchQoS)
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

// replySink is a server endpoint whose deliveries are serial, like a TCP
// read loop, so its server hands every dispatch to a worker. Each reply
// it is given is signalled on replies.
type replySink struct{ replies chan struct{} }

func (e *replySink) Addr() string                         { return "server" }
func (e *replySink) SetHandler(transport.Handler)         {}
func (e *replySink) Close() error                         { return nil }
func (e *replySink) Send(string, []byte) error            { e.replies <- struct{}{}; return nil }
func (e *replySink) SendLazy(to string, pkt []byte) error { return e.Send(to, pkt) }
func (e *replySink) BatchStats() transport.CoalescerStats { return transport.CoalescerStats{} }
func (e *replySink) Clock() clock.Clock                   { return clock.Real{} }
func (e *replySink) Observer() *obs.Collector             { return nil }

// BenchmarkSpawnedDispatch is the rung of a dispatch that is not inline:
// a request delivered from a serial read loop, handed off, executed and
// answered, then acknowledged. It prices the hand-off and the stack the
// dispatch runs on, apart from any transport.
func BenchmarkSpawnedDispatch(b *testing.B) {
	ep := &replySink{replies: make(chan struct{}, 1)}
	srv := NewServer(ep, codec, echoHandler)
	b.Cleanup(func() { _ = srv.Close() })
	req := buildPacket(msgRequest, 0, 0, "obj", "echo", []wire.Value{int64(1), "two"})
	ack := encodeHeader(nil, header{kind: msgAck})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		binary.BigEndian.PutUint64(req[2:], uint64(i))
		route(nil, srv, "client", req)
		<-ep.replies
		binary.BigEndian.PutUint64(ack[2:], uint64(i))
		route(nil, srv, "client", ack)
	}
}
