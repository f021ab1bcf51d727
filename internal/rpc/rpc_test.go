package rpc

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"odp/internal/clock"
	"odp/internal/netsim"
	"odp/internal/obs"
	"odp/internal/transport"
	"odp/internal/wire"
)

var codec = wire.PackedCodec{}

// echoHandler returns outcome "ok" with the arguments reversed.
func echoHandler(_ context.Context, in *Incoming) (string, []wire.Value, error) {
	out := make([]wire.Value, len(in.Args))
	for i, a := range in.Args {
		out[len(in.Args)-1-i] = a
	}
	return "ok", out, nil
}

// coalesce wraps ep in the coalescer every rpc endpoint rides on, for an
// untraced node on the wall clock, closed when the test ends.
func coalesce(t testing.TB, ep transport.Endpoint) *transport.Coalescer {
	return coalesceOn(t, ep, clock.Real{}, nil)
}

// coalesceOn is coalesce for a node whose clock is clk and whose span
// collector is col: every rpc role built on it reads both from it.
func coalesceOn(t testing.TB, ep transport.Endpoint, clk clock.Clock, col *obs.Collector) *transport.Coalescer {
	co := transport.NewCoalescer(ep, clk, col)
	t.Cleanup(func() { _ = co.Close() })
	return co
}

// plainBatcher is a Batcher that coalesces nothing: every frame, lazy or
// not, leaves at once as a bare datagram of its own, never inside a
// BATCH frame. Inbound it still unpacks whatever batches its peer sends.
// Its peer's coalescer must pass those bare frames through untouched.
type plainBatcher struct {
	*transport.Coalescer
	inner transport.Endpoint
}

// plain wraps ep in a plainBatcher, closed when the test ends.
func plain(t testing.TB, ep transport.Endpoint) *plainBatcher {
	return &plainBatcher{Coalescer: coalesce(t, ep), inner: ep}
}

func (p *plainBatcher) Send(to string, pkt []byte) error     { return p.inner.Send(to, pkt) }
func (p *plainBatcher) SendLazy(to string, pkt []byte) error { return p.inner.Send(to, pkt) }
func (p *plainBatcher) SendHeld(to string, pkt []byte) error { return p.inner.Send(to, pkt) }

func setup(t *testing.T, opts ...netsim.Option) (*netsim.Fabric, *Client, func(Handler) *Server) {
	t.Helper()
	f := netsim.NewFabric(opts...)
	t.Cleanup(func() { _ = f.Close() })
	cep, err := f.Endpoint("client")
	if err != nil {
		t.Fatal(err)
	}
	sep, err := f.Endpoint("server")
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(coalesce(t, cep), codec)
	t.Cleanup(func() { _ = cli.Close() })
	mkServer := func(h Handler) *Server {
		srv := NewServer(coalesce(t, sep), codec, h)
		t.Cleanup(func() { _ = srv.Close() })
		return srv
	}
	return f, cli, mkServer
}

func TestCallBasic(t *testing.T) {
	_, cli, mkServer := setup(t)
	mkServer(echoHandler)
	outcome, results, err := cli.Call(context.Background(), "server", "obj1", "reverse",
		[]wire.Value{int64(1), "two", true}, QoS{})
	if err != nil {
		t.Fatal(err)
	}
	if outcome != "ok" {
		t.Fatalf("outcome %q", outcome)
	}
	want := []wire.Value{true, "two", int64(1)}
	if len(results) != 3 {
		t.Fatalf("results %v", results)
	}
	for i := range want {
		if !wire.Equal(results[i], want[i]) {
			t.Fatalf("result %d = %v want %v", i, results[i], want[i])
		}
	}
}

// keep copies a descriptor out of its handler call: the descriptor is
// pooled, and its header strings may alias a packet that is recycled
// when the handler returns. The arguments are the handler's to keep.
func keep(in *Incoming) Incoming {
	out := *in
	out.ObjID, out.Op = strings.Clone(in.ObjID), strings.Clone(in.Op)
	return out
}

func TestCallSeesMetadata(t *testing.T) {
	_, cli, mkServer := setup(t)
	var got Incoming
	mkServer(func(_ context.Context, in *Incoming) (string, []wire.Value, error) {
		got = keep(in)
		return "done", nil, nil
	})
	if _, _, err := cli.Call(context.Background(), "server", "objX", "opY", nil, QoS{}); err != nil {
		t.Fatal(err)
	}
	if got.ObjID != "objX" || got.Op != "opY" || got.From != "client" || got.Announcement {
		t.Fatalf("metadata wrong: %+v", got)
	}
}

func TestCallApplicationOutcomes(t *testing.T) {
	_, cli, mkServer := setup(t)
	mkServer(func(_ context.Context, in *Incoming) (string, []wire.Value, error) {
		// "a range of outcomes ... to signal different kinds of failure"
		if in.Args[0].(int64) < 0 {
			return "rejected", []wire.Value{"negative amount"}, nil
		}
		return "ok", []wire.Value{in.Args[0]}, nil
	})
	outcome, res, err := cli.Call(context.Background(), "server", "o", "deposit", []wire.Value{int64(-5)}, QoS{})
	if err != nil || outcome != "rejected" || res[0] != "negative amount" {
		t.Fatalf("outcome=%q res=%v err=%v", outcome, res, err)
	}
}

func TestCallSystemErrors(t *testing.T) {
	_, cli, mkServer := setup(t)
	fwd := wire.Ref{ID: "o", TypeName: "T", Endpoints: []string{"elsewhere"}, Epoch: 2}
	mkServer(func(_ context.Context, in *Incoming) (string, []wire.Value, error) {
		switch in.Op {
		case "gone":
			return "", nil, ErrNoObject
		case "moved":
			return "", nil, &MovedError{Forward: fwd}
		case "denied":
			return "", nil, fmt.Errorf("guard says no: %w", ErrDenied)
		default:
			return "", nil, errors.New("kaboom")
		}
	})
	ctx := context.Background()
	if _, _, err := cli.Call(ctx, "server", "o", "gone", nil, QoS{}); !errors.Is(err, ErrNoObject) {
		t.Fatalf("want ErrNoObject, got %v", err)
	}
	_, _, err := cli.Call(ctx, "server", "o", "moved", nil, QoS{})
	var moved *MovedError
	if !errors.As(err, &moved) || !wire.Equal(moved.Forward, fwd) {
		t.Fatalf("want MovedError with ref, got %v", err)
	}
	if _, _, err := cli.Call(ctx, "server", "o", "denied", nil, QoS{}); !errors.Is(err, ErrDenied) {
		t.Fatalf("want ErrDenied, got %v", err)
	}
	_, _, err = cli.Call(ctx, "server", "o", "boom", nil, QoS{})
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Msg != "kaboom" {
		t.Fatalf("want RemoteError(kaboom), got %v", err)
	}
}

func TestCallTimeout(t *testing.T) {
	_, cli, _ := setup(t)
	// No server handler: requests go to an endpoint with no handler set.
	start := time.Now()
	_, _, err := cli.Call(context.Background(), "server", "o", "op", nil,
		QoS{Timeout: 60 * time.Millisecond, Retransmit: 10 * time.Millisecond})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if d := time.Since(start); d < 50*time.Millisecond || d > 500*time.Millisecond {
		t.Fatalf("timeout after %v", d)
	}
	if cli.Stats().Timeouts != 1 {
		t.Fatal("timeout not counted")
	}
}

func TestCallContextCancel(t *testing.T) {
	_, cli, _ := setup(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, _, err := cli.Call(ctx, "server", "o", "op", nil, QoS{Timeout: 5 * time.Second})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestAtMostOnceUnderLoss(t *testing.T) {
	// E14 core property: with heavy loss, retransmission must recover the
	// call and duplicate suppression must keep executions at one per call.
	_, cli, mkServer := setup(t,
		netsim.WithSeed(11),
		netsim.WithDefaultLink(netsim.LinkProfile{Latency: time.Millisecond, Loss: 0.3}))
	var executions atomic.Int64
	srv := mkServer(func(_ context.Context, in *Incoming) (string, []wire.Value, error) {
		executions.Add(1)
		return "ok", []wire.Value{in.Args[0]}, nil
	})
	const calls = 50
	for i := 0; i < calls; i++ {
		outcome, res, err := cli.Call(context.Background(), "server", "o", "inc",
			[]wire.Value{int64(i)}, QoS{Timeout: 10 * time.Second, Retransmit: 5 * time.Millisecond})
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if outcome != "ok" || res[0].(int64) != int64(i) {
			t.Fatalf("call %d: wrong reply %q %v", i, outcome, res)
		}
	}
	if got := executions.Load(); got != calls {
		t.Fatalf("executed %d times for %d calls — at-most-once violated", got, calls)
	}
	st := srv.Stats()
	if st.Duplicates == 0 {
		t.Log("warning: no duplicates observed; loss too low to exercise dedup")
	}
	if cli.Stats().Retransmissions == 0 {
		t.Fatal("expected retransmissions under 30% loss")
	}
}

func TestAnnouncement(t *testing.T) {
	_, cli, mkServer := setup(t)
	got := make(chan Incoming, 1)
	mkServer(func(_ context.Context, in *Incoming) (string, []wire.Value, error) {
		got <- keep(in)
		return "ignored", nil, nil
	})
	if err := cli.Announce("server", "o", "notify", []wire.Value{"event"}, QoS{}); err != nil {
		t.Fatal(err)
	}
	select {
	case in := <-got:
		if !in.Announcement || in.Op != "notify" {
			t.Fatalf("bad announcement: %+v", in)
		}
	case <-time.After(time.Second):
		t.Fatal("announcement not delivered")
	}
}

func TestAnnouncementRepeatsDeduplicated(t *testing.T) {
	_, cli, mkServer := setup(t)
	var n atomic.Int64
	srv := mkServer(func(_ context.Context, in *Incoming) (string, []wire.Value, error) {
		n.Add(1)
		return "", nil, nil
	})
	if err := cli.Announce("server", "o", "ping", nil, QoS{Repeats: 4}); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(time.Second)
	for n.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("announcement never executed")
		case <-time.After(5 * time.Millisecond):
		}
	}
	time.Sleep(50 * time.Millisecond)
	if n.Load() != 1 {
		t.Fatalf("announcement executed %d times, want 1", n.Load())
	}
	if srv.Stats().AnnounceDedup != 4 {
		t.Fatalf("dedup count %d, want 4", srv.Stats().AnnounceDedup)
	}
}

// Nothing sized for traffic exists before the traffic: a peer's record
// is built by the first frame from its address, and that frame, when it
// is an announcement, is already deduplicated in the record's window.
func TestAnnouncementWindowBuiltOnFirstUse(t *testing.T) {
	_, cli, mkServer := setup(t)
	var n atomic.Int64
	srv := mkServer(func(_ context.Context, in *Incoming) (string, []wire.Value, error) {
		n.Add(1)
		return "", nil, nil
	})
	if peers := peerCount(srv); peers != 0 {
		t.Fatalf("fresh server holds %d peer records", peers)
	}
	if err := cli.Announce("server", "o", "ping", nil, QoS{Repeats: 2}); err != nil {
		t.Fatal(err)
	}
	pollUntil(t, "both extra copies suppressed", func() bool {
		return srv.Stats().AnnounceDedup == 2
	})
	if n.Load() != 1 {
		t.Fatalf("first announcement executed %d times, want 1", n.Load())
	}
	pc := peerState(srv, "client")
	if peerCount(srv) != 1 || pc.announcedRanges != 1 || pc.liveMaps {
		t.Fatalf("one announcement built %d records, %+v; want one record, one range, no call maps", peerCount(srv), pc)
	}
}

// A server that only answers interrogations never builds the window.
func TestInterrogationsBuildNoAnnouncementWindow(t *testing.T) {
	_, cli, mkServer := setup(t)
	srv := mkServer(echoHandler)
	for i := 0; i < 64; i++ {
		if _, _, err := cli.Call(context.Background(), "server", "o", "echo", []wire.Value{int64(i)}, QoS{}); err != nil {
			t.Fatal(err)
		}
	}
	if pc := peerState(srv, "client"); pc.announcedRanges != 0 || pc.announcedCap != 0 {
		t.Fatalf("interrogations built an announcement window: %+v", pc)
	}
}

func TestConcurrentCalls(t *testing.T) {
	_, cli, mkServer := setup(t, netsim.WithDefaultLink(netsim.LinkProfile{
		Latency: 500 * time.Microsecond, Jitter: 500 * time.Microsecond}))
	srv := mkServer(func(_ context.Context, in *Incoming) (string, []wire.Value, error) {
		return "ok", []wire.Value{in.Args[0]}, nil
	})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				v := int64(g*1000 + i)
				_, res, err := cli.Call(context.Background(), "server", "o", "id",
					[]wire.Value{v}, QoS{Timeout: 5 * time.Second})
				if err != nil {
					errs <- err
					return
				}
				if res[0].(int64) != v {
					errs <- fmt.Errorf("cross-talk: got %v want %d", res[0], v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Counted in place by 8 callers at once, no count may be lost.
	// Requests counts distinct executions, so retransmissions cannot
	// move it.
	if n := cli.Stats().Calls; n != 200 {
		t.Errorf("client counted %d calls, want 200", n)
	}
	if n := srv.Stats().Requests; n != 200 {
		t.Errorf("server counted %d requests, want 200", n)
	}
}

func TestReplyCacheEviction(t *testing.T) {
	f := netsim.NewFabric()
	t.Cleanup(func() { _ = f.Close() })
	cep, _ := f.Endpoint("client")
	sep, _ := f.Endpoint("server")
	cli := NewClient(coalesce(t, cep), codec)
	t.Cleanup(func() { _ = cli.Close() })
	srv := NewServer(coalesce(t, sep), codec, echoHandler, WithReplyTTL(time.Millisecond))
	t.Cleanup(func() { _ = srv.Close() })

	if _, _, err := cli.Call(context.Background(), "server", "o", "op", nil, QoS{}); err != nil {
		t.Fatal(err)
	}
	// Either the Ack or the janitor must evict; wait for whichever.
	deadline := time.After(3 * time.Second)
	for srv.Stats().CacheEvictions == 0 {
		select {
		case <-deadline:
			t.Fatal("reply cache never evicted")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func TestPeerBidirectional(t *testing.T) {
	f := netsim.NewFabric()
	t.Cleanup(func() { _ = f.Close() })
	epA, _ := f.Endpoint("A")
	epB, _ := f.Endpoint("B")

	mkEchoPeer := func(ep transport.Endpoint, tag string) *Peer {
		p := NewPeer(coalesce(t, ep), codec, func(_ context.Context, in *Incoming) (string, []wire.Value, error) {
			return "ok", []wire.Value{tag}, nil
		})
		t.Cleanup(func() { _ = p.Close() })
		return p
	}
	pa := mkEchoPeer(epA, "from-A")
	pb := mkEchoPeer(epB, "from-B")

	_, res, err := pa.Client.Call(context.Background(), "B", "o", "who", nil, QoS{})
	if err != nil || res[0] != "from-B" {
		t.Fatalf("A->B: %v %v", res, err)
	}
	_, res, err = pb.Client.Call(context.Background(), "A", "o", "who", nil, QoS{})
	if err != nil || res[0] != "from-A" {
		t.Fatalf("B->A: %v %v", res, err)
	}
}

func TestClosedClientRefuses(t *testing.T) {
	_, cli, mkServer := setup(t)
	mkServer(echoHandler)
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cli.Call(context.Background(), "server", "o", "op", nil, QoS{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestMalformedPacketsIgnored(t *testing.T) {
	f, cli, mkServer := setup(t)
	mkServer(echoHandler)
	// Throw garbage at both endpoints directly through the fabric.
	junk, _ := f.Endpoint("junk")
	for _, pkt := range [][]byte{nil, {0}, {9, 9, 9}, []byte("garbage garbage garbage")} {
		_ = junk.Send("server", pkt)
		_ = junk.Send("client", pkt)
	}
	time.Sleep(10 * time.Millisecond)
	// The system must still work.
	if _, _, err := cli.Call(context.Background(), "server", "o", "op", []wire.Value{int64(1)}, QoS{}); err != nil {
		t.Fatalf("call after garbage: %v", err)
	}
}

func TestTCPTransportInterop(t *testing.T) {
	// The same protocol stack over real TCP (cross-process transport).
	sep, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cep, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(coalesce(t, sep), codec, echoHandler)
	cli := NewClient(coalesce(t, cep), codec)
	t.Cleanup(func() {
		_ = cli.Close()
		_ = srv.Close()
		_ = sep.Close()
		_ = cep.Close()
	})
	outcome, res, err := cli.Call(context.Background(), sep.Addr(), "o", "op",
		[]wire.Value{"over tcp"}, QoS{Timeout: 5 * time.Second})
	if err != nil || outcome != "ok" || res[0] != "over tcp" {
		t.Fatalf("tcp call: outcome=%q res=%v err=%v", outcome, res, err)
	}
}
