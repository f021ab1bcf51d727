package rpc

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"odp/internal/clock"
	"odp/internal/netsim"
	"odp/internal/obs"
	"odp/internal/transport"
	"odp/internal/wire"
)

// tracedSetup builds a loopback client/server pair with a span collector
// on each side, sampling every call.
func tracedSetup(t *testing.T, wrap func(transport.Endpoint) transport.Endpoint, opts ...netsim.Option) (*Client, *obs.Collector, *obs.Collector, func(Handler, ...ServerOption) *Server) {
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
	if wrap != nil {
		sep = wrap(sep)
	}
	ccol := obs.NewCollector("client", clock.Real{}, obs.WithSampleEvery(1))
	scol := obs.NewCollector("server", clock.Real{}, obs.WithSampleEvery(1))
	cli := NewClient(coalesceOn(t, cep, clock.Real{}, ccol), codec)
	t.Cleanup(func() { _ = cli.Close() })
	mkServer := func(h Handler, sopts ...ServerOption) *Server {
		srv := NewServer(coalesceOn(t, sep, clock.Real{}, scol), codec, h, sopts...)
		t.Cleanup(func() { _ = srv.Close() })
		return srv
	}
	return cli, ccol, scol, mkServer
}

// spansOfKind filters a snapshot by span kind.
func spansOfKind(spans []obs.Span, kind string) []obs.Span {
	var out []obs.Span
	for _, s := range spans {
		if s.Kind == kind {
			out = append(out, s)
		}
	}
	return out
}

// TestTracedCallSpans proves one traced interrogation yields one tree:
// the client records a send span under the caller's root, the server a
// dispatch span under the send span, all sharing the root's trace ID.
func TestTracedCallSpans(t *testing.T) {
	cli, ccol, scol, mkServer := tracedSetup(t, nil)
	mkServer(echoHandler)

	root := ccol.Begin(obs.KindStub, "reverse")
	ctx := obs.ContextWith(context.Background(), root.Context())
	rootCtx := root.Context()
	if _, _, err := cli.Call(ctx, "server", "obj", "reverse",
		[]wire.Value{int64(1)}, QoS{}); err != nil {
		t.Fatal(err)
	}
	ccol.End(root)

	sends := spansOfKind(ccol.Snapshot(), obs.KindSend)
	if len(sends) != 1 {
		t.Fatalf("send spans = %d, want 1", len(sends))
	}
	send := sends[0]
	if send.TraceID != rootCtx.TraceID || send.ParentID != rootCtx.SpanID {
		t.Fatalf("send span not under root: %+v vs root %+v", send, rootCtx)
	}
	acks := spansOfKind(ccol.Snapshot(), obs.KindAck)
	if len(acks) != 1 || acks[0].ParentID != send.SpanID {
		t.Fatalf("ack event missing or misparented: %+v", acks)
	}

	dispatches := spansOfKind(scol.Snapshot(), obs.KindDispatch)
	if len(dispatches) != 1 {
		t.Fatalf("dispatch spans = %d, want 1", len(dispatches))
	}
	d := dispatches[0]
	if d.TraceID != rootCtx.TraceID {
		t.Fatalf("dispatch trace %x, want %x — context did not cross the wire", d.TraceID, rootCtx.TraceID)
	}
	if d.ParentID != send.SpanID {
		t.Fatalf("dispatch parent %x, want send span %x", d.ParentID, send.SpanID)
	}
	if d.Node != "server" {
		t.Fatalf("dispatch node %q", d.Node)
	}
}

// replyDropper swallows the first reply the server tries to send,
// forcing a client retransmission against an already-executed call.
type replyDropper struct {
	transport.Endpoint
	dropped atomic.Bool
}

func (d *replyDropper) Send(to string, pkt []byte) error {
	if len(pkt) >= 2 && pkt[1]&kindMask == msgReply && d.dropped.CompareAndSwap(false, true) {
		return nil
	}
	return d.Endpoint.Send(to, pkt)
}

// TestRetransmitReusesSpanContext is the retransmission regression: the
// retransmitted request is the same encoded packet, so it carries the
// original span context, and the server's at-most-once table must not
// mint a second dispatch span for it. Time is a fake clock — the
// retransmission fires when logical time crosses QoS.Retransmit.
func TestRetransmitReusesSpanContext(t *testing.T) {
	fake := clock.NewFake(time.Unix(2000, 0))
	var dropper *replyDropper
	cli, ccol, scol, mkServer := tracedSetup(t, func(ep transport.Endpoint) transport.Endpoint {
		dropper = &replyDropper{Endpoint: ep}
		return dropper
	})
	cli.clk = fake
	srv := mkServer(echoHandler)

	root := ccol.Begin(obs.KindStub, "echo")
	ctx := obs.ContextWith(context.Background(), root.Context())
	done := make(chan error, 1)
	go func() {
		_, _, err := cli.Call(ctx, "server", "obj", "echo",
			[]wire.Value{int64(9)}, QoS{Timeout: time.Minute, Retransmit: time.Second})
		done <- err
	}()
	var callErr error
	waiting := true
	for i := 0; waiting && i < 500; i++ {
		select {
		case callErr = <-done:
			waiting = false
		default:
			fake.Advance(time.Second)
			time.Sleep(2 * time.Millisecond)
		}
	}
	if waiting {
		t.Fatal("call never completed under fake clock")
	}
	if callErr != nil {
		t.Fatal(callErr)
	}
	ccol.End(root)

	if !dropper.dropped.Load() {
		t.Fatal("first reply was not dropped; test exercises nothing")
	}
	if cli.Stats().Retransmissions == 0 {
		t.Fatal("no retransmission recorded")
	}
	if st := srv.Stats(); st.Duplicates == 0 && st.RepliesResent == 0 {
		t.Fatalf("server saw no duplicate: %+v", st)
	}

	sends := spansOfKind(ccol.Snapshot(), obs.KindSend)
	if len(sends) != 1 {
		t.Fatalf("send spans = %d, want 1 (one call, one span)", len(sends))
	}
	retrans := spansOfKind(ccol.Snapshot(), obs.KindRetransmit)
	if len(retrans) == 0 {
		t.Fatal("no retransmit event recorded")
	}
	for _, r := range retrans {
		if r.ParentID != sends[0].SpanID {
			t.Fatalf("retransmit event misparented: %+v", r)
		}
	}
	// The regression itself: the duplicate request reused the original
	// span context, and dedup kept the dispatch tree singular.
	dispatches := spansOfKind(scol.Snapshot(), obs.KindDispatch)
	if len(dispatches) != 1 {
		t.Fatalf("dispatch spans = %d, want exactly 1 despite retransmission", len(dispatches))
	}
	if dispatches[0].ParentID != sends[0].SpanID {
		t.Fatalf("dispatch parent %x, want original send span %x",
			dispatches[0].ParentID, sends[0].SpanID)
	}
}

// TestTracedAnnouncementSpans proves announcements propagate context the
// same way interrogations do.
func TestTracedAnnouncementSpans(t *testing.T) {
	cli, ccol, scol, mkServer := tracedSetup(t, nil)
	executed := make(chan struct{}, 1)
	mkServer(func(_ context.Context, in *Incoming) (string, []wire.Value, error) {
		if in.Announcement {
			executed <- struct{}{}
		}
		return "", nil, nil
	})

	root := ccol.Begin(obs.KindStub, "note")
	rootCtx := root.Context() // End recycles the span, so capture first
	ctx := obs.ContextWith(context.Background(), rootCtx)
	if err := cli.AnnounceCtx(ctx, "server", "obj", "note", nil, QoS{}); err != nil {
		t.Fatal(err)
	}
	ccol.End(root)
	select {
	case <-executed:
	case <-time.After(5 * time.Second):
		t.Fatal("announcement never executed")
	}

	anns := spansOfKind(ccol.Snapshot(), obs.KindAnnounce)
	if len(anns) != 1 || anns[0].ParentID != rootCtx.SpanID {
		t.Fatalf("announce span missing or misparented: %+v", anns)
	}
	deadline := time.Now().Add(5 * time.Second)
	var dispatches []obs.Span
	for time.Now().Before(deadline) {
		if dispatches = spansOfKind(scol.Snapshot(), obs.KindDispatch); len(dispatches) > 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if len(dispatches) != 1 {
		t.Fatalf("dispatch spans = %d, want 1", len(dispatches))
	}
	if dispatches[0].TraceID != anns[0].TraceID || dispatches[0].ParentID != anns[0].SpanID {
		t.Fatalf("announcement dispatch not under announce span: %+v vs %+v", dispatches[0], anns[0])
	}
}

// TestTracedPackedPeerPair sends a sampled interrogation and a sampled
// announcement between two coalesced packed peers. The callee must see
// the arguments, record exactly one dispatch span per invocation under
// the span that sent it (traced reached it), and the whole exchange
// must form a single tree.
func TestTracedPackedPeerPair(t *testing.T) {
	f := netsim.NewFabric()
	t.Cleanup(func() { _ = f.Close() })
	announced := make(chan []wire.Value, 1)
	handler := func(_ context.Context, in *Incoming) (string, []wire.Value, error) {
		if in.Announcement {
			announced <- in.Args
			return "", nil, nil
		}
		return "ok", in.Args, nil
	}
	mkPeer := func(name string) (*Peer, *obs.Collector) {
		ep, err := f.Endpoint(name)
		if err != nil {
			t.Fatal(err)
		}
		col := obs.NewCollector(name, clock.Real{}, obs.WithSampleEvery(1))
		p := NewPeer(coalesceOn(t, ep, clock.Real{}, col), codec, handler)
		t.Cleanup(func() { _ = p.Close() })
		return p, col
	}
	a, acol := mkPeer("a")
	_, bcol := mkPeer("b")

	// One call outside any trace: it must leave no dispatch span.
	deadline := time.Now().Add(10 * time.Second)
	if _, _, err := a.Client.Call(context.Background(), "b", "obj", "warm", nil, QoS{}); err != nil {
		t.Fatal(err)
	}
	before := a.Client.Stats().PackedUpgrades

	root := acol.Begin(obs.KindStub, "both")
	rootCtx := root.Context()
	ctx := obs.ContextWith(context.Background(), rootCtx)
	_, results, err := a.Client.Call(ctx, "b", "obj", "ask", []wire.Value{"payload"}, QoS{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0] != "payload" {
		t.Fatalf("interrogation did not echo its argument: %v", results)
	}
	if err := a.Client.AnnounceCtx(ctx, "b", "obj", "tell", []wire.Value{"payload"}, QoS{}); err != nil {
		t.Fatal(err)
	}
	select {
	case args := <-announced:
		if len(args) != 1 || args[0] != "payload" {
			t.Fatalf("announcement arrived with %v", args)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("announcement never executed")
	}
	acol.End(root)
	if got := a.Client.Stats().PackedUpgrades; got != before+2 {
		t.Fatalf("PackedUpgrades %d -> %d, want both traced invocations packed", before, got)
	}

	sends := spansOfKind(acol.Snapshot(), obs.KindSend)
	anns := spansOfKind(acol.Snapshot(), obs.KindAnnounce)
	if len(sends) != 1 || len(anns) != 1 {
		t.Fatalf("caller spans: %d send, %d announce, want 1 and 1", len(sends), len(anns))
	}
	var dispatches []obs.Span
	for time.Now().Before(deadline) {
		// The announcement's dispatch span ends after its handler returns.
		if dispatches = spansOfKind(bcol.Snapshot(), obs.KindDispatch); len(dispatches) >= 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if len(dispatches) != 2 {
		t.Fatalf("dispatch spans = %d, want exactly 2 (the warm-up call was unsampled)", len(dispatches))
	}
	parents := map[string]uint64{"ask": sends[0].SpanID, "tell": anns[0].SpanID}
	for _, d := range dispatches {
		if d.TraceID != rootCtx.TraceID {
			t.Fatalf("dispatch %q in trace %x, want the single tree %x", d.Name, d.TraceID, rootCtx.TraceID)
		}
		if want, ok := parents[d.Name]; !ok || d.ParentID != want {
			t.Fatalf("dispatch %q parent %x, want %x", d.Name, d.ParentID, want)
		}
		delete(parents, d.Name)
	}
}

// typeRecorder observes the kind|flags byte of every outbound client
// frame: of each sub-frame when a coalescer above it sends a BATCH, of
// the frame itself when it goes bare.
type typeRecorder struct {
	transport.Endpoint
	mu    chan struct{}
	types []byte
}

func newTypeRecorder(ep transport.Endpoint) *typeRecorder {
	return &typeRecorder{Endpoint: ep, mu: make(chan struct{}, 1)}
}

func (r *typeRecorder) Send(to string, pkt []byte) error {
	r.mu <- struct{}{}
	record := func(frame []byte) {
		if len(frame) >= 2 {
			r.types = append(r.types, frame[1])
		}
	}
	if transport.IsBatch(pkt) {
		_, _ = transport.DecodeBatch(pkt, record)
	} else {
		record(pkt)
	}
	<-r.mu
	return r.Endpoint.Send(to, pkt)
}

func (r *typeRecorder) sent() []byte {
	r.mu <- struct{}{}
	defer func() { <-r.mu }()
	return append([]byte(nil), r.types...)
}

// TestUnsampledCallsPutNothingOnTheWire pins the wire-format contract:
// sampling is encoded in a flag bit of the kind byte, so an unsampled (or
// untraced) call sends a bare msgRequest and a sampled one sets
// flagTraced.
func TestUnsampledCallsPutNothingOnTheWire(t *testing.T) {
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
	rec := newTypeRecorder(cep)
	col := obs.NewCollector("client", clock.Real{}, obs.WithSampleEvery(1))
	cli := NewClient(coalesceOn(t, rec, clock.Real{}, col), codec)
	t.Cleanup(func() { _ = cli.Close() })
	srv := NewServer(coalesce(t, sep), codec, echoHandler)
	t.Cleanup(func() { _ = srv.Close() })
	_ = srv

	// Unsampled: no span context in ctx, BeginChild declines, so the
	// request goes out as a bare msgRequest.
	if _, _, err := cli.Call(context.Background(), "server", "obj", "echo", nil, QoS{}); err != nil {
		t.Fatal(err)
	}
	// Sampled: a root in ctx sets the traced flag.
	root := col.Begin(obs.KindStub, "echo")
	ctx := obs.ContextWith(context.Background(), root.Context())
	if _, _, err := cli.Call(ctx, "server", "obj", "echo", nil, QoS{}); err != nil {
		t.Fatal(err)
	}
	col.End(root)

	var requests []byte
	for _, mt := range rec.sent() {
		if mt&kindMask == msgRequest {
			requests = append(requests, mt)
		}
	}
	if len(requests) != 2 || requests[0] != msgRequest || requests[1] != msgRequest|flagTraced {
		t.Fatalf("request kind bytes = %#x, want [%#x %#x]", requests, msgRequest, msgRequest|flagTraced)
	}
	// An untraced server executed both: traced frames degrade gracefully.
	if srv.Stats().Requests != 2 {
		t.Fatalf("server executed %d requests, want 2", srv.Stats().Requests)
	}
}

// TestPlainClientTracedServer proves the reverse interop direction: an
// untraced client's requests dispatch normally on a traced server and
// record no spans (there is no context to parent them under).
func TestPlainClientTracedServer(t *testing.T) {
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
	cli := NewClient(coalesce(t, cep), codec)
	t.Cleanup(func() { _ = cli.Close() })
	scol := obs.NewCollector("server", clock.Real{}, obs.WithSampleEvery(1))
	srv := NewServer(coalesceOn(t, sep, clock.Real{}, scol), codec, echoHandler)
	t.Cleanup(func() { _ = srv.Close() })

	if _, _, err := cli.Call(context.Background(), "server", "obj", "echo", nil, QoS{}); err != nil {
		t.Fatal(err)
	}
	if srv.Stats().Requests != 1 {
		t.Fatal("request not executed")
	}
	// The server's coalescer roots flush spans of its own (the channel's
	// infrastructure trace); none of the call's may appear beside them.
	var got int
	for _, sp := range scol.Snapshot() {
		if sp.Kind != obs.KindFlush {
			got++
		}
	}
	if got != 0 {
		t.Fatalf("traced server recorded %d spans for an untraced call, want 0", got)
	}
}
