package rpc

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"odp/internal/clock"
	"odp/internal/netsim"
	"odp/internal/obs"
	"odp/internal/transport"
	"odp/internal/wire"
)

// admissionSetup builds a loopback pair whose server runs admission
// control on a fake clock, so bucket refill is deterministic.
func admissionSetup(t *testing.T, cfg AdmissionConfig) (*Client, *Server, *clock.Fake) {
	t.Helper()
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
	fc := clock.NewFake(time.Unix(100, 0))
	srv := NewServer(coalesceOn(t, sep, fc, nil), codec, echoHandler, WithAdmission(cfg))
	t.Cleanup(func() { _ = srv.Close() })
	return cli, srv, fc
}

// TestAdmissionShedsBeyondBurst: a client gets Burst invocations up
// front, then ErrServerBusy until the bucket refills at Rate.
func TestAdmissionShedsBeyondBurst(t *testing.T) {
	cli, srv, fc := admissionSetup(t, AdmissionConfig{Rate: 1, Burst: 2})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, _, err := cli.Call(ctx, "server", "o", "op", nil, QoS{}); err != nil {
			t.Fatalf("call %d within burst: %v", i, err)
		}
	}
	_, _, err := cli.Call(ctx, "server", "o", "op", nil, QoS{})
	if !errors.Is(err, ErrServerBusy) {
		t.Fatalf("over-burst call: err = %v, want ErrServerBusy", err)
	}
	if got := srv.Stats().AdmissionRejects; got != 1 {
		t.Fatalf("AdmissionRejects = %d, want 1", got)
	}

	// One second at Rate 1 earns exactly one more token.
	fc.Advance(time.Second)
	if _, _, err := cli.Call(ctx, "server", "o", "op", nil, QoS{}); err != nil {
		t.Fatalf("call after refill: %v", err)
	}
	if _, _, err := cli.Call(ctx, "server", "o", "op", nil, QoS{}); !errors.Is(err, ErrServerBusy) {
		t.Fatalf("second call after single-token refill: err = %v, want ErrServerBusy", err)
	}
}

// TestAdmissionBusyReplyNotAcked: a busy reply is never cached, so the
// client owes it no ack, not even a deferred one — whether its frames
// leave bare (batching=false) or inside the batches of a coalescer
// (batching=true); the recorder beneath counts the frames either way.
// Only the admitted call is acknowledged.
func TestAdmissionBusyReplyNotAcked(t *testing.T) {
	for _, batching := range []bool{false, true} {
		t.Run(fmt.Sprintf("batching=%v", batching), func(t *testing.T) {
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
			var ep transport.Batcher = plain(t, rec)
			if batching {
				ep = coalesce(t, rec)
			}
			cli := NewClient(ep, codec)
			srv := NewServer(coalesce(t, sep), codec, echoHandler, WithAdmission(AdmissionConfig{Rate: 0, Burst: 1}))
			t.Cleanup(func() { _ = srv.Close() })

			ctx := context.Background()
			if _, _, err := cli.Call(ctx, "server", "o", "op", nil, QoS{}); err != nil {
				t.Fatal(err)
			}
			const shed = 3
			for i := 0; i < shed; i++ {
				if _, _, err := cli.Call(ctx, "server", "o", "op", nil, QoS{}); !errors.Is(err, ErrServerBusy) {
					t.Fatalf("shed call %d: err = %v, want ErrServerBusy", i, err)
				}
			}
			if got := srv.Stats().AdmissionRejects; got != shed {
				t.Fatalf("AdmissionRejects = %d, want %d", got, shed)
			}
			if got := cli.Stats().AcksDeferred; got != 1 {
				t.Fatalf("AcksDeferred = %d, want 1 (the admitted call only)", got)
			}
			_ = cli.Close() // flushes whatever was deferred
			acks := 0
			for _, b := range rec.sent() {
				if b&kindMask == msgAck {
					acks++
				}
			}
			if acks != 1 {
				t.Fatalf("%d ack frames sent, want 1 (the admitted call only)", acks)
			}
		})
	}
}

// TestAdmissionBusyReplyNotCached: a shed request must not burn its
// at-most-once slot — a retransmission of the same call id re-enters
// admission and executes once the bucket refills. This is what lets a
// client back off and retry instead of timing out against a poisoned
// dedup entry.
func TestAdmissionBusyReplyNotCached(t *testing.T) {
	f := netsim.NewFabric()
	t.Cleanup(func() { _ = f.Close() })
	raw, err := f.Endpoint("raw")
	if err != nil {
		t.Fatal(err)
	}
	rep := coalesce(t, raw)
	sep, err := f.Endpoint("server")
	if err != nil {
		t.Fatal(err)
	}
	fc := clock.NewFake(time.Unix(100, 0))
	srv := NewServer(coalesceOn(t, sep, fc, nil), codec, echoHandler,
		WithAdmission(AdmissionConfig{Rate: 1, Burst: 1}))
	t.Cleanup(func() { _ = srv.Close() })

	replies := make(chan replyBody, 4)
	rep.SetHandler(func(from string, pkt []byte) {
		h, rest, err := decodeRawHeader(pkt)
		if err != nil || h.kind != msgReply {
			return
		}
		rb, err := decodeReplyBody(codec, rest)
		if err != nil {
			return
		}
		replies <- rb
	})

	mkRequest := func(callID uint64) []byte {
		pkt := encodeHeader(nil, header{kind: msgRequest, callID: callID, objID: "o", op: "op"})
		pkt, err := wire.EncodeAllInto(codec, pkt, nil)
		if err != nil {
			t.Fatal(err)
		}
		return pkt
	}
	drain, request := mkRequest(6), mkRequest(7)

	wait := func(label string) replyBody {
		t.Helper()
		select {
		case rb := <-replies:
			return rb
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: no reply", label)
			return replyBody{}
		}
	}
	if err := rep.Send("server", drain); err != nil {
		t.Fatal(err)
	}
	if rb := wait("drain"); rb.status != statusOK {
		t.Fatalf("drain call: status = %d, want statusOK", rb.status)
	}
	if err := rep.Send("server", request); err != nil {
		t.Fatal(err)
	}
	if rb := wait("empty bucket"); rb.status != statusBusy {
		t.Fatalf("status = %d, want statusBusy", rb.status)
	}
	fc.Advance(time.Second) // earn one token
	if err := rep.Send("server", request); err != nil {
		t.Fatal(err)
	}
	if rb := wait("after refill"); rb.status != statusOK {
		t.Fatalf("retransmission after refill: status = %d, want statusOK", rb.status)
	}
	if got := srv.Stats().Requests; got != 2 {
		t.Fatalf("Requests = %d, want 2 (drain + retried call, busy not cached)", got)
	}
}

// TestAdmissionDropsAnnouncements: over-budget announcements vanish
// (§5.1 — announcement failures cannot be reported) but are counted.
func TestAdmissionDropsAnnouncements(t *testing.T) {
	cli, srv, _ := admissionSetup(t, AdmissionConfig{Rate: 0, Burst: 1})
	if err := cli.Announce("server", "o", "ping", nil, QoS{}); err != nil {
		t.Fatal(err)
	}
	if err := cli.Announce("server", "o", "ping", nil, QoS{}); err != nil {
		t.Fatal(err) // fire-and-forget: the drop is invisible to the sender
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := srv.Stats()
		if st.AdmissionDrops == 1 && st.Announcements == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats = %+v, want 1 announcement + 1 drop", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionRejectSpan: a traced request shed by admission leaves a
// KindReject event under the caller's send span — the only trace of an
// invocation that never reached dispatch.
func TestAdmissionRejectSpan(t *testing.T) {
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
	ccol := obs.NewCollector("client", clock.Real{}, obs.WithSampleEvery(1))
	scol := obs.NewCollector("server", clock.Real{}, obs.WithSampleEvery(1))
	cli := NewClient(coalesceOn(t, cep, clock.Real{}, ccol), codec)
	t.Cleanup(func() { _ = cli.Close() })
	srv := NewServer(coalesceOn(t, sep, clock.Real{}, scol), codec, echoHandler,
		WithAdmission(AdmissionConfig{Rate: 0, Burst: 1}))
	t.Cleanup(func() { _ = srv.Close() })

	root := ccol.Begin(obs.KindStub, "op")
	rootCtx := root.Context() // End recycles the span, so capture first
	ctx := obs.ContextWith(context.Background(), rootCtx)
	if _, _, err := cli.Call(ctx, "server", "o", "op", nil, QoS{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cli.Call(ctx, "server", "o", "op", nil, QoS{}); !errors.Is(err, ErrServerBusy) {
		t.Fatalf("err = %v, want ErrServerBusy", err)
	}
	ccol.End(root)

	rejects := spansOfKind(scol.Snapshot(), obs.KindReject)
	if len(rejects) != 1 {
		t.Fatalf("KindReject spans = %d, want 1", len(rejects))
	}
	if rejects[0].TraceID != rootCtx.TraceID {
		t.Fatalf("reject trace %x, want %x", rejects[0].TraceID, rootCtx.TraceID)
	}
	if rejects[0].Name != "op" {
		t.Fatalf("reject span name %q, want the shed operation", rejects[0].Name)
	}
	if dispatches := spansOfKind(scol.Snapshot(), obs.KindDispatch); len(dispatches) != 1 {
		t.Fatalf("dispatch spans = %d, want 1 (the admitted call only)", len(dispatches))
	}
}
