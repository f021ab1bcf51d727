package rpc

import (
	"context"
	"testing"
	"time"

	"odp/internal/clock"
	"odp/internal/netsim"
	"odp/internal/transport"
	"odp/internal/wire"
)

// pollUntil spins the scheduler until cond holds or the budget runs out.
// Netsim delivers asynchronously even on loopback, so counter assertions
// need a settling window.
func pollUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition never held: %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBadAndOrphanReplyCounters exercises the two client-side drop paths
// that used to be silent: replies whose body does not decode, and
// well-formed replies that match no pending call. Both must surface in
// ClientStats rather than vanish.
func TestBadAndOrphanReplyCounters(t *testing.T) {
	f := netsim.NewFabric()
	t.Cleanup(func() { _ = f.Close() })
	cep, err := f.Endpoint("client")
	if err != nil {
		t.Fatal(err)
	}
	rogue, err := f.Endpoint("rogue")
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(coalesce(t, cep), codec)
	t.Cleanup(func() { _ = cli.Close() })

	// A reply header followed by a body that cannot decode (status byte
	// missing entirely).
	bad := encodeHeader(nil, header{kind: msgReply, callID: 1})
	if err := rogue.Send("client", bad); err != nil {
		t.Fatal(err)
	}
	pollUntil(t, "BadReplies == 1", func() bool { return cli.Stats().BadReplies == 1 })

	// A perfectly well-formed reply for a call id that was never issued.
	orphan := encodeHeader(nil, header{kind: msgReply, callID: 999})
	orphan, err = appendReplyBody(codec, orphan, statusOK, "ok", nil, "", wire.Ref{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := rogue.Send("client", orphan); err != nil {
			t.Fatal(err)
		}
	}
	pollUntil(t, "OrphanReplies == 3", func() bool { return cli.Stats().OrphanReplies == 3 })

	if got := cli.Stats().BadReplies; got != 1 {
		t.Fatalf("BadReplies = %d, want 1", got)
	}
}

// TestTrailingBytesRefused: a reply or an ack with bytes after what its
// kind carries is a malformed frame, whatever it says. Each reply shape
// decodes well-formed (an orphan: no call is pending) and is counted in
// BadReplies with one byte more; an ack with a body leaves the reply it
// names cached, and the bare ack then evicts it.
func TestTrailingBytesRefused(t *testing.T) {
	f := netsim.NewFabric()
	t.Cleanup(func() { _ = f.Close() })
	cep, err := f.Endpoint("client")
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(coalesce(t, cep), codec)
	t.Cleanup(func() { _ = cli.Close() })
	for i, tt := range []struct {
		name    string
		status  byte
		outcome string
		msg     string
		fwd     wire.Ref
	}{
		{"ok", statusOK, "ok", "", wire.Ref{}},
		{"sys-error", statusSysError, "", "boom", wire.Ref{}},
		{"denied", statusDenied, "", "no", wire.Ref{}},
		{"moved", statusMoved, "", "", wire.Ref{ID: "o", Endpoints: []string{"elsewhere"}}},
		{"no-object", statusNoObject, "", "", wire.Ref{}},
		{"busy", statusBusy, "", "", wire.Ref{}},
	} {
		pkt, err := appendReplyBody(codec, encodeHeader(nil, header{kind: msgReply, callID: uint64(1000 + i)}), tt.status, tt.outcome, nil, tt.msg, tt.fwd)
		if err != nil {
			t.Fatal(err)
		}
		before := cli.Stats()
		route(cli, nil, "server", pkt, time.Time{})
		route(cli, nil, "server", append(pkt, 0), time.Time{})
		after := cli.Stats()
		if after.OrphanReplies != before.OrphanReplies+1 || after.BadReplies != before.BadReplies+1 {
			t.Errorf("%s: orphans %d -> %d, bad replies %d -> %d; want the well-formed reply an orphan and the one with a trailing byte bad",
				tt.name, before.OrphanReplies, after.OrphanReplies, before.BadReplies, after.BadReplies)
		}
	}

	srv, _ := fakeClockServer(t, func(context.Context, *Incoming) (string, []wire.Value, error) {
		return "ok", nil, nil
	})
	inject(srv, "caller", msgRequest, 1)
	route(nil, srv, "caller", append(rawFrame(msgAck, 1), 0), time.Time{})
	if got := srv.Stats().CacheEvictions; got != 0 {
		t.Fatalf("an ack with a body evicted %d cached replies, want 0", got)
	}
	inject(srv, "caller", msgAck, 1)
	if got := srv.Stats().CacheEvictions; got != 1 {
		t.Fatalf("the bare ack evicted %d cached replies, want 1", got)
	}
}

// ackDropper loses every ack its owner queues.
type ackDropper struct{ *transport.Coalescer }

func (d ackDropper) SendLazy(to string, pkt []byte) error {
	if len(pkt) >= 2 && pkt[1]&kindMask == msgAck {
		return nil
	}
	return d.Coalescer.SendLazy(to, pkt)
}

// TestRetransmissionStormAccounting drives a retransmission storm with a
// fake clock and demands exact bookkeeping: every redundant request packet
// must land in Duplicates, every redundant reply in RepliesResent, and the
// client must count the replies it no longer wants as orphans. Nothing is
// executed twice and nothing disappears — and once the call is
// acknowledged, nothing is answered either.
func TestRetransmissionStormAccounting(t *testing.T) {
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

	cliClk := clock.NewFake(time.Unix(0, 0))
	srvClk := clock.NewFake(time.Unix(0, 0)) // frozen: the reply cache never expires
	release := make(chan struct{})
	gated := func(ctx context.Context, in *Incoming) (string, []wire.Value, error) {
		<-release
		return "done", nil, nil
	}
	// The client's own ack is lost on the way: phase 2 sends it by hand.
	cli := NewClient(ackDropper{coalesceOn(t, cep, cliClk, nil)}, codec)
	t.Cleanup(func() { _ = cli.Close() })
	srv := NewServer(coalesceOn(t, sep, srvClk, nil), codec, gated)
	t.Cleanup(func() { _ = srv.Close() })

	args := []wire.Value{int64(42)}
	type result struct {
		outcome string
		err     error
	}
	done := make(chan result, 1)
	go func() {
		outcome, _, err := cli.Call(context.Background(), "server", "obj", "slow", args,
			QoS{Timeout: time.Hour, Retransmit: time.Second})
		done <- result{outcome, err}
	}()

	// Phase 1: the handler is blocked, so each logical second produces one
	// client retransmission, and every one must be suppressed as a
	// duplicate of the in-progress execution — never re-executed, never
	// answered from the (empty) reply cache.
	const storm = 7
	for i := 0; i < 500 && cli.Stats().Retransmissions < storm; i++ {
		cliClk.Advance(time.Second)
		time.Sleep(2 * time.Millisecond)
	}
	if cli.Stats().Retransmissions < storm {
		t.Fatalf("storm never built: %d retransmissions", cli.Stats().Retransmissions)
	}

	close(release)
	res := <-done
	if res.err != nil || res.outcome != "done" {
		t.Fatalf("call: outcome %q, err %v", res.outcome, res.err)
	}
	// The call is over, so the retransmission count is final.
	retrans := cli.Stats().Retransmissions

	pollUntil(t, "storm duplicates all counted", func() bool {
		return srv.Stats().Duplicates == retrans
	})
	if got := srv.Stats(); got.Requests != 1 || got.RepliesResent != 0 {
		t.Fatalf("after storm: Requests=%d RepliesResent=%d, want 1 and 0", got.Requests, got.RepliesResent)
	}

	// Phase 2, before the ack: replay the identical request after
	// completion. The client's ack was dropped on the fabric, so the
	// server still owes it the reply: each copy must be answered from the
	// reply cache (RepliesResent), counted as a duplicate, and discarded
	// by the client as an orphan — the server clock is frozen, so the
	// cache cannot have expired.
	replay := encodeHeader(nil, header{
		kind:   msgRequest,
		callID: 1, // first id issued by the client above
		objID:  "obj",
		op:     "slow",
	})
	replay, err = wire.EncodeAllInto(codec, replay, args)
	if err != nil {
		t.Fatal(err)
	}
	const replays = 5
	sendReplays := func() {
		t.Helper()
		for i := 0; i < replays; i++ {
			if err := cep.Send("server", replay); err != nil {
				t.Fatal(err)
			}
		}
	}
	sendReplays()
	pollUntil(t, "replayed requests answered from cache", func() bool {
		return srv.Stats().RepliesResent == replays
	})
	pollUntil(t, "resent replies counted as orphans", func() bool {
		// Replays delivered at once race for the server's wire: a reply
		// queued behind another's write leaves when the instant ends,
		// which on the frozen clock is only when the test says so.
		srvClk.Advance(0)
		return cli.Stats().OrphanReplies == replays
	})
	if got := srv.Stats(); got.Requests != 1 || got.Duplicates != retrans+replays {
		t.Fatalf("before the ack: Requests=%d Duplicates=%d, want 1 and %d", got.Requests, got.Duplicates, retrans+replays)
	}

	// Phase 2, after the ack: the client has said it holds the reply, so
	// a duplicate is dropped, not re-answered. Every copy is counted in
	// Duplicates; nothing more is resent and nothing is executed.
	ack := encodeHeader(nil, header{kind: msgAck, callID: 1})
	if err := cep.Send("server", ack); err != nil {
		t.Fatal(err)
	}
	pollUntil(t, "ack evicts the cached reply", func() bool {
		return srv.Stats().CacheEvictions == 1
	})
	sendReplays()
	pollUntil(t, "replays after the ack counted", func() bool {
		return srv.Stats().Duplicates == retrans+2*replays
	})

	// Full ledger: one execution; every redundant request is a duplicate;
	// only the duplicates between completion and ack were answered.
	ss := srv.Stats()
	if ss.Requests != 1 {
		t.Fatalf("Requests = %d, want 1 (re-execution!)", ss.Requests)
	}
	if ss.RepliesResent != replays {
		t.Fatalf("RepliesResent = %d, want %d (a replay after the ack was re-answered)", ss.RepliesResent, replays)
	}
	if got := cli.Stats(); got.OrphanReplies != replays || got.BadReplies != 0 {
		t.Fatalf("client: OrphanReplies = %d, BadReplies = %d, want %d and 0", got.OrphanReplies, got.BadReplies, replays)
	}
}
