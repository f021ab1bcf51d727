package core

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"odp/internal/migrate"
	"odp/internal/netsim"
	"odp/internal/rpc"
	"odp/internal/wire"
)

func TestProxyRefAndQoS(t *testing.T) {
	e := newCoreEnv(t)
	server := e.platform("server")
	client := e.platform("client", WithRelocator(server.RelocRef))
	ref, err := server.Publish("ledger", Object{Servant: &ledger{balance: 3}})
	if err != nil {
		t.Fatal(err)
	}
	proxy := client.Bind(ref)
	if !wire.Equal(proxy.Ref(), ref) {
		t.Fatal("proxy lost its reference")
	}
	// WithQoS returns a derived proxy; the original is untouched.
	fast := proxy.WithQoS(rpc.QoS{Timeout: 2 * time.Second})
	if fast == proxy {
		t.Fatal("WithQoS mutated in place")
	}
	out, err := fast.Call(context.Background(), "balance")
	if err != nil || !out.Is("ok") {
		t.Fatalf("call via derived proxy: %+v %v", out, err)
	}
}

func TestProxyAnnounce(t *testing.T) {
	e := newCoreEnv(t)
	server := e.platform("server")
	client := e.platform("client", WithRelocator(server.RelocRef))
	led := &ledger{}
	ref, err := server.Publish("ledger", Object{Servant: led})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Bind(ref).Announce("credit", int64(5)); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(2 * time.Second)
	for {
		led.mu.Lock()
		n := led.balance
		led.mu.Unlock()
		if n == 5 {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("announcement never applied (balance %d)", n)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func TestPlatformAnnounceAndBinderStats(t *testing.T) {
	e := newCoreEnv(t)
	server := e.platform("server")
	client := e.platform("client", WithRelocator(server.RelocRef))
	led := &ledger{}
	ref, err := server.Publish("ledger", Object{Servant: led})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Announce(ref, "credit", []wire.Value{int64(1)}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.Invoke(context.Background(), ref, "balance", nil); err != nil {
		t.Fatal(err)
	}
	st := client.BinderStats()
	if st.Invocations != 1 {
		t.Fatalf("binder stats %+v", st)
	}
}

func TestPlatformOptionsExercised(t *testing.T) {
	// Exercise the remaining construction options together.
	e := newCoreEnv(t)
	p, err := NewPlatform("opt", e.endpoint("opt"),
		WithCodec(wire.TextCodec{}),
		WithTrader("opt-ctx"),
		WithLockWait(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	if p.Trader == nil || p.Trader.ContextName() != "opt-ctx" {
		t.Fatal("trader option not applied")
	}
	if p.Capsule.Codec().Name() != (wire.TextCodec{}).Name() {
		t.Fatal("codec option not applied")
	}
	// The platform remains functional with the text codec.
	ref, err := p.Publish("l", Object{Servant: &ledger{balance: 2}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Bind(ref).Call(context.Background(), "balance")
	if err != nil || !out.Is("ok") {
		t.Fatalf("text-codec platform call: %+v %v", out, err)
	}
}

func TestRemoteRegistrarPath(t *testing.T) {
	// A platform pointed at a REMOTE relocation service must register
	// migrations there over the wire.
	e := newCoreEnv(t)
	hub := e.platform("hub") // hosts the relocator
	src := e.platform("src", WithRelocator(hub.RelocRef))
	dst := e.platform("dst", WithRelocator(hub.RelocRef))
	dst.Mover.RegisterFactory("Ledger", func() migrate.Servant { return &ledger{} })

	ref, err := src.Publish("wanderer", Object{
		Servant: &ledger{balance: 9},
		Type:    ledgerType(),
		Env:     Env{Movable: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Mover.Migrate(context.Background(), "wanderer", dst.Mover.AcceptorRef()); err != nil {
		t.Fatal(err)
	}
	// The hub's table (remote to src) learned the move.
	got, err := hub.RelocTable.Lookup("wanderer")
	if err != nil || got.Endpoints[0] != "dst" {
		t.Fatalf("remote registration failed: %v %v", got, err)
	}
	// A fresh client with a stale ref recovers through the hub.
	client := e.platform("client", WithRelocator(hub.RelocRef))
	out, err := client.Bind(ref).WithQoS(rpc.QoS{Timeout: time.Second}).Call(context.Background(), "balance")
	if err != nil || !out.Is("ok") {
		t.Fatalf("stale-ref call after remote-registered move: %+v %v", out, err)
	}
	if n, _ := out.Int(0); n != 9 {
		t.Fatalf("balance %d", n)
	}
}

// landingLedger is a ledger that closes landed when a credit lands: the
// servant a migration's last destination builds, so a test can wait for
// an announcement to reach the object's current home.
type landingLedger struct {
	ledger
	landed chan struct{}
	once   sync.Once
}

func (l *landingLedger) Dispatch(ctx context.Context, op string, args []wire.Value) (string, []wire.Value, error) {
	outcome, results, err := l.ledger.Dispatch(ctx, op, args)
	if op == "credit" && err == nil {
		l.once.Do(func() { close(l.landed) })
	}
	return outcome, results, err
}

// TestAnnouncementFollowsForward is §5.4 migration transparency for the
// request-only kind: an announcement sent through a proxy on a reference
// the object has left reaches the object at its new home. No reply can
// carry a MovedError back to the announcer, so the node that holds the
// forward re-announces along it, hop by hop.
func TestAnnouncementFollowsForward(t *testing.T) {
	for _, tc := range []struct {
		name string
		// hops is the migration path after src; the last hop is where
		// the announcement must land.
		hops []string
		// fromSrc announces from the old host itself instead of from a
		// separate client.
		fromSrc bool
	}{
		{name: "remote announcer", hops: []string{"dst"}},
		{name: "old host announces", hops: []string{"dst"}, fromSrc: true},
		{name: "two hops", hops: []string{"mid", "dst"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A node reaches an object it no longer hosts through its own
			// dispatcher, never through the fabric to its own address.
			var selfSent atomic.Int64
			e := newCoreEnv(t, netsim.WithTrace(func(_ time.Time, event string) {
				if strings.HasPrefix(event, "send src>src ") {
					selfSent.Add(1)
				}
			}))
			hub := e.platform("hub") // hosts the relocator
			src := e.platform("src", WithRelocator(hub.RelocRef))
			stale, err := src.Publish("wanderer", Object{
				Servant: &ledger{balance: 10},
				Type:    ledgerType(),
				Env:     Env{Movable: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			landing := &landingLedger{landed: make(chan struct{})}
			from := src
			for i, name := range tc.hops {
				next := e.platform(name, WithRelocator(hub.RelocRef))
				factory := func() migrate.Servant { return &ledger{} }
				if i == len(tc.hops)-1 {
					factory = func() migrate.Servant { return landing }
				}
				next.Mover.RegisterFactory("Ledger", factory)
				if _, err := from.Mover.Migrate(context.Background(), "wanderer", next.Mover.AcceptorRef()); err != nil {
					t.Fatal(err)
				}
				from = next
			}

			announcer := src
			if !tc.fromSrc {
				announcer = e.platform("client", WithRelocator(hub.RelocRef))
			}
			if err := announcer.Bind(stale).Announce("credit", int64(1)); err != nil {
				t.Fatal(err)
			}
			select {
			case <-landing.landed:
			case <-time.After(5 * time.Second):
				t.Fatal("the announcement to the moved object never landed")
			}
			landing.mu.Lock()
			defer landing.mu.Unlock()
			if landing.balance != 11 {
				t.Fatalf("balance %d after the credit, want 11", landing.balance)
			}
			if n := selfSent.Load(); n != 0 {
				t.Fatalf("src sent %d frames to its own address", n)
			}
		})
	}
}

// TestLeasedObjectArchivedNotDestroyed composes the collector with
// passivation, §7.3's archival pattern: when an unreferenced object is
// collected, its OnCollect hook archives it to stable storage instead of
// destroying it, and a later invocation "moves it back on demand". The
// object comes back tracked, so the cycle repeats.
func TestLeasedObjectArchivedNotDestroyed(t *testing.T) {
	e := newCoreEnv(t)
	server := e.platform("server", WithGCGrace(20*time.Millisecond))
	client := e.platform("client", WithRelocator(server.RelocRef))
	server.Mover.RegisterFactory("Ledger", func() migrate.Servant { return &ledger{} })

	archived := make(chan string, 1)
	ref, err := server.Publish("archive-me", Object{
		Servant: &ledger{balance: 77},
		Type:    ledgerType(),
		Env: Env{
			Movable: true,
			Leased: &LeaseSpec{OnCollect: func(id string) {
				// The collector has already unexported the object; the
				// host still manages it, so Passivate can snapshot it.
				if err := server.Mover.Passivate(id); err == nil {
					archived <- id
				}
			}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Seed some state.
	if _, err := client.Bind(ref).Call(context.Background(), "credit", int64(3)); err != nil {
		t.Fatal(err)
	}
	for cycle := 1; cycle <= 2; cycle++ {
		// Let the object fall idle with no lease.
		time.Sleep(40 * time.Millisecond)
		if victims := server.Collector.Sweep(); len(victims) != 1 {
			t.Fatalf("cycle %d: swept %v", cycle, victims)
		}
		select {
		case <-archived:
		case <-time.After(2 * time.Second):
			t.Fatalf("cycle %d: collected object was not archived", cycle)
		}
		if !server.Mover.IsPassive("archive-me") {
			t.Fatalf("cycle %d: object not in passive store", cycle)
		}
		// Demand brings it back, state intact.
		out, err := client.Bind(ref).WithQoS(rpc.QoS{Timeout: 2 * time.Second}).
			Call(context.Background(), "balance")
		if err != nil || !out.Is("ok") {
			t.Fatalf("cycle %d: reactivation: %+v %v", cycle, out, err)
		}
		if n, _ := out.Int(0); n != 80 {
			t.Fatalf("cycle %d: archived state lost: %d", cycle, n)
		}
	}
}
