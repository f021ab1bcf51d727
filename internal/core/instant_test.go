package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"odp/internal/clock"
	"odp/internal/rpc"
	"odp/internal/security"
	"odp/internal/wire"
)

// countingClock counts the reads of the clock it wraps that an
// invocation's path makes: under a proxy's Call, or under a server's
// dispatch. Left out are a janitor's first read, made whenever its
// goroutine first runs, and the coalescer's: a frame queued behind a
// write still in flight is stamped when queued and when flushed (its
// flush delay), and a flush records its span, which happens only when a
// writer is preempted mid-write — on a loaded host, not by the path's
// design.
type countingClock struct {
	clock.Clock
	reads atomic.Int64
	// sends counts, by the same rule, the reads made under the rpc
	// client's Call.
	sends atomic.Int64
}

func (c *countingClock) Now() time.Time {
	c.count()
	return c.Clock.Now()
}

func (c *countingClock) Since(t time.Time) time.Duration {
	c.count()
	return c.Clock.Since(t)
}

// count counts a read whose first caller outside this clock, the runtime
// and the span collector is not the coalescer, made under Proxy.Call or
// Server.run, and in sends one made under rpc.Client.Call.
func (c *countingClock) count() {
	var pcs [64]uintptr
	frames := runtime.CallersFrames(pcs[:runtime.Callers(1, pcs[:])])
	reader := ""
	for more := true; more; {
		var f runtime.Frame
		f, more = frames.Next()
		fn := f.Function
		if reader == "" && !strings.HasPrefix(fn, "runtime.") &&
			!strings.HasPrefix(fn, "odp/internal/core.(*countingClock)") && !strings.HasPrefix(fn, "odp/internal/obs.") {
			reader = fn
		}
		if strings.HasPrefix(reader, "odp/internal/transport.") {
			return
		}
		if fn == "odp/internal/rpc.(*Client).Call" {
			c.sends.Add(1)
		}
		if fn == "odp/internal/core.(*Proxy).Call" || fn == "odp/internal/rpc.(*Server).run" {
			c.reads.Add(1)
			return
		}
	}
}

// waitFor polls cond until it holds; the timer is a watchdog that fires
// only on a red.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	watchdog := time.NewTimer(5 * time.Second)
	defer watchdog.Stop()
	for !cond() {
		select {
		case <-watchdog.C:
			t.Fatalf("condition never held: %s", what)
		case <-time.After(time.Millisecond):
		}
	}
}

// allMechanisms is what loop_woven publishes: every mechanism that reads
// the dispatch instant, and the recovery log, which reads none.
func allMechanisms() Env {
	return Env{
		Managed: &ManagedSpec{},
		Secured: &SecureSpec{Policy: security.Policy{Rules: []security.Rule{
			{Principal: "alice", Op: "*", Allow: true},
		}}},
		Leased:      &LeaseSpec{},
		Recoverable: &RecoverSpec{},
	}
}

// TestOneInstantOnTheWovenPath: one signed interrogation of a
// Managed+Secured+Leased+Recoverable object over the fabric, and its ack,
// read the server's clock 3 times — the dispatch instant, which the
// guard, the lease stamp and the Managed stage's start share, the
// dispatch latency's end and the Managed stage's end — and the client's
// 3 times: the credential's stamp, the send stamp and the call latency.
// The unsampled mechanism stages read none. Each mechanism reading its
// own instant made it 5 on the server (the guard read the wall clock
// besides).
func TestOneInstantOnTheWovenPath(t *testing.T) {
	e := newCoreEnv(t)
	sclk := &countingClock{Clock: clock.Real{}}
	cclk := &countingClock{Clock: clock.Real{}}
	server := e.platform("server", WithClock(sclk))
	client := e.platform("client", WithClock(cclk), WithRelocator(server.RelocRef))
	server.Keys.Share("alice", []byte("k"))
	ref, err := server.Publish("woven", Object{Servant: &ledger{}, Type: ledgerType(), Env: allMechanisms()})
	if err != nil {
		t.Fatal(err)
	}
	// The interval is long so no retransmission pass fires in the window.
	proxy := client.Bind(ref).WithQoS(rpc.QoS{Timeout: 2 * time.Hour, Retransmit: time.Hour}).
		WithSigner(security.NewSigner("alice", []byte("k")))
	acked := func(n uint64) func() bool {
		return func() bool { return server.Capsule.ServerStats().CacheEvictions == n }
	}
	call := func() {
		t.Helper()
		if out, err := proxy.Call(context.Background(), "credit", int64(1)); err != nil || !out.Is("ok") {
			t.Fatalf("credit: %+v %v", out, err)
		}
	}
	// A call's ack rides with the next request: the second call builds
	// the record of acknowledged ids, the third is the one measured.
	call()
	call()
	waitFor(t, "first ack", acked(1))
	s0, c0 := sclk.reads.Load(), cclk.reads.Load()
	call()
	waitFor(t, "second ack", acked(2))
	if s, c := sclk.reads.Load()-s0, cclk.reads.Load()-c0; s != 3 || c != 3 {
		t.Fatalf("one woven interrogation and its ack read the server clock %d times and the client clock %d times, want 3 and 3", s, c)
	}
}

// TestGuardJudgesOnTheNodesClock: a Secured object on a node whose clock
// is far from wall time admits what a proxy on that node signs — the
// proxy stamps from its platform's clock and the guard judges at the
// dispatch instant on the same clock — and refuses a credential stamped
// on the wall clock. A credential maxSkew behind the node's instant is
// still fresh; one millisecond more is stale; a fresh one used twice is
// a replay.
func TestGuardJudgesOnTheNodesClock(t *testing.T) {
	const skew = 2 * time.Second
	clk := clock.NewFake(time.Date(1991, time.October, 7, 0, 0, 0, 0, time.UTC))
	p := newCoreEnv(t).platform("node", WithClock(clk))
	p.Keys.Share("alice", []byte("k"))
	env := allMechanisms()
	env.Secured.MaxSkew = skew
	ref, err := p.Publish("vault", Object{Servant: &ledger{}, Type: ledgerType(), Env: env})
	if err != nil {
		t.Fatal(err)
	}
	alice := security.NewSigner("alice", []byte("k"))
	ctx := context.Background()
	if out, err := p.Bind(ref).WithSigner(alice).Call(ctx, "credit", int64(1)); err != nil || !out.Is("ok") {
		t.Fatalf("proxy-signed call on a node far from wall time: %+v %v", out, err)
	}
	// invoke sends a credential the caller stamped (co-located calls keep
	// the guard's reason in the error).
	invoke := func(args []wire.Value) error {
		_, _, err := p.Capsule.Invoke(ctx, ref, "credit", args)
		return err
	}
	refused := func(what string, err, want error) {
		t.Helper()
		if !errors.Is(err, rpc.ErrDenied) || !strings.Contains(err.Error(), want.Error()) {
			t.Fatalf("%s: want %v, got %v", what, want, err)
		}
	}
	wrapAt := func(at time.Time) []wire.Value {
		t.Helper()
		args, err := alice.WrapAt(at, "credit", []wire.Value{int64(1)})
		if err != nil {
			t.Fatal(err)
		}
		return args
	}
	wall, err := alice.Wrap("credit", []wire.Value{int64(1)})
	if err != nil {
		t.Fatal(err)
	}
	refused("a wall-clock credential", invoke(wall), security.ErrStale)
	if err := invoke(wrapAt(clk.Now().Add(-skew))); err != nil {
		t.Fatalf("a credential maxSkew behind: %v", err)
	}
	refused("a credential maxSkew + 1ms behind", invoke(wrapAt(clk.Now().Add(-skew-time.Millisecond))), security.ErrStale)
	fresh := wrapAt(clk.Now())
	if err := invoke(fresh); err != nil {
		t.Fatalf("a fresh credential: %v", err)
	}
	refused("the fresh credential again", invoke(fresh), security.ErrReplay)
}
