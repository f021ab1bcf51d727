package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"odp/internal/capsule"
	"odp/internal/clock"
	"odp/internal/obs"
	"odp/internal/rpc"
	"odp/internal/security"
	"odp/internal/sim"
	"odp/internal/wire"
)

// stageUniverse is a server and a client, both sampling every call, in
// one seeded simulation: their span trees replay byte for byte.
type stageUniverse struct {
	t              *testing.T
	s              *sim.Sim
	server, client *Platform
	ref            wire.Ref
}

// newStageUniverse publishes servant as "woven" with every mechanism
// that has a stage on the server. wrap, when non-nil, wraps the
// universe's clock for the server.
func newStageUniverse(t *testing.T, servant capsule.Servant, wrap func(clock.Clock) clock.Clock) *stageUniverse {
	return newStageUniverseOn(t, servant, wrap, nil)
}

// newStageUniverseOn is newStageUniverse whose client's clock cwrap,
// when non-nil, wraps.
func newStageUniverseOn(t *testing.T, servant capsule.Servant, wrap, cwrap func(clock.Clock) clock.Clock) *stageUniverse {
	s := sim.New(47)
	t.Cleanup(s.Close)
	u := &stageUniverse{t: t, s: s}
	node := func(name string, clk clock.Clock, opts ...Option) *Platform {
		ep, err := s.Fabric.Endpoint(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPlatform(name, ep, append(opts, WithClock(clk), WithTracing(obs.WithSampleEvery(1)))...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Drain(func() { _ = p.Close() }) })
		return p
	}
	var sclk clock.Clock = s.Clock
	if wrap != nil {
		sclk = wrap(s.Clock)
	}
	var cclk clock.Clock = s.Clock
	if cwrap != nil {
		cclk = cwrap(s.Clock)
	}
	u.server = node("server", sclk)
	u.client = node("client", cclk, WithRelocator(u.server.RelocRef))
	u.server.Keys.Share("alice", []byte("k"))
	var err error
	if u.ref, err = u.server.Publish("woven", Object{Servant: servant, Type: ledgerType(), Env: allMechanisms()}); err != nil {
		t.Fatal(err)
	}
	return u
}

// call makes one interrogation from the client, signed when signed,
// advancing virtual time until it returns.
func (u *stageUniverse) call(signed bool) error {
	u.t.Helper()
	pr := u.client.Bind(u.ref).WithQoS(rpc.QoS{Timeout: time.Minute, Retransmit: time.Second})
	if signed {
		pr = pr.WithSigner(security.NewSigner("alice", []byte("k")))
	}
	done := make(chan error, 1)
	go func() {
		_, err := pr.Call(context.Background(), "credit", int64(1))
		done <- err
	}()
	var err error
	u.s.Run(u.t, time.Minute, func() bool {
		select {
		case err = <-done:
			return true
		default:
			return false
		}
	})
	return err
}

// trace is the span forest of the newest trace that reached the server's
// dispatch, rendered with its client half, and the server's spans in it
// keyed by kind.
func (u *stageUniverse) trace() (string, map[string]obs.Span) {
	u.t.Helper()
	spans := append(u.client.Observer().Snapshot(), u.server.Observer().Snapshot()...)
	var id uint64
	for _, sp := range spans {
		if sp.Kind == obs.KindDispatch && sp.Node == "server" {
			id = sp.TraceID
		}
	}
	var tree []obs.Span
	byKind := map[string]obs.Span{}
	for _, sp := range spans {
		if sp.TraceID == id {
			tree = append(tree, sp)
			if sp.Node == "server" {
				byKind[sp.Kind] = sp
			}
		}
	}
	return obs.FormatForest(tree), byKind
}

// chain checks that the server's spans nest dispatch → kinds..., each
// the child of the one before, and that nothing else is there.
func chain(t *testing.T, tree string, byKind map[string]obs.Span, kinds ...string) {
	t.Helper()
	parent := byKind["rpc.dispatch"]
	for _, k := range kinds {
		sp, ok := byKind[k]
		if !ok || sp.ParentID != parent.SpanID || sp.Name != "credit" {
			t.Fatalf("no %s span named credit under %s:\n%s", k, parent.Kind, tree)
		}
		parent = sp
	}
	if len(byKind) != len(kinds)+1 {
		t.Fatalf("server spans %d, want dispatch and %v:\n%s", len(byKind), kinds, tree)
	}
}

// stagedTree is the trace of one signed call on allMechanisms(): the
// stub, the send and its ack on the client, the dispatch and the four
// stages nested in weave order on the server.
const stagedTree = `trace e918000000000001
  stub credit@client [e918000000000001/e918000000000001] 1991-10-07T00:00:00Z +0s
    rpc.send credit@client [e918000000000001/e918000000000002] 1991-10-07T00:00:00Z +0s
      rpc.dispatch credit@server [e918000000000001/caba000000000001] 1991-10-07T00:00:00Z +0s
        security.guard credit@server [e918000000000001/caba000000000002] 1991-10-07T00:00:00Z +0s
          gc.lease credit@server [e918000000000001/caba000000000003] 1991-10-07T00:00:00Z +0s
            migrate.gate credit@server [e918000000000001/caba000000000004] 1991-10-07T00:00:00Z +0s
              migrate.recovery credit@server [e918000000000001/caba000000000005] 1991-10-07T00:00:00Z +0s
      rpc.ack credit@client [e918000000000001/e918000000000004] 1991-10-07T00:00:00Z +0s
`

// TestStagesTraceEveryMechanism: a sampled, signed call on
// allMechanisms() shows the guard, the lease, the gate and the recovery
// log as spans nested in weave order under the dispatch, the same tree
// on every run; an unsigned call's tree ends at the guard, and each
// stage exports its calls and errors.
func TestStagesTraceEveryMechanism(t *testing.T) {
	u := newStageUniverse(t, &ledger{}, nil)
	if err := u.call(true); err != nil {
		t.Fatalf("signed call: %v", err)
	}
	tree, byKind := u.trace()
	chain(t, tree, byKind, "security.guard", "gc.lease", "migrate.gate", "migrate.recovery")
	if tree != stagedTree {
		t.Errorf("signed call's tree:\n%s\nwant:\n%s", tree, stagedTree)
	}

	if err := u.call(false); !errors.Is(err, rpc.ErrDenied) {
		t.Fatalf("unsigned call: %v, want a guard refusal", err)
	}
	tree, byKind = u.trace()
	chain(t, tree, byKind, "security.guard")
	rec := u.server.Gather()
	for key, want := range map[string]uint64{
		"security.guard.calls": 2, "security.guard.errors": 1,
		"gc.lease.calls": 1, "gc.lease.errors": 0,
		"migrate.gate.calls": 1, "migrate.recovery.calls": 1,
	} {
		if rec[key] != want {
			t.Errorf("%s = %v, want %d", key, rec[key], want)
		}
	}
}

// failingLedger is a ledger whose every call fails in the servant.
type failingLedger struct{ ledger }

func (l *failingLedger) Dispatch(context.Context, string, []wire.Value) (string, []wire.Value, error) {
	return "", nil, errors.New("ledger: closed")
}

// TestGuardRefusalsExported: the guard stage's errors count every call
// that failed beneath it, a servant's error too; security.guard.rejected
// counts only the credentials the node's guards refused, and only those
// of the objects published: a Publish that fails counts no guard.
func TestGuardRefusalsExported(t *testing.T) {
	u := newStageUniverse(t, &failingLedger{}, nil)
	exported := func(errs, rejected uint64) {
		t.Helper()
		rec := u.server.Gather()
		if rec["security.guard.errors"] != errs || rec["security.guard.rejected"] != rejected {
			t.Fatalf("security.guard.errors = %v, rejected = %v; want %d and %d",
				rec["security.guard.errors"], rec["security.guard.rejected"], errs, rejected)
		}
	}
	if err := u.call(true); err == nil || errors.Is(err, rpc.ErrDenied) {
		t.Fatalf("signed call: %v, want the servant's error", err)
	}
	exported(1, 0)
	if err := u.call(false); !errors.Is(err, rpc.ErrDenied) {
		t.Fatalf("unsigned call: %v, want a guard refusal", err)
	}
	exported(2, 1)
	if _, err := u.server.Publish("woven", Object{Servant: &failingLedger{}, Type: ledgerType(), Env: allMechanisms()}); err == nil {
		t.Fatal("an id published twice")
	}
	if n := len(u.server.guards); n != 1 {
		t.Fatalf("%d guards counted after a Publish that failed, want 1", n)
	}
}

// heldLedger is a ledger whose snapshot, taken while a move has its gate
// quiesced, lasts hold of virtual time and then fails, so the move
// aborts and the calls it held go on.
type heldLedger struct {
	ledger
	s         *sim.Sim
	hold      time.Duration
	quiescing chan struct{}
}

func (l *heldLedger) Snapshot() ([]byte, error) {
	close(l.quiescing)
	l.s.Clock.Sleep(l.hold)
	return nil, errors.New("snapshot refused")
}

// TestGateWaitIsGateSelfTime: a call that arrives while a move has the
// object's gate quiesced waits there, and its trace shows the wait as
// the migrate.gate span's own time: the recovery log under it starts
// when the gate reopens.
func TestGateWaitIsGateSelfTime(t *testing.T) {
	const hold = 5 * time.Millisecond
	l := &heldLedger{hold: hold, quiescing: make(chan struct{})}
	u := newStageUniverse(t, l, nil)
	l.s = u.s
	moved := make(chan error, 1)
	go func() {
		_, err := u.server.Mover.Migrate(context.Background(), "woven", u.client.Mover.AcceptorRef())
		moved <- err
	}()
	<-l.quiescing
	if err := u.call(true); err != nil {
		t.Fatalf("held call: %v", err)
	}
	if err := <-moved; err == nil || !strings.Contains(err.Error(), "snapshot refused") {
		t.Fatalf("move: %v, want the snapshot's refusal", err)
	}
	tree, byKind := u.trace()
	chain(t, tree, byKind, "security.guard", "gc.lease", "migrate.gate", "migrate.recovery")
	gate, log := byKind["migrate.gate"], byKind["migrate.recovery"]
	if self := gate.Duration() - log.Duration(); self != hold || !log.Start.Equal(gate.Start.Add(hold)) {
		t.Fatalf("gate self time %v, recovery starting %v after the gate, want %v both:\n%s",
			self, log.Start.Sub(gate.Start), hold, tree)
	}
}

// TestSampledStagesShareTheirReads: on a plain object, a sampled
// co-located call reads the clock 4 times — the stub's two and the
// bypass's two, each shared by its span and its histogram — and a
// sampled remote call reads the server's twice, for the dispatch. Each
// read its span's instants apart from the histogram's before: 6 and 4.
func TestSampledStagesShareTheirReads(t *testing.T) {
	var sclk *countingClock
	u := newStageUniverse(t, &ledger{}, func(c clock.Clock) clock.Clock {
		sclk = &countingClock{Clock: c}
		return sclk
	})
	ref, err := u.server.Publish("plain", Object{Servant: &ledger{}, Type: ledgerType()})
	if err != nil {
		t.Fatal(err)
	}
	before := sclk.reads.Load()
	if _, err := u.server.Bind(ref).Call(context.Background(), "credit", int64(1)); err != nil {
		t.Fatal(err)
	}
	if n := sclk.reads.Load() - before; n != 4 {
		t.Errorf("a sampled co-located call read the clock %d times, want 4", n)
	}
	u.ref = ref
	before = sclk.reads.Load()
	if err := u.call(false); err != nil {
		t.Fatal(err)
	}
	if n := sclk.reads.Load() - before; n != 2 {
		t.Errorf("a sampled remote dispatch read the server's clock %d times, want 2", n)
	}
	if _, byKind := u.trace(); len(byKind) != 1 {
		t.Errorf("the remote call left server spans %v, want its dispatch alone", byKind)
	}
}

// TestSampledSendSharesItsReads: a sampled remote call reads the
// client's clock twice under the rpc client's Call — the send stage's
// begin and end, each shared by its span and its histogram — as an
// unsampled one does. A send span read its instants apart from the
// latency's stamps before: 4.
func TestSampledSendSharesItsReads(t *testing.T) {
	var cclk *countingClock
	u := newStageUniverseOn(t, &ledger{}, nil, func(c clock.Clock) clock.Clock {
		cclk = &countingClock{Clock: c}
		return cclk
	})
	ref, err := u.server.Publish("plain", Object{Servant: &ledger{}, Type: ledgerType()})
	if err != nil {
		t.Fatal(err)
	}
	u.ref = ref
	for _, every := range []uint64{1, 0} {
		u.client.Observer().SetSampleEvery(every)
		before := cclk.sends.Load()
		if err := u.call(false); err != nil {
			t.Fatal(err)
		}
		if n := cclk.sends.Load() - before; n != 2 {
			t.Errorf("a remote call sampling one in %d read the client's clock %d times under its send, want 2", every, n)
		}
	}
	var sends int
	for _, sp := range u.client.Observer().Snapshot() {
		if sp.Kind == obs.KindSend && sp.Name == "credit" {
			sends++
		}
	}
	if sends != 1 {
		t.Errorf("%d send spans, want the sampled call's alone", sends)
	}
}

// TestRootKindsSampleTheirOwnPasses: with one trace in n sampled, a
// client making 60 serial calls roots exactly 60/n stub traces, and its
// coalescer's flush roots one in n of its batch writes: each root kind
// draws from its own passes, so the flush takes none of the
// invocations' decisions.
func TestRootKindsSampleTheirOwnPasses(t *testing.T) {
	const calls = 60
	for _, n := range []uint64{2, 4} {
		t.Run(fmt.Sprintf("one in %d", n), func(t *testing.T) {
			e := newCoreEnv(t)
			server := e.platform("server")
			client := e.platform("client", WithRelocator(server.RelocRef), WithTracing(obs.WithSampleEvery(n)))
			ref, err := server.Publish("ledger", Object{Servant: &ledger{}, Type: ledgerType()})
			if err != nil {
				t.Fatal(err)
			}
			proxy := client.Bind(ref)
			for i := 0; i < calls; i++ {
				if _, err := proxy.Call(context.Background(), "credit", int64(1)); err != nil {
					t.Fatal(err)
				}
			}
			var stubs, flushes, batches uint64
			waitFor(t, "the client's batch writes to settle", func() bool {
				before := client.coalescer.BatchStats().BatchesSent
				stubs, flushes = 0, 0
				for _, sp := range client.Observer().Snapshot() {
					switch sp.Kind {
					case obs.KindStub:
						stubs++
					case obs.KindFlush:
						flushes++
					}
				}
				batches = client.coalescer.BatchStats().BatchesSent
				return batches == before
			})
			if stubs != calls/n {
				t.Errorf("%d of %d calls sampled, want %d", stubs, calls, calls/n)
			}
			if want := (batches + n - 1) / n; flushes != want {
				t.Errorf("%d of %d batch writes sampled, want %d", flushes, batches, want)
			}
			if st := client.Observer().Stats(); st.Roots != calls+batches {
				t.Errorf("%d root decisions, want one a call and one a batch write: %d", st.Roots, calls+batches)
			}
		})
	}
}

// TestManagedStageCountsCallsAndErrors: a Managed prefix exports nothing
// before its first call, then its calls and the last call's interval
// from the dispatch instant, and its errors from the first error.
func TestManagedStageCountsCallsAndErrors(t *testing.T) {
	p := newCoreEnv(t).platform("n")
	var fail atomic.Bool
	ref, err := p.Publish("svc", Object{
		Servant: capsule.ServantFunc(func(context.Context, string, []wire.Value) (string, []wire.Value, error) {
			if fail.Load() {
				return "", nil, errors.New("boom")
			}
			time.Sleep(time.Millisecond)
			return "ok", nil, nil
		}),
		Env: Env{Managed: &ManagedSpec{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	exported := func() wire.Record {
		rec := wire.Record{}
		for k, v := range p.Gather() {
			if strings.HasPrefix(k, "registry.") {
				rec[k] = v
			}
		}
		return rec
	}
	if rec := exported(); len(rec) != 0 {
		t.Fatalf("an idle prefix exports %v", rec)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := p.Bind(ref).Call(ctx, "work"); err != nil {
			t.Fatal(err)
		}
	}
	rec := exported()
	if _, ok := rec["registry.c.svc.errors"]; ok || len(rec) != 2 || rec["registry.c.svc.calls"] != uint64(3) {
		t.Fatalf("after three good calls the prefix exports %v, want calls and last_us", rec)
	}
	if us, _ := rec["registry.g.svc.last_us"].(float64); us < 1000 {
		t.Fatalf("last_us = %v after a 1ms dispatch", rec["registry.g.svc.last_us"])
	}
	fail.Store(true)
	_, _ = p.Bind(ref).Call(ctx, "work")
	rec = exported()
	if rec["registry.c.svc.calls"] != uint64(4) || rec["registry.c.svc.errors"] != uint64(1) {
		t.Fatalf("calls=%v errors=%v", rec["registry.c.svc.calls"], rec["registry.c.svc.errors"])
	}
}
