package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"odp/internal/clock"
	"odp/internal/migrate"
	"odp/internal/rpc"
	"odp/internal/security"
	"odp/internal/txn"
	"odp/internal/wire"
)

// stackRig is one published object on its own platform, driven by
// co-located calls (the full woven chain, no protocol stack) on a fake
// clock, so lease activity can be probed without sleeping.
type stackRig struct {
	t     *testing.T
	p     *Platform
	clk   *clock.Fake
	id    string
	ref   wire.Ref
	env   Env
	alice *security.Signer
}

const stackGrace = time.Second

// call makes one call as a client of this object would: signed when the
// object was published Secured.
func (r *stackRig) call(op string, args ...wire.Value) (Outcome, error) {
	pr := r.p.Bind(r.ref)
	if r.env.Secured != nil {
		pr = pr.WithSigner(r.alice)
	}
	return pr.Call(context.Background(), op, args...)
}

func (r *stackRig) mustCall(op string, args ...wire.Value) Outcome {
	r.t.Helper()
	out, err := r.call(op, args...)
	if err != nil || !out.Is("ok") {
		r.t.Fatalf("%s: %+v %v", op, out, err)
	}
	return out
}

func (r *stackRig) logLen() int {
	recs, err := r.p.Store.ReadLog("oplog/" + r.id)
	if err != nil {
		r.t.Fatal(err)
	}
	return len(recs)
}

// stackProbe is one Env field: how to request it and how to tell, from
// what the path does, whether its mechanism is on the path.
type stackProbe struct {
	name string
	set  func(*Env)
	on   func(*stackRig) bool
}

// managedCalls reads the exported call count of a Managed metric prefix
// (zero before its first call).
func managedCalls(p *Platform, prefix string) uint64 {
	n, _ := p.Gather()["registry.c."+prefix+".calls"].(uint64)
	return n
}

// stackProbes lists the Env fields in path order, outermost first.
// Movable is last: its probe is the passivation round trip itself.
func stackProbes() []stackProbe {
	allow := security.Policy{Rules: []security.Rule{{Principal: "alice", Op: "*", Allow: true}}}
	return []stackProbe{
		{"managed", func(e *Env) { e.Managed = &ManagedSpec{} }, func(r *stackRig) bool {
			// The metric prefix defaults to the id.
			before := managedCalls(r.p, r.id)
			r.mustCall("balance")
			return managedCalls(r.p, r.id) == before+1
		}},
		{"secured", func(e *Env) { e.Secured = &SecureSpec{Policy: allow} }, func(r *stackRig) bool {
			_, err := r.p.Bind(r.ref).Call(context.Background(), "balance")
			if err != nil && !errors.Is(err, rpc.ErrDenied) {
				r.t.Fatalf("unsigned call: %v", err)
			}
			return err != nil
		}},
		{"leased", func(e *Env) { e.Leased = &LeaseSpec{} }, func(r *stackRig) bool {
			if r.p.Collector.Renew(r.id, "probe", 0) != nil {
				return false // not tracked
			}
			// Tracked; on the path if a call counts as activity.
			r.clk.Advance(2 * stackGrace)
			r.mustCall("balance")
			for _, id := range r.p.Collector.Sweep() {
				if id == r.id {
					r.t.Fatal("tracked, but a call did not count as activity: the lease layer is off the path")
				}
			}
			return true
		}},
		{"recoverable", func(e *Env) { e.Recoverable = &RecoverSpec{ReadOnly: ledgerReadOnly} }, func(r *stackRig) bool {
			n := r.logLen()
			r.mustCall("credit", int64(1))
			logged := r.logLen() - n
			r.mustCall("balance")
			if logged > 1 || r.logLen() != n+logged {
				r.t.Fatalf("credit appended %d records, balance %d: want 1 and 0", logged, r.logLen()-n-logged)
			}
			return logged == 1
		}},
		{"atomic", func(e *Env) { e.Atomic = &AtomicSpec{Separation: txn.Separation{ReadOnly: ledgerReadOnly}} }, func(r *stackRig) bool {
			// Only a transactional resource answers its control operations.
			_, err := r.call(txn.OpAbort, "probe-txn")
			return err == nil
		}},
		{"movable", func(e *Env) { e.Movable = true }, func(r *stackRig) bool {
			return r.p.Mover.Passivate(r.id) == nil
		}},
	}
}

// TestWeaverSelectiveStacking is E15 by behaviour: for every combination
// of Env fields, each requested mechanism is on the object's access path
// and each unrequested one is not — at Publish, and again after a
// passivation round trip on the object's own node, which re-weaves it.
// Subtests are named by their fields in path order; "none" is the empty
// Env and "full" the widest one that publishes (all but Atomic).
func TestWeaverSelectiveStacking(t *testing.T) {
	probes := stackProbes()
	if n := reflect.TypeOf(Env{}).NumField(); len(probes) != n {
		t.Fatalf("%d probes for %d Env fields: a new constraint needs a probe", len(probes), n)
	}
	all := 1<<len(probes) - 1
	for mask := 0; mask <= all; mask++ {
		var env Env
		var names []string
		for i, pr := range probes {
			if mask&(1<<i) != 0 {
				pr.set(&env)
				names = append(names, pr.name)
			}
		}
		name := strings.Join(names, "+")
		switch {
		case mask == 0:
			name = "none"
		case env.Atomic == nil && len(names) == len(probes)-1:
			name = "full"
		}
		t.Run(name, func(t *testing.T) {
			clk := clock.NewFake(time.Unix(1000, 0))
			e := newCoreEnv(t)
			r := &stackRig{
				t:     t,
				p:     e.platform("server", WithClock(clk), WithGCGrace(stackGrace)),
				clk:   clk,
				id:    "obj",
				env:   env,
				alice: security.NewSigner("alice", []byte("k")),
			}
			r.p.Keys.Share("alice", []byte("k"))
			r.p.Mover.RegisterFactory("Ledger", func() migrate.Servant { return &ledger{} })
			var err error
			r.ref, err = r.p.Publish(r.id, Object{Servant: &ledger{balance: 1}, Type: ledgerType(), Env: env})
			switch {
			case env.Atomic != nil && env.Recoverable != nil:
				if !errors.Is(err, ErrEnvConflict) {
					t.Fatalf("Atomic+Recoverable: want ErrEnvConflict, got %v", err)
				}
				return
			case env.Atomic != nil && env.Movable:
				if !errors.Is(err, ErrNeedsSnapshot) {
					t.Fatalf("Atomic+Movable: want ErrNeedsSnapshot, got %v", err)
				}
				return
			case err != nil:
				t.Fatal(err)
			}
			check := func(round string) {
				t.Helper()
				for i, pr := range probes[:len(probes)-1] {
					if want := mask&(1<<i) != 0; pr.on(r) != want {
						t.Fatalf("%s: %s on the path = %v, want %v", round, pr.name, !want, want)
					}
				}
			}
			check("at publish")
			movable := env.Movable || env.Recoverable != nil
			if probes[len(probes)-1].on(r) != movable {
				t.Fatalf("passivation succeeded = %v, want %v", !movable, movable)
			}
			if !movable {
				return
			}
			check("after reactivation")
			// State crossed the round trip: 1, plus the recoverable
			// probe's credit in each round.
			if n, _ := r.mustCall("balance").Int(0); n != 3 {
				t.Fatalf("balance after reactivation %d, want 3", n)
			}
		})
	}
}

// vaultRig publishes a Secured+Managed+Recoverable ledger, "vault", on a
// server platform and returns both platforms, its reference and the
// signer its policy admits.
func vaultRig(t *testing.T) (server, client *Platform, ref wire.Ref, alice *security.Signer) {
	t.Helper()
	e := newCoreEnv(t)
	server = e.platform("server")
	client = e.platform("client", WithRelocator(server.RelocRef))
	server.Keys.Share("alice", []byte("k"))
	server.Mover.RegisterFactory("Ledger", func() migrate.Servant { return &ledger{} })
	ref, err := server.Publish("vault", Object{
		Servant: &ledger{},
		Type:    ledgerType(),
		Env: Env{
			Secured: &SecureSpec{Policy: security.Policy{Rules: []security.Rule{
				{Principal: "alice", Op: "*", Allow: true},
			}}},
			Managed:     &ManagedSpec{MetricPrefix: "vault"},
			Recoverable: &RecoverSpec{ReadOnly: ledgerReadOnly},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return server, client, ref, security.NewSigner("alice", []byte("k"))
}

// TestPassivationKeepsTheWovenPath: an object passivated and reactivated
// on the node that published it comes back with every mechanism it was
// published with — the guard, the instrumentation, the log's read-only
// set — not only the gate, the log and the type check.
func TestPassivationKeepsTheWovenPath(t *testing.T) {
	server, client, ref, alice := vaultRig(t)
	ctx := context.Background()
	if _, err := client.Bind(ref).WithSigner(alice).Call(ctx, "credit", int64(5)); err != nil {
		t.Fatal(err)
	}
	if err := server.Mover.Passivate("vault"); err != nil {
		t.Fatal(err)
	}
	// This call reactivates the object; the guard must be back.
	if _, err := client.Bind(ref).Call(ctx, "balance"); !errors.Is(err, rpc.ErrDenied) {
		t.Fatalf("unsigned call after reactivation: want ErrDenied, got %v", err)
	}
	calls := managedCalls(server, "vault")
	logged, _ := server.Store.ReadLog("oplog/vault")
	out, err := client.Bind(ref).WithSigner(alice).Call(ctx, "balance")
	if err != nil || !out.Is("ok") {
		t.Fatalf("signed call after reactivation: %+v %v", out, err)
	}
	if n, _ := out.Int(0); n != 5 {
		t.Fatalf("balance %d, want 5", n)
	}
	if got := managedCalls(server, "vault"); got != calls+1 {
		t.Fatalf("vault.calls %d after one more call, want %d", got, calls+1)
	}
	if after, _ := server.Store.ReadLog("oplog/vault"); len(after) != len(logged) {
		t.Fatalf("read-only balance appended %d log records", len(after)-len(logged))
	}
}

// TestPassivationKeepsTheReplayWindow: the reactivated object has the
// same guard, so a credential it admitted before passivation stays spent.
// The calls are co-located so the guard's reason survives in the error.
func TestPassivationKeepsTheReplayWindow(t *testing.T) {
	server, _, ref, alice := vaultRig(t)
	ctx := context.Background()
	signed, err := alice.Wrap("credit", []wire.Value{int64(1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := server.Capsule.Invoke(ctx, ref, "credit", signed); err != nil {
		t.Fatal(err)
	}
	if err := server.Mover.Passivate("vault"); err != nil {
		t.Fatal(err)
	}
	_, _, err = server.Capsule.Invoke(ctx, ref, "credit", signed)
	if !errors.Is(err, rpc.ErrDenied) || !strings.Contains(err.Error(), security.ErrReplay.Error()) {
		t.Fatalf("replayed credential after reactivation: want %v, got %v", security.ErrReplay, err)
	}
}

// TestPassivationKeepsLeases: a lease renewed before a passivation still
// protects the object once the next call has reactivated it.
func TestPassivationKeepsLeases(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	e := newCoreEnv(t)
	p := e.platform("server", WithClock(clk), WithGCGrace(stackGrace))
	p.Mover.RegisterFactory("Ledger", func() migrate.Servant { return &ledger{} })
	ref, err := p.Publish("held", Object{
		Servant: &ledger{},
		Type:    ledgerType(),
		Env:     Env{Movable: true, Leased: &LeaseSpec{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Collector.Renew("held", "client-1", time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := p.Mover.Passivate("held"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Bind(ref).Call(context.Background(), "balance"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * stackGrace)
	if victims := p.Collector.Sweep(); len(victims) != 0 {
		t.Fatalf("leased object collected after reactivation: %v", victims)
	}
}
