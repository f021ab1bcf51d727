package odp_test

// Allocation gate for the woven hot path: an object published Managed,
// Leased, Recoverable and Secured, called through a signed proxy — what
// loop_woven measures — may cost at most wovenE1AllocBudget allocations.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"odp"
)

// wovenE1AllocBudget is the woven call's ceiling. It costs 9: the same
// put on a bare object costs 4, and the four interceptors and the signer
// add 5, site by site:
//   - the signer: the credential, its boxing and the signed argument
//     vector (3);
//   - the credential's header at the server (1 — its bytes ride in the
//     slab the other arguments already pay for);
//   - the principal's context (1 — the valueCtx; the principal itself is
//     a pointer into the guard's long-lived key);
//   - the recovery-log record (0 — the store appends it into the log's
//     one byte stream);
//   - the log's and the replay window's growth, amortised (under 1).
//
// They added 59 before the guard stopped rebuilding its MAC state and
// its credential record on every call, and 7 while the principal was
// boxed and the store copied each record; the woven call cost 15 before
// the server's call rows were reused. A row or a cached reply allocated
// per call again fails here.
const wovenE1AllocBudget = 11

func TestWovenE1AllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are skewed under -race: sync.Pool drops puts by design")
	}
	server, client, e1 := e1Pair(t)
	secret := []byte("gate secret")
	server.Keys.Share("gate", secret)

	wovenRef, err := server.Publish("woven", odp.Object{Servant: newVault(), Env: odp.Env{
		Managed:     &odp.ManagedSpec{},
		Leased:      &odp.LeaseSpec{},
		Recoverable: &odp.RecoverSpec{},
		Secured: &odp.SecureSpec{
			Policy:  odp.Policy{Rules: []odp.Rule{{Principal: "gate", Op: "*", Allow: true}}},
			MaxSkew: 2 * time.Second,
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	qos := odp.QoS{Timeout: 30 * time.Second}
	ctx := context.Background()
	proxy := client.Bind(wovenRef).WithQoS(qos).WithSigner(odp.NewSigner("gate", secret))
	call := e1(func() error {
		out, err := proxy.Call(ctx, "put", "k", int64(1))
		if err == nil && out.Name != "ok" {
			err = fmt.Errorf("put: outcome %q", out.Name)
		}
		return err
	})
	settleE1(call)
	woven := minAllocsPerRun(200, call)

	// The unsigned proxy must be refused, or the woven figure is not the
	// guard's.
	if _, err := client.Bind(wovenRef).WithQoS(qos).Call(ctx, "put", "k", int64(1)); err == nil {
		t.Fatal("unsigned call to the woven object was admitted")
	}
	if woven > wovenE1AllocBudget {
		t.Fatalf("woven E1 allocates %.1f/op, budget <= %d", woven, wovenE1AllocBudget)
	}
	t.Logf("woven E1: %.1f allocs/op (budget <= %d)", woven, wovenE1AllocBudget)
}

// unguardedE1AllocBudget is the ceiling of a put on an object published
// Managed and Leased, with no guard: the bare put's 4 and nothing more.
// Instrumentation and the lease stamp read the dispatch instant the
// invocation carries by value, so a chain without a guard gains no
// context, no carrier and no allocation on the way down.
const unguardedE1AllocBudget = 4

func TestUnguardedE1AllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are skewed under -race: sync.Pool drops puts by design")
	}
	server, client, e1 := e1Pair(t)
	ref, err := server.Publish("metered", odp.Object{Servant: newVault(), Env: odp.Env{
		Managed: &odp.ManagedSpec{},
		Leased:  &odp.LeaseSpec{},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	proxy := client.Bind(ref).WithQoS(odp.QoS{Timeout: 30 * time.Second})
	call := e1(func() error {
		out, err := proxy.Call(ctx, "put", "k", int64(1))
		if err == nil && out.Name != "ok" {
			err = fmt.Errorf("put: outcome %q", out.Name)
		}
		return err
	})
	settleE1(call)
	allocs := minAllocsPerRun(200, call)
	if allocs > unguardedE1AllocBudget {
		t.Fatalf("Managed+Leased E1 allocates %.1f/op, budget <= %d", allocs, unguardedE1AllocBudget)
	}
	t.Logf("Managed+Leased E1: %.1f allocs/op (budget <= %d)", allocs, unguardedE1AllocBudget)
}
