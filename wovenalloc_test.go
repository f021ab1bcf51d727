package odp_test

// Allocation gate for the woven hot path: an object published Managed,
// Leased, Recoverable and Secured, called through a signed proxy — what
// loop_woven measures — may cost at most wovenE1AllocExtra allocations
// more than the same call on a bare object between the same platforms.

import (
	"context"
	"testing"
	"time"

	"odp"
)

// wovenE1AllocExtra is what the four interceptors and the signer may add
// to a packed E1 call. They add 5, site by site:
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
// boxed and the store copied each record.
const wovenE1AllocExtra = 6

// wovenE1AllocBudget is the woven call's own ceiling: it costs 10 (12
// before the principal went unboxed and the log record uncopied, 15
// before the server's call rows were reused), so a row or a cached reply
// allocated per call again fails here even if the bare call pays it too.
const wovenE1AllocBudget = 11

func TestWovenE1AllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are skewed under -race: sync.Pool drops puts by design")
	}
	server, client := coalescedPair(t)
	secret := []byte("gate secret")
	server.Keys.Share("gate", secret)

	bareRef, err := server.Publish("bare", odp.Object{Servant: newVault()})
	if err != nil {
		t.Fatal(err)
	}
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
	measure := func(proxy *odp.Proxy) float64 {
		call := func() {
			if out, err := proxy.Call(ctx, "put", "k", int64(1)); err != nil || out.Name != "ok" {
				t.Fatalf("put: %q %v", out.Name, err)
			}
		}
		settleE1(call)
		return minAllocsPerRun(200, call)
	}
	bare := measure(client.Bind(bareRef).WithQoS(qos))
	woven := measure(client.Bind(wovenRef).WithQoS(qos).WithSigner(odp.NewSigner("gate", secret)))

	// The unsigned proxy must be refused, or the woven figure is not the
	// guard's.
	if _, err := client.Bind(wovenRef).WithQoS(qos).Call(ctx, "put", "k", int64(1)); err == nil {
		t.Fatal("unsigned call to the woven object was admitted")
	}
	if woven > bare+wovenE1AllocExtra {
		t.Fatalf("woven E1 allocates %.1f/op, bare %.1f/op: the interceptors may add at most %d", woven, bare, wovenE1AllocExtra)
	}
	if woven > wovenE1AllocBudget {
		t.Fatalf("woven E1 allocates %.1f/op, budget <= %d", woven, wovenE1AllocBudget)
	}
	t.Logf("woven E1: %.1f allocs/op (budget <= %d), bare %.1f (may add %d)", woven, wovenE1AllocBudget, bare, wovenE1AllocExtra)
}
