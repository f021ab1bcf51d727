package security

import (
	"context"
	"errors"
	"fmt"
	"odp/internal/transport"
	"sync"
	"testing"
	"time"

	"odp/internal/capsule"
	"odp/internal/clock"
	"odp/internal/netsim"
	"odp/internal/rpc"
	"odp/internal/wire"
)

var codec = wire.PackedCodec{}

// vault is a servant that records who accessed it.
type vault struct {
	mu       sync.Mutex
	contents string
	accesses []string
}

func (v *vault) Dispatch(ctx context.Context, op string, args []wire.Value) (string, []wire.Value, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	who, _ := PrincipalFrom(ctx)
	v.accesses = append(v.accesses, who+":"+op)
	switch op {
	case "read":
		return "ok", []wire.Value{v.contents}, nil
	case "write":
		v.contents, _ = args[0].(string)
		return "ok", nil, nil
	default:
		return "", nil, fmt.Errorf("vault: no op %q", op)
	}
}

func (v *vault) contentsNow() string {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.contents
}

func (v *vault) accessesNow() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	return append([]string(nil), v.accesses...)
}

type secEnv struct {
	t      *testing.T
	server *capsule.Capsule
	client *capsule.Capsule
	keys   *Keyring
	vault  *vault
	ref    wire.Ref
	guard  *Guard
}

func defaultPolicy() Policy {
	return Policy{Rules: []Rule{
		{Principal: "alice", Op: "*", Allow: true},
		{Principal: "bob", Op: "read", Allow: true},
	}}
}

func newSecEnv(t *testing.T, policy Policy) *secEnv {
	t.Helper()
	f := netsim.NewFabric()
	t.Cleanup(func() { _ = f.Close() })
	sep, err := f.Endpoint("server")
	if err != nil {
		t.Fatal(err)
	}
	cep, err := f.Endpoint("client")
	if err != nil {
		t.Fatal(err)
	}
	server := capsule.New("server", transport.NewCoalescer(sep, clock.Real{}, nil), codec)
	client := capsule.New("client", transport.NewCoalescer(cep, clock.Real{}, nil), codec)
	t.Cleanup(func() { _ = server.Close(); _ = client.Close() })

	keys := NewKeyring()
	keys.Share("alice", []byte("alice-secret"))
	keys.Share("bob", []byte("bob-secret"))

	v := &vault{contents: "initial"}
	guard := NewGuard(keys, policy, time.Minute)
	ref, err := server.Export(v,
		capsule.WithID("vault"),
		capsule.WithInterceptors(guard.AsInterceptor()))
	if err != nil {
		t.Fatal(err)
	}
	return &secEnv{t: t, server: server, client: client, keys: keys, vault: v, ref: ref, guard: guard}
}

func TestAuthenticatedInvoke(t *testing.T) {
	e := newSecEnv(t, defaultPolicy())
	alice := NewSigner("alice", []byte("alice-secret"))
	ctx := context.Background()
	outcome, _, err := alice.Invoke(ctx, e.client, e.ref, "write", []wire.Value{"new contents"})
	if err != nil || outcome != "ok" {
		t.Fatalf("write: %q %v", outcome, err)
	}
	outcome, res, err := alice.Invoke(ctx, e.client, e.ref, "read", nil)
	if err != nil || outcome != "ok" || res[0] != "new contents" {
		t.Fatalf("read: %q %v %v", outcome, res, err)
	}
	// The servant sees the authenticated principal.
	acc := e.vault.accessesNow()
	if len(acc) != 2 || acc[0] != "alice:write" {
		t.Fatalf("accesses %v", acc)
	}
}

func TestPolicyDenies(t *testing.T) {
	e := newSecEnv(t, defaultPolicy())
	bob := NewSigner("bob", []byte("bob-secret"))
	ctx := context.Background()
	// bob may read...
	if outcome, _, err := bob.Invoke(ctx, e.client, e.ref, "read", nil); err != nil || outcome != "ok" {
		t.Fatalf("bob read: %q %v", outcome, err)
	}
	// ...but not write.
	_, _, err := bob.Invoke(ctx, e.client, e.ref, "write", []wire.Value{"graffiti"})
	if !errors.Is(err, rpc.ErrDenied) {
		t.Fatalf("bob write: want ErrDenied, got %v", err)
	}
	if e.vault.contentsNow() != "initial" {
		t.Fatal("denied write mutated state")
	}
}

func TestUnauthenticatedRejected(t *testing.T) {
	e := newSecEnv(t, defaultPolicy())
	_, _, err := e.client.Invoke(context.Background(), e.ref, "read", nil)
	if !errors.Is(err, rpc.ErrDenied) {
		t.Fatalf("bare invoke: want ErrDenied, got %v", err)
	}
	if len(e.vault.accessesNow()) != 0 {
		t.Fatal("unauthenticated invocation reached the servant")
	}
}

func TestWrongSecretRejected(t *testing.T) {
	e := newSecEnv(t, defaultPolicy())
	mallory := NewSigner("alice", []byte("guessed-secret"))
	_, _, err := mallory.Invoke(context.Background(), e.client, e.ref, "read", nil)
	if !errors.Is(err, rpc.ErrDenied) {
		t.Fatalf("forged credential: want ErrDenied, got %v", err)
	}
}

func TestUnknownPrincipalRejected(t *testing.T) {
	e := newSecEnv(t, defaultPolicy())
	eve := NewSigner("eve", []byte("whatever"))
	_, _, err := eve.Invoke(context.Background(), e.client, e.ref, "read", nil)
	if !errors.Is(err, rpc.ErrDenied) {
		t.Fatalf("unknown principal: want ErrDenied, got %v", err)
	}
}

func TestTamperedArgumentsRejected(t *testing.T) {
	e := newSecEnv(t, defaultPolicy())
	alice := NewSigner("alice", []byte("alice-secret"))
	wrapped, err := alice.Wrap("write", []wire.Value{"honest value"})
	if err != nil {
		t.Fatal(err)
	}
	// A man in the middle swaps the argument after signing.
	wrapped[1] = "tampered value"
	_, _, err = e.client.Invoke(context.Background(), e.ref, "write", wrapped)
	if !errors.Is(err, rpc.ErrDenied) {
		t.Fatalf("tampered args: want ErrDenied, got %v", err)
	}
	if e.vault.contentsNow() != "initial" {
		t.Fatal("tampered write applied")
	}
}

func TestCredentialBoundToOperation(t *testing.T) {
	e := newSecEnv(t, defaultPolicy())
	alice := NewSigner("alice", []byte("alice-secret"))
	wrapped, err := alice.Wrap("read", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Replaying a read credential against write must fail.
	_, _, err = e.client.Invoke(context.Background(), e.ref, "write", append(wrapped, "x"))
	if !errors.Is(err, rpc.ErrDenied) {
		t.Fatalf("cross-op replay: want ErrDenied, got %v", err)
	}
}

func TestReplayRejected(t *testing.T) {
	e := newSecEnv(t, defaultPolicy())
	alice := NewSigner("alice", []byte("alice-secret"))
	wrapped, err := alice.Wrap("read", nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if outcome, _, err := e.client.Invoke(ctx, e.ref, "read", wrapped); err != nil || outcome != "ok" {
		t.Fatalf("first use: %q %v", outcome, err)
	}
	if _, _, err := e.client.Invoke(ctx, e.ref, "read", wrapped); !errors.Is(err, rpc.ErrDenied) {
		t.Fatalf("replay: want ErrDenied, got %v", err)
	}
	if e.guard.Stats().Replays != 1 {
		t.Fatalf("replay count %d", e.guard.Stats().Replays)
	}
}

func TestStaleCredentialRejected(t *testing.T) {
	e := newSecEnv(t, defaultPolicy())
	alice := NewSigner("alice", []byte("alice-secret"))
	alice.now = func() time.Time { return time.Now().Add(-10 * time.Minute) }
	_, _, err := alice.Invoke(context.Background(), e.client, e.ref, "read", nil)
	if !errors.Is(err, rpc.ErrDenied) {
		t.Fatalf("stale credential: want ErrDenied, got %v", err)
	}
}

func TestSealedInvocationConfidentialAndWorking(t *testing.T) {
	e := newSecEnv(t, defaultPolicy())
	alice := NewSigner("alice", []byte("alice-secret"))
	alice.Seal = true
	ctx := context.Background()
	secretValue := "the launch codes"
	outcome, _, err := alice.Invoke(ctx, e.client, e.ref, "write", []wire.Value{secretValue})
	if err != nil || outcome != "ok" {
		t.Fatalf("sealed write: %q %v", outcome, err)
	}
	if e.vault.contentsNow() != secretValue {
		t.Fatalf("sealed write lost: %q", e.vault.contentsNow())
	}
	// The wire form must not contain the plaintext.
	wrapped, err := alice.Wrap("write", []wire.Value{secretValue})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := wire.EncodeAll(codec, wrapped)
	if err != nil {
		t.Fatal(err)
	}
	if containsSub(enc, []byte(secretValue)) {
		t.Fatal("sealed payload leaks plaintext")
	}
}

func TestSealedTamperRejected(t *testing.T) {
	e := newSecEnv(t, defaultPolicy())
	alice := NewSigner("alice", []byte("alice-secret"))
	alice.Seal = true
	wrapped, err := alice.Wrap("write", []wire.Value{"x"})
	if err != nil {
		t.Fatal(err)
	}
	cred := wrapped[0].([]byte)
	cred[len(cred)-1] ^= 0xff // the sealed payload ends the credential
	_, _, err = e.client.Invoke(context.Background(), e.ref, "write", wrapped)
	if !errors.Is(err, rpc.ErrDenied) {
		t.Fatalf("tampered sealed payload: want ErrDenied, got %v", err)
	}
}

func TestPolicyEvaluationOrder(t *testing.T) {
	p := Policy{Rules: []Rule{
		{Principal: "alice", Op: "shutdown", Allow: false},
		{Principal: "alice", Op: "*", Allow: true},
		{Principal: "*", Op: "ping", Allow: true},
	}}
	tests := []struct {
		principal, op string
		want          bool
	}{
		{"alice", "shutdown", false},
		{"alice", "read", true},
		{"bob", "ping", true},
		{"bob", "read", false},
		{"eve", "shutdown", false},
	}
	for _, tt := range tests {
		if got := p.Allows(tt.principal, tt.op); got != tt.want {
			t.Errorf("Allows(%s, %s) = %v, want %v", tt.principal, tt.op, got, tt.want)
		}
	}
}

func TestGuardStats(t *testing.T) {
	e := newSecEnv(t, defaultPolicy())
	alice := NewSigner("alice", []byte("alice-secret"))
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, _, err := alice.Invoke(ctx, e.client, e.ref, "read", nil); err != nil {
			t.Fatal(err)
		}
	}
	_, _, _ = e.client.Invoke(ctx, e.ref, "read", nil) // rejected
	st := e.guard.Stats()
	if st.Admitted != 3 || st.Rejected != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func containsSub(haystack, needle []byte) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		match := true
		for j := range needle {
			if haystack[i+j] != needle[j] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

func TestSignedAnnouncementAdmitted(t *testing.T) {
	// Announcements carry credentials too: the guard polices them even
	// though no reply can report a refusal (§5.1/§7.1 interplay).
	e := newSecEnv(t, defaultPolicy())
	alice := NewSigner("alice", []byte("alice-secret"))
	wrapped, err := alice.Wrap("write", []wire.Value{"announced"})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.client.Announce(e.ref, "write", wrapped); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(2 * time.Second)
	for e.vault.contentsNow() != "announced" {
		select {
		case <-deadline:
			t.Fatalf("signed announcement never applied: %q", e.vault.contentsNow())
		case <-time.After(5 * time.Millisecond):
		}
	}
	// An unsigned announcement is silently dropped by the guard.
	if err := e.client.Announce(e.ref, "write", []wire.Value{"rogue"}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if e.vault.contentsNow() == "rogue" {
		t.Fatal("unsigned announcement applied")
	}
}
