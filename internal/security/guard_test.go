package security

import (
	"bytes"
	"errors"
	"strconv"
	"sync"
	"testing"
	"time"

	"odp/internal/wire"
)

// guardRig is a Guard and Signers driven directly, on one settable clock.
type guardRig struct {
	keys  *Keyring
	guard *Guard
	now   time.Time
}

func newGuardRig(skew time.Duration) *guardRig {
	r := &guardRig{keys: NewKeyring(), now: time.Unix(1_700_000_000, 0)}
	r.keys.Share("alice", []byte("alice-secret"))
	r.guard = NewGuard(r.keys, defaultPolicy(), skew)
	r.guard.now = func() time.Time { return r.now }
	return r
}

// signer returns a signer whose clock runs ahead of the guard's.
func (r *guardRig) signer(secret string, ahead time.Duration) *Signer {
	s := NewSigner("alice", []byte(secret))
	s.now = func() time.Time { return r.now.Add(ahead) }
	return s
}

func mustWrap(t *testing.T, s *Signer, op string, args ...wire.Value) []wire.Value {
	t.Helper()
	w, err := s.Wrap(op, args)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// A credential is fresh until its own timestamp plus MaxSkew; the guard
// must remember it that long, not merely MaxSkew from first sight.
func TestReplayRejectedForWholeFreshness(t *testing.T) {
	const skew = time.Second
	r := newGuardRig(skew)
	fast := r.signer("alice-secret", skew-time.Millisecond)
	onTime := r.signer("alice-secret", 0)
	cred := mustWrap(t, fast, "read")
	if _, _, err := r.guard.Admit("read", cred); err != nil {
		t.Fatalf("first use: %v", err)
	}
	// Its freshness ends 2·skew − 1 ms after first sight. Step through
	// it, other traffic passing in between.
	start := r.now
	for step := time.Duration(1); step < 16; step++ {
		r.now = start.Add(step * skew / 8)
		if _, _, err := r.guard.Admit("read", mustWrap(t, onTime, "read")); err != nil {
			t.Fatalf("other traffic at +%v: %v", r.now.Sub(start), err)
		}
		if _, _, err := r.guard.Admit("read", cred); !errors.Is(err, ErrReplay) {
			t.Fatalf("replay at +%v: want ErrReplay, got %v", r.now.Sub(start), err)
		}
	}
	r.now = start.Add(2 * skew)
	if _, _, err := r.guard.Admit("read", cred); !errors.Is(err, ErrStale) {
		t.Fatalf("past its freshness: want ErrStale, got %v", err)
	}
	// The window forgets: one generation per skew of expiry time, and at
	// most three hold anything fresh.
	r.guard.mu.Lock()
	held := len(r.guard.seen)
	r.guard.mu.Unlock()
	if held > 3 {
		t.Fatalf("guard holds %d generations", held)
	}
}

// The MAC input frames the operation: a credential for write("\0\0\0\0")
// must not also authorise the operation whose name runs on into those
// argument bytes with an empty argument list.
func TestCredentialBoundToOperationBoundary(t *testing.T) {
	r := newGuardRig(time.Minute)
	alice := r.signer("alice-secret", 0)
	emptyVector, err := wire.EncodeAll(wire.PackedCodec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	arg := string(emptyVector)
	signed, err := wire.EncodeAll(wire.PackedCodec{}, []wire.Value{arg})
	if err != nil {
		t.Fatal(err)
	}
	shifted := "write" + string(bytes.TrimSuffix(signed, emptyVector))
	cred := mustWrap(t, alice, "write", arg)[:1]
	if _, _, err := r.guard.Admit(shifted, cred); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("shifted op/payload boundary: want ErrBadMAC, got %v", err)
	}
	if _, _, err := r.guard.Admit("write", append(cred, arg)); err != nil {
		t.Fatalf("the invocation that was signed: %v", err)
	}
}

func TestHostileCredentials(t *testing.T) {
	r := newGuardRig(time.Minute)
	alice := r.signer("alice-secret", 0)
	plain := mustWrap(t, alice, "read")[0].([]byte)
	alice.Seal = true
	sealed := mustWrap(t, alice, "read")[0].([]byte)
	principalEnd := credFixed + len("alice")

	mutate := func(cred []byte, f func([]byte)) []byte {
		cp := append([]byte(nil), cred...)
		f(cp)
		return cp
	}
	cases := map[string][]wire.Value{
		"no arguments":       nil,
		"nil":                {nil},
		"record":             {wire.Record{"p": "alice"}},
		"string":             {string(plain)},
		"empty":              {[]byte{}},
		"version 0":          {mutate(plain, func(b []byte) { b[0] = 0 })},
		"version 2":          {mutate(plain, func(b []byte) { b[0] = 2 })},
		"unknown flag":       {mutate(plain, func(b []byte) { b[1] |= 0x80 })},
		"principal overruns": {mutate(plain, func(b []byte) { b[nameOff] = 255 })},
		"trailing byte":      {append(append([]byte(nil), plain...), 0)},
		"unsealed as sealed": {mutate(plain, func(b []byte) { b[1] |= flagSealed })},
		"sealed, no payload": {sealed[:principalEnd]},
		"sealed, short":      {sealed[:principalEnd+sealedMin-1]},
	}
	for at := range plain {
		cases["truncated at "+strconv.Itoa(at)] = []wire.Value{plain[:at]}
	}
	for name, args := range cases {
		if _, _, err := r.guard.Admit("read", args); !errors.Is(err, ErrBadCredential) {
			t.Errorf("%s: want ErrBadCredential, got %v", name, err)
		}
	}
	// Damage the parser cannot see is the MAC's to catch.
	for name, cred := range map[string][]byte{
		"nonce":     mutate(plain, func(b []byte) { b[nonceOff] ^= 1 }),
		"timestamp": mutate(plain, func(b []byte) { b[stampOff+7] ^= 1 }),
		"mac":       mutate(plain, func(b []byte) { b[macOff] ^= 1 }),
		"sealed as unsealed, payload cut": mutate(sealed[:principalEnd],
			func(b []byte) { b[1] &^= flagSealed }),
		"sealed payload cut": sealed[:len(sealed)-1],
	} {
		if _, _, err := r.guard.Admit("read", []wire.Value{cred}); !errors.Is(err, ErrBadMAC) {
			t.Errorf("%s: want ErrBadMAC, got %v", name, err)
		}
	}
	if _, _, err := r.guard.Admit("read", []wire.Value{plain}); err != nil {
		t.Fatalf("the untouched credential: %v", err)
	}
}

func FuzzCredentialDecode(f *testing.F) {
	r := newGuardRig(time.Minute)
	alice := r.signer("alice-secret", 0)
	w, err := alice.Wrap("read", nil)
	if err != nil {
		f.Fatal(err)
	}
	plain := w[0].([]byte)
	alice.Seal = true
	if w, err = alice.Wrap("read", nil); err != nil {
		f.Fatal(err)
	}
	sealed := w[0].([]byte)
	f.Add(plain, "read")
	f.Add(sealed, "read")
	f.Add(plain[:credFixed], "read")
	f.Add(sealed[:len(sealed)-1], "write")
	f.Add([]byte{credVersion, flagSealed}, "")
	// The guard under test holds another secret than the seeds were
	// signed with: whatever the fuzzer makes of them, nothing is genuine.
	keys := NewKeyring()
	keys.Share("alice", []byte("the guard's secret"))
	f.Fuzz(func(t *testing.T, data []byte, op string) {
		c, decErr := decodeCredential(data)
		if decErr == nil && (len(c.mac) != 32 || len(c.principal) > 255 ||
			credFixed+len(c.principal)+len(c.sealed) != len(data)) {
			t.Fatalf("decoded views do not tile the value: %+v", c)
		}
		guard := NewGuard(keys, defaultPolicy(), time.Minute)
		guard.now = r.guard.now
		_, _, err := guard.Admit(op, []wire.Value{data})
		switch {
		case err == nil:
			t.Fatalf("forged credential admitted for %q: %x", op, data)
		case decErr != nil && !errors.Is(err, ErrBadCredential):
			t.Fatalf("undecodable credential: want ErrBadCredential, got %v", err)
		case decErr == nil && errors.Is(err, ErrBadCredential):
			t.Fatalf("decodable credential: %v", err)
		}
	})
}

func TestKeyRotationTakesEffectAtOnce(t *testing.T) {
	r := newGuardRig(time.Minute)
	old := r.signer("alice-secret", 0)
	if _, _, err := r.guard.Admit("read", mustWrap(t, old, "read")); err != nil {
		t.Fatalf("before rotation: %v", err)
	}
	r.keys.Share("alice", []byte("rotated-secret"))
	if _, _, err := r.guard.Admit("read", mustWrap(t, old, "read")); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("old secret after rotation: want ErrBadMAC, got %v", err)
	}
	old.Seal = true
	if _, _, err := r.guard.Admit("read", mustWrap(t, old, "read")); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("old secret, sealed, after rotation: want ErrBadMAC, got %v", err)
	}
	rotated := r.signer("rotated-secret", 0)
	rotated.Seal = true
	if args, who, err := r.guard.Admit("write", mustWrap(t, rotated, "write", "x")); err != nil || who != "alice" || len(args) != 1 || args[0] != "x" {
		t.Fatalf("new secret: %v %q %v", args, who, err)
	}
}

func TestSharedSignerAndGuardConcurrently(t *testing.T) {
	const goroutines, each = 64, 50
	r := newGuardRig(time.Minute)
	alice := r.signer("alice-secret", 0)
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		nonces = make(map[uint64]bool)
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				arg := int64(g*each + i)
				w, err := alice.Wrap("write", []wire.Value{arg})
				if err != nil {
					t.Error(err)
					return
				}
				args, _, err := r.guard.Admit("write", w)
				if err != nil || len(args) != 1 || args[0] != arg {
					t.Errorf("call %d: %v %v", arg, args, err)
					return
				}
				c, err := decodeCredential(w[0])
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				nonces[c.nonce] = true
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if len(nonces) != goroutines*each {
		t.Fatalf("%d distinct nonces over %d calls", len(nonces), goroutines*each)
	}
	if st := r.guard.Stats(); st.Replays != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestWrapAdmitAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are skewed under -race: sync.Pool drops puts by design")
	}
	r := newGuardRig(time.Minute)
	alice := r.signer("alice-secret", 0)
	args := []wire.Value{int64(3)}
	allocs := testing.AllocsPerRun(1000, func() {
		w, err := alice.Wrap("add", args)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.guard.Admit("add", w); err != nil {
			t.Fatal(err)
		}
	})
	// The credential, its boxing and the signed argument vector; the
	// replay window's growth is amortised below one.
	if allocs > 8 {
		t.Fatalf("Wrap + Admit allocate %.1f/op, budget 8", allocs)
	}
	t.Logf("Wrap + Admit: %.1f allocs/op (budget 8)", allocs)
}
