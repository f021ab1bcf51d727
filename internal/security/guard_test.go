package security

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
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
		"version 3":          {mutate(plain, func(b []byte) { b[0] = 3 })},
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

// A version-1 credential, laid out with its 32-byte HMAC-SHA256, is
// refused as malformed before its principal is looked up: a guard that
// knows no principal answers ErrBadCredential, not ErrUnknownPrincipal.
// What the MAC holds does not matter, since nothing checks it.
func TestVersionOneCredentialRefused(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	v1 := []byte{1, 0}
	v1 = binary.BigEndian.AppendUint64(v1, 7)
	v1 = binary.BigEndian.AppendUint64(v1, uint64(now.UnixMilli()))
	v1 = append(v1, make([]byte, 32)...)
	v1 = append(append(v1, byte(len("alice"))), "alice"...)
	g := NewGuard(NewKeyring(), defaultPolicy(), time.Minute)
	g.now = func() time.Time { return now }
	if _, _, err := g.Admit("read", []wire.Value{v1}); !errors.Is(err, ErrBadCredential) {
		t.Fatalf("version-1 credential: want ErrBadCredential, got %v", err)
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
		if decErr == nil && (len(c.mac) != macLen || len(c.principal) > 255 ||
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
	if allocs > 4 {
		t.Fatalf("Wrap + Admit allocate %.1f/op, budget 4", allocs)
	}
	t.Logf("Wrap + Admit: %.1f allocs/op (budget 4)", allocs)
}

// BenchmarkWrapAdmit is the guard's rung of loop_woven: one signed
// invocation, signed by the client's half and admitted by the server's.
func BenchmarkWrapAdmit(b *testing.B) {
	r := newGuardRig(time.Minute)
	alice := r.signer("alice-secret", 0)
	args := []wire.Value{int64(3)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, err := alice.Wrap("add", args)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := r.guard.Admit("add", w); err != nil {
			b.Fatal(err)
		}
	}
}

// replayOp packs one FuzzReplayWindow step: bits 0–1 pick the principal
// (3 is the first again), bits 2–3 the nonce's shape (sequential,
// random, wrapping through 2^64−1 → 0, or a nonce offered before), bits
// 4–5 the credential's stamp relative to now, bits 6–7 how far the clock
// moves first.
func replayOp(principal, shape, stamp, advance byte) byte {
	return principal | shape<<2 | stamp<<4 | advance<<6
}

// FuzzReplayWindow drives the guard's replay window and a map of every
// admitted (principal, generation, nonce) — the rule the window
// implements — with the same credentials, and demands the same decision
// for each.
func FuzzReplayWindow(f *testing.F) {
	seq := func(n int, ops ...byte) []byte {
		var out []byte
		for i := 0; i < n; i++ {
			out = append(out, ops...)
		}
		return out
	}
	f.Add(int64(1), seq(200, replayOp(0, 0, 2, 0)))                                            // sequential
	f.Add(int64(2), seq(100, replayOp(0, 0, 2, 0), replayOp(0, 3, 2, 0)))                      // sequential, replayed
	f.Add(int64(3), seq(100, replayOp(1, 1, 1, 0), replayOp(1, 3, 1, 0)))                      // random, replayed
	f.Add(int64(4), seq(60, replayOp(2, 2, 2, 0), replayOp(2, 3, 0, 0)))                       // across the wrap
	f.Add(int64(5), seq(50, replayOp(0, 0, 3, 1), replayOp(1, 3, 0, 2), replayOp(2, 0, 1, 3))) // generations advance
	f.Add(int64(6), seq(80, replayOp(0, 1, 2, 0), replayOp(1, 2, 3, 1), replayOp(2, 3, 0, 0), replayOp(3, 0, 1, 3)))
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		const skewMs = 8
		g := NewGuard(NewKeyring(), Policy{}, skewMs*time.Millisecond)
		rng := rand.New(rand.NewSource(seed))
		principals := [3]string{"alice", "bob", "carol"}
		var sequential, wrapping [3]uint64
		for p := range wrapping {
			sequential[p] = rng.Uint64()
			wrapping[p] = math.MaxUint64 - 40
		}
		type offer struct {
			principal string
			gen       int64
			nonce     uint64
		}
		admitted := make(map[offer]bool)
		var offered [3][]uint64
		now := int64(1_700_000_000_000)
		stamps := [4]int64{-skewMs, -3, 0, skewMs}
		advances := [4]int64{0, 1, 3, skewMs}
		for i, op := range ops {
			p := int(op&3) % 3
			now += advances[op>>6&3]
			var nonce uint64
			switch op >> 2 & 3 {
			case 0:
				sequential[p]++
				nonce = sequential[p]
			case 1:
				nonce = rng.Uint64()
			case 2:
				wrapping[p]++
				nonce = wrapping[p]
			case 3:
				if len(offered[p]) == 0 {
					continue
				}
				nonce = offered[p][rng.Intn(len(offered[p]))]
			}
			offered[p] = append(offered[p], nonce)
			// A stamp within the skew of now, as Admit lets through: the
			// credential's expiry is never in the past.
			expiry := now + stamps[op>>4&3] + skewMs
			key := offer{principals[p], expiry / skewMs, nonce}
			want := !admitted[key]
			admitted[key] = true
			if got := g.firstUse(principals[p], nonce, expiry, now); got != want {
				t.Fatalf("step %d: %s nonce %#x expiring %d at %d: window admits %v, rule %v",
					i, principals[p], nonce, expiry, now, got, want)
			}
		}
	})
}

// A signer numbers its nonces in sequence, so the window holds a word per
// 64 of them: 200k credentials from one signer, then 64 signers
// interleaved, each generation holding at most calls/64 + signers words
// and refusing every replay.
func TestReplayWindowStaysSmall(t *testing.T) {
	const skewMs = 1000
	g := NewGuard(NewKeyring(), Policy{}, skewMs*time.Millisecond)
	now := int64(1_700_000_000_000)
	rng := rand.New(rand.NewSource(1))
	phase := func(name string, signers, each int) {
		starts := make([]uint64, signers) // random, as NewSigner picks them
		for i := range starts {
			starts[i] = rng.Uint64()
		}
		expiry := now + skewMs
		for _, first := range []bool{true, false} {
			for i := 0; i < each; i++ {
				for _, start := range starts {
					if got := g.firstUse("alice", start+uint64(i), expiry, now); got != first {
						t.Fatalf("%s: nonce %#x admitted %v, want %v", name, start+uint64(i), got, first)
					}
				}
			}
		}
		g.mu.Lock()
		words := len(g.seen[expiry/skewMs]["alice"])
		g.mu.Unlock()
		calls := signers * each
		if words > calls/64+signers {
			t.Fatalf("%s: %d calls held in %d words, want at most %d", name, calls, words, calls/64+signers)
		}
		t.Logf("%s: %d calls held in %d words", name, calls, words)
		now += 3 * skewMs // the next phase fills a generation of its own
	}
	phase("one signer", 1, 200_000)
	phase("64 interleaved signers", 64, 50*64)
	g.mu.Lock()
	held := len(g.seen)
	g.mu.Unlock()
	if held != 1 {
		t.Fatalf("guard holds %d generations, want the current one", held)
	}
}
