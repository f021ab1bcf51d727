// Package security implements the §7.1 security model.
//
// "Security in a distributed system is founded upon trusted encapsulation
// and the management of shared secrets between objects... Shared secrets
// provide the basis for authenticating interactions and achieving
// integrity and confidentiality."
//
// A client's Signer attaches a credential to each invocation as its
// first argument: one bytes value of fixed layout,
//
//	[version 1][flags 1][nonce u64][unix-ms i64][mac 32][len 1][principal][sealed payload…]
//
// whose MAC is an HMAC-SHA256, keyed by the principal's shared secret,
// over the MAC header
//
//	[version 1][flags 1][nonce u64][unix-ms i64][len 1][principal][len u32][op]
//
// followed by the packed encoding of the arguments (or, when sealing, by
// the sealed payload). Principal and operation are length-prefixed, so no
// two invocations share a MAC input. The server-side Guard — "for each
// interface of the object, a guard can be generated to police use of that
// interface... generated automatically from a declarative statement of
// security policy" — parses the credential in place, verifies the MAC in
// constant time, rejects replays, evaluates the policy and only then lets
// the invocation through to the servant. Optionally the Signer seals the
// arguments with AES-GCM under a key derived from the same shared secret,
// giving confidentiality as well as integrity.
//
// Replays are caught by remembering every admitted (principal, nonce)
// until its credential goes stale, its own timestamp plus MaxSkew, in
// generations of MaxSkew of expiry time, each dropped whole once its span
// has passed. In a generation a principal's nonces are bits of 64-nonce
// words: a signer's sequential nonces share a word, random ones cost a
// word each, and the words hold no pointers for the collector to scan.
//
// The HMAC and AES-GCM states are keyed once per secret, by the first
// call that needs them, and reused by every later one until Keyring.Share
// replaces the secret; NewSigner, NewGuard and Share key nothing.
// Nothing else outlives a call.
//
// As §7.1 observes, "an interface reference for accessing an object
// cannot itself be secure... therefore a secure object must check that
// any access is from a valid source" — possession of a reference grants
// nothing; only the credential does.
package security

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"sync"

	"odp/internal/wire"
)

// Errors returned by the security layer.
var (
	// ErrBadCredential reports a missing or malformed credential.
	ErrBadCredential = errors.New("security: bad credential")
	// ErrBadMAC reports an integrity failure.
	ErrBadMAC = errors.New("security: MAC verification failed")
	// ErrReplay reports a reused nonce.
	ErrReplay = errors.New("security: replayed credential")
	// ErrUnknownPrincipal reports a principal with no shared secret.
	ErrUnknownPrincipal = errors.New("security: unknown principal")
	// ErrForbidden reports a policy denial.
	ErrForbidden = errors.New("security: forbidden by policy")
	// ErrStale reports a credential outside the freshness window.
	ErrStale = errors.New("security: stale credential")
)

// Keyring holds shared secrets by principal name.
type Keyring struct {
	mu   sync.RWMutex
	keys map[string]*key
}

// NewKeyring creates an empty keyring.
func NewKeyring() *Keyring {
	return &Keyring{keys: make(map[string]*key)}
}

// Share installs (or rotates) the secret for principal. The entry is
// replaced whole, so the next credential is checked against the new
// secret only.
func (k *Keyring) Share(principal string, secret []byte) {
	nk := newKey(principal, secret)
	k.mu.Lock()
	k.keys[principal] = nk
	k.mu.Unlock()
}

// lookup returns the key of the principal named by the credential bytes.
func (k *Keyring) lookup(principal []byte) *key {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return k.keys[string(principal)]
}

// key is one principal's shared secret with the cipher states derived
// from it. Neither is built before the first call that needs it.
type key struct {
	principal string
	secret    []byte
	macs      sync.Pool // hash.Hash: HMAC-SHA256 keyed with secret

	aeadOnce sync.Once
	aead     cipher.AEAD // AES-GCM under a key derived from secret
	aeadErr  error
}

func newKey(principal string, secret []byte) *key {
	return &key{principal: principal, secret: append([]byte(nil), secret...)}
}

// sealer returns the key's AES-GCM state, built on first use.
func (k *key) sealer() (cipher.AEAD, error) {
	k.aeadOnce.Do(func() {
		sum := sha256.Sum256(append([]byte("odp-seal:"), k.secret...))
		block, err := aes.NewCipher(sum[:])
		if err == nil {
			k.aead, err = cipher.NewGCM(block)
		}
		k.aeadErr = err
	})
	return k.aead, k.aeadErr
}

// invocationMAC writes into out the MAC binding the credential cred to
// one invocation. Of cred only the fields before and after its MAC are
// read (so out may be cred's own MAC field); the MAC covers its MAC
// header for op followed by the packed args or, when sealed is non-nil,
// by the sealed payload. Wrap and Admit both come through here, so what
// is signed is what is checked.
func (k *key) invocationMAC(out *[sha256.Size]byte, cred []byte, op string, args []wire.Value, sealed []byte) error {
	bp := wire.GetBuffer()
	defer wire.PutBuffer(bp)
	buf := append(*bp, cred[:macOff]...)
	buf = append(buf, cred[nameOff:credFixed+int(cred[nameOff])]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(op)))
	buf = append(buf, op...)
	if sealed == nil {
		var err error
		if buf, err = wire.EncodeAllInto(wire.PackedCodec{}, buf, args); err != nil {
			return err
		}
	}
	h, _ := k.macs.Get().(hash.Hash)
	if h == nil {
		h = hmac.New(sha256.New, k.secret)
	}
	h.Reset()
	_, _ = h.Write(buf) // a hash.Hash never fails a Write
	_, _ = h.Write(sealed)
	input := len(buf)
	buf = h.Sum(buf)
	k.macs.Put(h)
	copy(out[:], buf[input:])
	*bp = buf
	return nil
}

// The credential's fixed part: version, flags, nonce, timestamp, MAC and
// the principal's length. The MAC header starts with the same first
// macOff bytes.
const (
	credVersion = 1
	flagSealed  = 1 << 0

	nonceOff  = 2
	stampOff  = nonceOff + 8
	macOff    = stampOff + 8
	nameOff   = macOff + sha256.Size
	credFixed = nameOff + 1

	// A sealed payload is at least a GCM nonce and tag.
	gcmNonce  = 12
	sealedMin = gcmNonce + 16
)

// credential is a parsed view of an invocation's first argument; its
// slices alias the value.
type credential struct {
	raw       []byte // the whole value
	principal []byte
	nonce     uint64
	unixMilli int64
	mac       []byte
	sealed    []byte // non-nil when the arguments travel encrypted
}

// appendCredential appends a credential with a zero MAC, to be filled in
// at macOff once the rest is known.
func appendCredential(dst []byte, flags byte, nonce uint64, unixMilli int64, principal string) []byte {
	dst = append(dst, credVersion, flags)
	dst = binary.BigEndian.AppendUint64(dst, nonce)
	dst = binary.BigEndian.AppendUint64(dst, uint64(unixMilli))
	dst = append(dst, make([]byte, sha256.Size)...)
	dst = append(dst, byte(len(principal)))
	return append(dst, principal...)
}

func decodeCredential(v wire.Value) (credential, error) {
	raw, ok := v.([]byte)
	if !ok {
		return credential{}, fmt.Errorf("%w: first argument is %T", ErrBadCredential, v)
	}
	if len(raw) < credFixed {
		return credential{}, fmt.Errorf("%w: %d bytes", ErrBadCredential, len(raw))
	}
	if raw[0] != credVersion || raw[1]&^flagSealed != 0 {
		return credential{}, fmt.Errorf("%w: version %d flags %#x", ErrBadCredential, raw[0], raw[1])
	}
	end := credFixed + int(raw[nameOff])
	if end > len(raw) {
		return credential{}, fmt.Errorf("%w: principal overruns the value", ErrBadCredential)
	}
	c := credential{
		raw:       raw,
		principal: raw[credFixed:end],
		nonce:     binary.BigEndian.Uint64(raw[nonceOff:]),
		unixMilli: int64(binary.BigEndian.Uint64(raw[stampOff:])),
		mac:       raw[macOff:nameOff],
	}
	rest := raw[end:]
	if raw[1]&flagSealed == 0 {
		if len(rest) != 0 {
			return credential{}, fmt.Errorf("%w: %d trailing bytes", ErrBadCredential, len(rest))
		}
		return c, nil
	}
	if len(rest) < sealedMin {
		return credential{}, fmt.Errorf("%w: sealed payload of %d bytes", ErrBadCredential, len(rest))
	}
	c.sealed = rest
	return c, nil
}

// seal appends to dst a fresh GCM nonce and the sealed plaintext.
func (k *key) seal(dst, plaintext []byte) ([]byte, error) {
	gcm, err := k.sealer()
	if err != nil {
		return nil, err
	}
	at := len(dst)
	dst = append(dst, make([]byte, gcmNonce)...)
	if _, err := rand.Read(dst[at:]); err != nil {
		return nil, err
	}
	return gcm.Seal(dst, dst[at:], plaintext, nil), nil
}

// unseal opens a credential's sealed payload (at least sealedMin bytes).
func (k *key) unseal(sealed []byte) ([]byte, error) {
	gcm, err := k.sealer()
	if err != nil {
		return nil, err
	}
	pt, err := gcm.Open(nil, sealed[:gcmNonce], sealed[gcmNonce:], nil)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMAC, err)
	}
	return pt, nil
}
