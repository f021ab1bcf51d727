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
//	[version 1][flags 1][nonce u64][unix-ms i64][mac 16][len 1][principal][sealed payload…]
//
// whose MAC is an AES-CMAC (RFC 4493) under a key derived from the
// principal's shared secret, over the MAC header
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
// The CMAC and AES-GCM states are built once per secret, by the first
// call that needs one, and shared until Keyring.Share replaces it;
// NewSigner, NewGuard and Share key nothing. Nothing else outlives a call.
//
// As §7.1 observes, "an interface reference for accessing an object
// cannot itself be secure... therefore a secure object must check that
// any access is from a valid source" — possession of a reference grants
// nothing; only the credential does.
package security

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
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
	once      sync.Once
	mac       *cmac       // AES-CMAC under SHA-256("odp-mac:" ‖ secret)
	aead      cipher.AEAD // AES-GCM under SHA-256("odp-seal:" ‖ secret)
}

func newKey(principal string, secret []byte) *key {
	return &key{principal: principal, secret: append([]byte(nil), secret...)}
}

// build derives the cipher states; it cannot fail (32-byte keys, 16-byte block).
func (k *key) build() {
	macKey := sha256.Sum256(append([]byte("odp-mac:"), k.secret...))
	sealKey := sha256.Sum256(append([]byte("odp-seal:"), k.secret...))
	block, _ := aes.NewCipher(macKey[:])
	k.mac = newCMAC(block)
	block, _ = aes.NewCipher(sealKey[:])
	k.aead, _ = cipher.NewGCM(block)
}

// invocationMAC computes the MAC binding the credential cred to one
// invocation, over its MAC header for op and the packed args or, when
// sealed is non-nil, the sealed payload. It writes the MAC into cred's
// MAC field or, with check, compares it with that field in constant time
// (ErrBadMAC if they differ). Wrap and Admit both come through here, so
// what is signed is what is checked.
func (k *key) invocationMAC(cred []byte, op string, args []wire.Value, sealed []byte, check bool) error {
	k.once.Do(k.build)
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
	// The tag, the CMAC's chaining state too, lives in the pooled buffer:
	// a local array handed to the cipher would escape to the heap.
	input := len(buf) + len(sealed)
	buf = append(append(buf, sealed...), make([]byte, macLen)...)
	*bp = buf
	tag := buf[input:]
	k.mac.sum(tag, buf[:input])
	if !check {
		copy(cred[macOff:nameOff], tag)
	} else if subtle.ConstantTimeCompare(tag, cred[macOff:nameOff]) != 1 {
		return ErrBadMAC
	}
	return nil
}

// cmac is AES-CMAC (RFC 4493, NIST SP 800-38B): a cipher.Block, safe for
// concurrent use, and the subkeys K1 = 2·E(0) and K2 = 4·E(0).
type cmac struct {
	block  cipher.Block
	k1, k2 [aes.BlockSize]byte
}

func newCMAC(block cipher.Block) *cmac {
	m := &cmac{block: block}
	var l [aes.BlockSize]byte
	block.Encrypt(l[:], l[:])
	for _, k := range []*[aes.BlockSize]byte{&m.k1, &m.k2} { // k = 2·l in GF(2¹²⁸)
		for i := range aes.BlockSize - 1 {
			k[i] = l[i]<<1 | l[i+1]>>7
		}
		k[aes.BlockSize-1] = l[aes.BlockSize-1]<<1 ^ 0x87*(l[0]>>7)
		l = *k
	}
	return m
}

// sum writes the CMAC of msg into tag, one block, which is the chaining
// state too. A whole last block is masked with K1, a padded one with K2.
func (m *cmac) sum(tag, msg []byte) {
	clear(tag)
	for ; len(msg) > aes.BlockSize; msg = msg[aes.BlockSize:] {
		subtle.XORBytes(tag, tag, msg[:aes.BlockSize])
		m.block.Encrypt(tag, tag)
	}
	sub := m.k1[:]
	if len(msg) < aes.BlockSize {
		sub = m.k2[:]
		tag[len(msg)] ^= 0x80
	}
	subtle.XORBytes(tag, tag, msg)
	subtle.XORBytes(tag, tag, sub)
	m.block.Encrypt(tag, tag)
}

// The credential's fixed part: version, flags, nonce, timestamp, MAC and
// the principal's length. The MAC header starts with the same first
// macOff bytes.
const (
	credVersion = 2
	flagSealed  = 1 << 0
	macLen      = aes.BlockSize

	nonceOff  = 2
	stampOff  = nonceOff + 8
	macOff    = stampOff + 8
	nameOff   = macOff + macLen
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
	dst = append(dst, make([]byte, macLen)...)
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
	k.once.Do(k.build)
	at := len(dst)
	dst = append(dst, make([]byte, gcmNonce)...)
	if _, err := rand.Read(dst[at:]); err != nil {
		return nil, err
	}
	return k.aead.Seal(dst, dst[at:], plaintext, nil), nil
}

// unseal opens a credential's sealed payload (at least sealedMin bytes).
func (k *key) unseal(sealed []byte) ([]byte, error) {
	k.once.Do(k.build)
	pt, err := k.aead.Open(nil, sealed[:gcmNonce], sealed[gcmNonce:], nil)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMAC, err)
	}
	return pt, nil
}
