// Package rpc implements the ODP invocation protocol over unreliable
// datagram endpoints.
//
// Access transparency (§5.1) requires two interaction structures:
//
//   - Interrogation: request-reply, "activity is temporarily transferred
//     to the invoked interface". Implemented with client retransmission,
//     server-side duplicate suppression and a reply cache, giving
//     at-most-once execution over a lossy network.
//   - Announcement: "an asynchronous request-only structure for spawning
//     a new activity". Fire-and-forget, optionally repeated for higher
//     delivery probability; "failure to meet the constraint can[not] be
//     reported" for announcements.
//
// Every operation returns one of a range of named outcomes, "each one of
// which carries its own package of results" (§5.1). System-level failures
// (no such object, moved, handler fault) are distinguished from
// application outcomes so that transparency layers can react to them —
// in particular the Moved status drives location transparency rebinding.
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"odp/internal/obs"
	"odp/internal/wire"
)

// Every message is one frame:
//
//	[version][kind | flags][8 call id BE] [target] [trace ids] body
//
// kind occupies the low nibble of the second byte and the flag bits the
// high one. The target — object id and operation, each u32-length
// prefixed — is carried by requests and announcements only: a reply or
// an ack is routed by its call id alone. The body is in the node's
// session codec: nothing in a frame names an encoding, and nodes with
// different codecs meet through a federation gateway (§5.6), not here.
// The first byte is never 0xB7: that byte marks a transport BATCH, whose
// frames the Coalescer beneath unpacks.
const (
	msgRequest  = 1 // interrogation request
	msgReply    = 2 // interrogation reply
	msgAck      = 3 // client acknowledges reply; server may evict cache
	msgAnnounce = 4 // one-way announcement

	kindMask = 0x0f

	// flagTraced marks a sampled invocation: the caller's trace and span
	// ids (8 bytes each, big-endian) precede the body. An unsampled
	// invocation clears the bit and pays zero wire bytes. The ids are
	// part of the packet, so a retransmission (encoded once, resent
	// verbatim) carries the identical context and the server's dedup
	// tables keep a duplicate from minting a second dispatch span.
	flagTraced = 0x20

	flagMask = flagTraced
)

// Reply statuses.
const (
	statusOK       = 0 // application outcome in body
	statusSysError = 1 // infrastructure or handler fault, message in body
	statusNoObject = 2 // destination object unknown at this endpoint
	statusMoved    = 3 // object relocated; body carries a forwarding ref
	statusDenied   = 4 // a guard refused the invocation (§7.1)
	statusBusy     = 5 // admission control shed the request; back off and retry
)

// protoVersion guards against cross-version confusion.
const protoVersion = 1

// fixedHdrLen is version, kind|flags and call id; traceLen the two ids.
const (
	fixedHdrLen = 10
	traceLen    = 16
)

// Errors surfaced to invokers.
var (
	// ErrTimeout reports that the QoS deadline expired with no reply.
	ErrTimeout = errors.New("rpc: invocation timed out")
	// ErrNoObject reports that the destination endpoint does not host the
	// object. Handlers return it to trigger client-side relocation.
	ErrNoObject = errors.New("rpc: no such object")
	// ErrDenied reports a security guard refusal.
	ErrDenied = errors.New("rpc: access denied")
	// ErrBadMessage reports an undecodable packet.
	ErrBadMessage = errors.New("rpc: bad message")
	// ErrClosed reports use of a closed client or server.
	ErrClosed = errors.New("rpc: closed")
	// ErrServerBusy reports that server-side admission control shed the
	// invocation: the client exceeded its token bucket. Transient by
	// construction — the caller should back off and retry (the capsule
	// layer can do so automatically, see capsule.WithBusyRetry).
	ErrServerBusy = errors.New("rpc: server busy")
)

// MovedError carries a forwarding reference for a relocated object
// (§5.4): the invoked endpoint knows where the interface went.
type MovedError struct {
	// Forward is the new reference for the interface.
	Forward wire.Ref
}

// Error implements error.
func (e *MovedError) Error() string {
	return fmt.Sprintf("rpc: object moved to %v", e.Forward.Endpoints)
}

// RemoteError carries a server-side fault message across the network.
type RemoteError struct {
	// Msg is the remote failure description.
	Msg string
}

// Error implements error.
func (e *RemoteError) Error() string { return "rpc: remote: " + e.Msg }

// header is the decoded form of everything ahead of a message body.
// Decoding is zero-allocation: objID and op alias the packet and are
// only valid while it is (the transport Handler contract), so a path
// that retains them clones them explicitly.
type header struct {
	kind   byte
	flags  byte
	callID uint64
	objID  string          // requests and announcements only
	op     string          // requests and announcements only
	trace  obs.SpanContext // present iff flags has flagTraced
}

// hasTarget reports whether messages of this kind name an object and an
// operation.
func hasTarget(kind byte) bool { return kind == msgRequest || kind == msgAnnounce }

func encodeHeader(dst []byte, h header) []byte {
	var b [fixedHdrLen]byte
	b[0], b[1] = protoVersion, h.kind|h.flags
	binary.BigEndian.PutUint64(b[2:], h.callID)
	dst = append(dst, b[:]...)
	if hasTarget(h.kind) {
		dst = appendStr(dst, h.objID)
		dst = appendStr(dst, h.op)
	}
	if h.flags&flagTraced != 0 {
		var t [traceLen]byte
		binary.BigEndian.PutUint64(t[:8], h.trace.TraceID)
		binary.BigEndian.PutUint64(t[8:], h.trace.SpanID)
		dst = append(dst, t[:]...)
	}
	return dst
}

// decodeRawHeader parses the header of src and returns the body behind
// it. A wrong version, an unknown kind and an unknown flag bit are all
// rejected here, so nothing downstream ever sees a frame it would have
// to guess at.
func decodeRawHeader(src []byte) (header, []byte, error) {
	if len(src) < fixedHdrLen {
		return header{}, nil, ErrBadMessage
	}
	if src[0] != protoVersion {
		return header{}, nil, fmt.Errorf("%w: version %d", ErrBadMessage, src[0])
	}
	h := header{kind: src[1] & kindMask, flags: src[1] &^ kindMask}
	if h.kind < msgRequest || h.kind > msgAnnounce || h.flags&^flagMask != 0 {
		return header{}, nil, fmt.Errorf("%w: kind/flags %#x", ErrBadMessage, src[1])
	}
	h.callID = binary.BigEndian.Uint64(src[2:fixedHdrLen])
	rest := src[fixedHdrLen:]
	if hasTarget(h.kind) {
		var objID, op []byte
		var err error
		if objID, rest, err = readBytes(rest); err != nil {
			return header{}, nil, err
		}
		if op, rest, err = readBytes(rest); err != nil {
			return header{}, nil, err
		}
		h.objID, h.op = aliasString(objID), aliasString(op)
	}
	if h.flags&flagTraced != 0 {
		if len(rest) < traceLen {
			return header{}, nil, fmt.Errorf("%w: truncated trace context", ErrBadMessage)
		}
		h.trace.TraceID = binary.BigEndian.Uint64(rest[:8])
		h.trace.SpanID = binary.BigEndian.Uint64(rest[8:traceLen])
		rest = rest[traceLen:]
	}
	return h, rest, nil
}

// Request body: encoded argument vector.
// Reply body: status byte, then per status:
//
//	OK:       outcome string, encoded result vector
//	SysError: message string
//	NoObject: (empty)
//	Moved:    encoded forwarding ref
//	Denied:   message string
//	Busy:     (empty)

// appendReplyBody appends a reply body to dst, so header and body can
// share one allocation.
func appendReplyBody(codec wire.Codec, dst []byte, status byte, outcome string, results []wire.Value, msg string, fwd wire.Ref) ([]byte, error) {
	dst = append(dst, status)
	switch status {
	case statusOK:
		dst = appendStr(dst, outcome)
		var err error
		if dst, err = wire.EncodeAllInto(codec, dst, results); err != nil {
			return nil, err
		}
	case statusSysError, statusDenied:
		dst = appendStr(dst, msg)
	case statusMoved:
		var err error
		if dst, err = codec.Encode(dst, fwd); err != nil {
			return nil, err
		}
	case statusNoObject, statusBusy:
	}
	return dst, nil
}

type replyBody struct {
	status  byte
	outcome string
	results []wire.Value
	msg     string
	fwd     wire.Ref
	err     error // a failure decided at the client; nothing else is read
}

// decodeReplyBody decodes a reply body; the outcome comes from nm, so a
// reply allocates nothing for a name its client has seen before. Bytes
// after what the status carries make the body malformed.
func decodeReplyBody(codec wire.Codec, nm *names, src []byte) (replyBody, error) {
	if len(src) < 1 {
		return replyBody{}, ErrBadMessage
	}
	rb := replyBody{status: src[0]}
	rest := src[1:]
	var err error
	switch rb.status {
	case statusOK:
		var outcome []byte
		if outcome, rest, err = readBytes(rest); err != nil {
			return replyBody{}, err
		}
		rb.outcome = nm.intern(aliasString(outcome))
		if rb.results, err = wire.DecodeAll(codec, rest); err != nil {
			return replyBody{}, err
		}
		rest = nil // DecodeAll refuses trailing bytes itself
	case statusSysError, statusDenied:
		var msg []byte
		if msg, rest, err = readBytes(rest); err != nil {
			return replyBody{}, err
		}
		rb.msg = string(msg)
	case statusMoved:
		var v wire.Value
		if v, rest, err = codec.Decode(rest); err != nil {
			return replyBody{}, err
		}
		ref, ok := v.(wire.Ref)
		if !ok {
			return replyBody{}, fmt.Errorf("%w: moved body is %T", ErrBadMessage, v)
		}
		rb.fwd = ref
	case statusNoObject, statusBusy:
	default:
		return replyBody{}, fmt.Errorf("%w: status %d", ErrBadMessage, rb.status)
	}
	if len(rest) != 0 {
		return replyBody{}, fmt.Errorf("%w: %d bytes after a status %d reply", ErrBadMessage, len(rest), rb.status)
	}
	return rb, nil
}

func appendStr(dst []byte, s string) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(len(s)))
	dst = append(dst, b[:]...)
	return append(dst, s...)
}

// aliasString views b as a string without copying. The result is valid
// exactly as long as b's storage is — use only on the zero-copy
// dispatch path, where the lifetime is the handler call.
func aliasString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// names interns the strings a peer sends again and again — object ids,
// operations, reply outcomes — so one that must outlive its packet is
// copied once, not once a call. The table is copy-on-write, read with one
// atomic load; it keeps at most maxNames of at most maxNameLen bytes, and
// clones past that, so a peer sending ever new names pins nothing.
type names struct {
	table atomic.Value // map[string]string
	mu    sync.Mutex   // serializes writers
}

const maxNames, maxNameLen = 256, 128

// intern returns a string equal to s that does not alias s's storage.
func (n *names) intern(s string) string {
	t, _ := n.table.Load().(map[string]string)
	if v, ok := t[s]; ok {
		return v
	}
	v := strings.Clone(s)
	if len(v) <= maxNameLen && len(t) < maxNames {
		n.mu.Lock()
		if t, _ = n.table.Load().(map[string]string); len(t) < maxNames {
			next := make(map[string]string, len(t)+1)
			for k, w := range t {
				next[k] = w
			}
			next[v] = v
			n.table.Store(next)
		}
		n.mu.Unlock()
	}
	return v
}

// readBytes reads a length-prefixed field; the returned slice aliases
// src.
func readBytes(src []byte) ([]byte, []byte, error) {
	if len(src) < 4 {
		return nil, nil, ErrBadMessage
	}
	n := binary.BigEndian.Uint32(src)
	src = src[4:]
	if uint32(len(src)) < n {
		return nil, nil, ErrBadMessage
	}
	return src[:n], src[n:], nil
}
