package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// PackedCodec is the platform's native network data representation,
// "ansa-packed/1": a one-byte kind tag followed by a varint-packed
// payload. Integers and lengths are LEB128 varints — small integers,
// short strings and low epochs, which dominate real argument vectors,
// take one or two bytes — and integers are zigzag-coded so small
// negative values stay short. Floats are eight big-endian bytes.
//
// The codec exists for the invocation hot path, so it has a second
// decode mode: DecodeAllAlias parses an argument vector whose string
// and bytes values alias the source buffer instead of copying it. The
// rpc server points that mode at the request packet, or at an arena
// owned by the pooled request descriptor, which is what lets the
// dispatch path stop copying argument payloads (see rpc.Incoming's
// retention contract). The Codec-interface Decode always returns
// detached values.
//
// Varint decoding is strict: encodings longer than ten bytes, encodings
// that overflow 64 bits and non-minimal ("overlong") encodings whose
// final continuation byte is zero are all rejected with ErrCorrupt, so
// every value has exactly one representation and differential fuzzing
// against the text codec (FuzzCodecAgreement) can demand byte-stable
// re-encoding.
type PackedCodec struct{}

var _ Codec = PackedCodec{}

// Name implements Codec.
func (PackedCodec) Name() string { return "ansa-packed/1" }

// Encode implements Codec.
func (c PackedCodec) Encode(dst []byte, v Value) ([]byte, error) {
	return c.encode(dst, v, 0)
}

func (c PackedCodec) encode(dst []byte, v Value, depth int) ([]byte, error) {
	if depth > maxNest {
		return nil, fmt.Errorf("%w: nesting exceeds %d", ErrBadValue, maxNest)
	}
	switch t := v.(type) {
	case nil:
		return append(dst, byte(KindNil)), nil
	case bool:
		b := byte(0)
		if t {
			b = 1
		}
		return append(dst, byte(KindBool), b), nil
	case int64:
		return binary.AppendUvarint(append(dst, byte(KindInt)), zigzag(t)), nil
	case uint64:
		return binary.AppendUvarint(append(dst, byte(KindUint)), t), nil
	case float64:
		return appendU64(append(dst, byte(KindFloat)), math.Float64bits(t)), nil
	case string:
		return c.AppendString(dst, t), nil
	case []byte:
		dst = binary.AppendUvarint(append(dst, byte(KindBytes)), uint64(len(t)))
		return append(dst, t...), nil
	case List:
		return c.appendList(dst, t, depth)
	case Record:
		dst = binary.AppendUvarint(append(dst, byte(KindRecord)), uint64(len(t)))
		var keyBuf [16]string
		var err error
		for _, k := range sortedKeysInto(keyBuf[:0], t) {
			dst = binary.AppendUvarint(dst, uint64(len(k)))
			dst = append(dst, k...)
			if dst, err = c.encode(dst, t[k], depth+1); err != nil {
				return nil, err
			}
		}
		return dst, nil
	case Ref:
		dst = append(dst, byte(KindRef))
		dst = appendPackedString(dst, t.ID)
		dst = appendPackedString(dst, t.TypeName)
		dst = binary.AppendUvarint(dst, uint64(t.Epoch))
		dst = binary.AppendUvarint(dst, uint64(len(t.Endpoints)))
		for _, ep := range t.Endpoints {
			dst = appendPackedString(dst, ep)
		}
		dst = binary.AppendUvarint(dst, uint64(len(t.Context)))
		for _, cx := range t.Context {
			dst = appendPackedString(dst, cx)
		}
		return dst, nil
	default:
		return nil, fmt.Errorf("%w: %T", ErrBadValue, v)
	}
}

// AppendString appends what Encode appends for the string s, and
// AppendList what it appends for List(vs), without the caller boxing
// either into a Value: a hot path that assembles a record from parts it
// already holds (the recovery log's [op, arguments]) pays no allocation
// for them.
func (PackedCodec) AppendString(dst []byte, s string) []byte {
	return appendPackedString(append(dst, byte(KindString)), s)
}

// AppendList: see AppendString.
func (c PackedCodec) AppendList(dst []byte, vs []Value) ([]byte, error) {
	return c.appendList(dst, vs, 0)
}

func (c PackedCodec) appendList(dst []byte, vs []Value, depth int) ([]byte, error) {
	dst = binary.AppendUvarint(append(dst, byte(KindList)), uint64(len(vs)))
	var err error
	for _, e := range vs {
		if dst, err = c.encode(dst, e, depth+1); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// Decode implements Codec. The returned value shares no storage with
// src.
func (c PackedCodec) Decode(src []byte) (Value, []byte, error) {
	return c.decode(src, 0, false)
}

// DecodeAllAlias decodes a count-prefixed vector written by EncodeAll
// (the u32 count framing is codec-independent), appending the values to
// dst and returning the extended slice. String and bytes values alias
// src — the caller must guarantee src outlives every use of the result
// (the rpc server backs src with an arena tied to the request
// descriptor's lifetime). Trailing bytes are rejected, exactly as
// DecodeAll rejects them.
func (c PackedCodec) DecodeAllAlias(dst []Value, src []byte) ([]Value, error) {
	n, rest, err := readU32(src)
	if err != nil {
		return nil, err
	}
	if n > maxElems {
		return nil, fmt.Errorf("%w: %d values", ErrCorrupt, n)
	}
	for i := uint32(0); i < n; i++ {
		var v Value
		if v, rest, err = c.decode(rest, 0, true); err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(rest))
	}
	return dst, nil
}

// decode reads one value. With alias set, string and bytes payloads
// alias src instead of being copied; the container allocations (lists,
// record maps, refs' slices) are fresh either way.
func (c PackedCodec) decode(src []byte, depth int, alias bool) (Value, []byte, error) {
	if depth > maxNest {
		return nil, nil, fmt.Errorf("%w: nesting exceeds %d", ErrCorrupt, maxNest)
	}
	if len(src) == 0 {
		return nil, nil, ErrTruncated
	}
	kind, src := Kind(src[0]), src[1:]
	switch kind {
	case KindNil:
		return nil, src, nil
	case KindBool:
		if len(src) < 1 {
			return nil, nil, ErrTruncated
		}
		return src[0] != 0, src[1:], nil
	case KindInt:
		u, rest, err := readUvarint(src)
		if err != nil {
			return nil, nil, err
		}
		return unzigzag(u), rest, nil
	case KindUint:
		u, rest, err := readUvarint(src)
		if err != nil {
			return nil, nil, err
		}
		return u, rest, nil
	case KindFloat:
		u, rest, err := readU64(src)
		if err != nil {
			return nil, nil, err
		}
		return math.Float64frombits(u), rest, nil
	case KindString:
		b, rest, err := readPackedBytes(src)
		if err != nil {
			return nil, nil, err
		}
		return packedString(b, alias), rest, nil
	case KindBytes:
		b, rest, err := readPackedBytes(src)
		if err != nil {
			return nil, nil, err
		}
		if alias {
			return b, rest, nil
		}
		out := make([]byte, len(b))
		copy(out, b)
		return out, rest, nil
	case KindList:
		n, rest, err := readUvarint(src)
		if err != nil {
			return nil, nil, err
		}
		if n > maxElems {
			return nil, nil, fmt.Errorf("%w: list of %d elements", ErrCorrupt, n)
		}
		list := make(List, 0, min(int(n), 1024))
		for i := uint64(0); i < n; i++ {
			var e Value
			if e, rest, err = c.decode(rest, depth+1, alias); err != nil {
				return nil, nil, err
			}
			list = append(list, e)
		}
		return list, rest, nil
	case KindRecord:
		n, rest, err := readUvarint(src)
		if err != nil {
			return nil, nil, err
		}
		if n > maxElems {
			return nil, nil, fmt.Errorf("%w: record of %d fields", ErrCorrupt, n)
		}
		rec := make(Record, min(int(n), 1024))
		for i := uint64(0); i < n; i++ {
			var kb []byte
			if kb, rest, err = readPackedBytes(rest); err != nil {
				return nil, nil, err
			}
			var e Value
			if e, rest, err = c.decode(rest, depth+1, alias); err != nil {
				return nil, nil, err
			}
			// Map keys are hashed storage, not payload: aliasing them
			// would let arena reuse corrupt the map, so keys always
			// detach.
			rec[string(kb)] = e
		}
		return rec, rest, nil
	case KindRef:
		var (
			r    Ref
			err  error
			rest = src
		)
		if r.ID, rest, err = readPackedString(rest, alias); err != nil {
			return nil, nil, err
		}
		if r.TypeName, rest, err = readPackedString(rest, alias); err != nil {
			return nil, nil, err
		}
		var u uint64
		if u, rest, err = readUvarint(rest); err != nil {
			return nil, nil, err
		}
		if u > math.MaxUint32 {
			return nil, nil, fmt.Errorf("%w: ref epoch %d", ErrCorrupt, u)
		}
		r.Epoch = uint32(u)
		var n uint64
		if n, rest, err = readUvarint(rest); err != nil {
			return nil, nil, err
		}
		if n > maxElems {
			return nil, nil, fmt.Errorf("%w: ref with %d endpoints", ErrCorrupt, n)
		}
		for i := uint64(0); i < n; i++ {
			var ep string
			if ep, rest, err = readPackedString(rest, alias); err != nil {
				return nil, nil, err
			}
			r.Endpoints = append(r.Endpoints, ep)
		}
		if n, rest, err = readUvarint(rest); err != nil {
			return nil, nil, err
		}
		if n > maxElems {
			return nil, nil, fmt.Errorf("%w: ref with %d contexts", ErrCorrupt, n)
		}
		for i := uint64(0); i < n; i++ {
			var cx string
			if cx, rest, err = readPackedString(rest, alias); err != nil {
				return nil, nil, err
			}
			r.Context = append(r.Context, cx)
		}
		return r, rest, nil
	default:
		return nil, nil, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, int(kind))
	}
}

// zigzag maps signed to unsigned so small-magnitude negatives encode
// short: 0→0, -1→1, 1→2, -2→3, …
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// maxVarintLen is the longest legal LEB128 encoding of a uint64.
const maxVarintLen = 10

// readUvarint decodes one strict LEB128 varint. Truncated input yields
// ErrTruncated; encodings longer than ten bytes, overflowing 64 bits,
// or non-minimal (a multi-byte encoding whose final byte is zero — the
// "overlong" form) yield ErrCorrupt.
func readUvarint(src []byte) (uint64, []byte, error) {
	var x uint64
	var s uint
	for i := 0; i < len(src); i++ {
		b := src[i]
		if i == maxVarintLen-1 {
			if b >= 0x80 {
				return 0, nil, fmt.Errorf("%w: varint exceeds %d bytes", ErrCorrupt, maxVarintLen)
			}
			if b > 1 {
				return 0, nil, fmt.Errorf("%w: varint overflows 64 bits", ErrCorrupt)
			}
		}
		if b < 0x80 {
			if i > 0 && b == 0 {
				return 0, nil, fmt.Errorf("%w: overlong varint", ErrCorrupt)
			}
			return x | uint64(b)<<s, src[i+1:], nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, nil, ErrTruncated
}

func appendPackedString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// readPackedBytes reads a varint-length-prefixed byte run, aliasing src.
func readPackedBytes(src []byte) ([]byte, []byte, error) {
	n, rest, err := readUvarint(src)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(rest)) {
		return nil, nil, ErrTruncated
	}
	return rest[:n], rest[n:], nil
}

func readPackedString(src []byte, alias bool) (string, []byte, error) {
	b, rest, err := readPackedBytes(src)
	if err != nil {
		return "", nil, err
	}
	return packedString(b, alias), rest, nil
}

// packedString materialises a decoded string: a copy normally, an
// unsafe alias of b in arena mode. The alias is sound under the arena
// contract — the bytes are immutable for the values' lifetime and the
// values must not outlive the buffer — and is the entire point of the
// zero-copy decode path.
func packedString(b []byte, alias bool) string {
	if len(b) == 0 {
		return ""
	}
	if alias {
		return unsafe.String(unsafe.SliceData(b), len(b))
	}
	return string(b)
}
