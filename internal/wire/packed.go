package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// PackedCodec is the platform's native network data representation,
// "ansa-packed/1": a one-byte kind tag followed by a varint-packed
// payload. Integers and lengths are LEB128 varints — small integers,
// short strings and low epochs, which dominate real argument vectors,
// take one or two bytes — and integers are zigzag-coded so small
// negative values stay short. Floats are eight big-endian bytes.
//
// There is one decoder (see decoder) and what it returns owns its
// storage: nothing aliases the source buffer, which the caller may
// reuse the moment a decode returns.
//
// Every value has exactly one representation, so a frame the decoder
// accepts re-encodes to the same bytes (FuzzPackedDecode demands it,
// and differential fuzzing against the text codec, FuzzCodecAgreement,
// relies on it). Varint decoding is strict: encodings longer than ten
// bytes, encodings that overflow 64 bits and non-minimal ("overlong")
// encodings whose final continuation byte is zero are all rejected with
// ErrCorrupt, as are a bool byte other than 0 or 1 and record keys that
// are not strictly ascending.
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
		return binary.BigEndian.AppendUint64(append(dst, byte(KindFloat)), math.Float64bits(t)), nil
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

// Decode implements Codec.
func (PackedCodec) Decode(src []byte) (Value, []byte, error) {
	d := decoder{rest: src, siblings: 1}
	v, err := d.value(0)
	if err != nil {
		return nil, nil, err
	}
	return v, d.rest, nil
}

// DecodeAllAlias is DecodeAll on this codec, appending to dst: the
// vector is one message, its values share one decoder's slabs.
func (PackedCodec) DecodeAllAlias(dst []Value, src []byte) ([]Value, error) {
	n, rest, err := readVectorCount(src)
	if err != nil {
		return nil, err
	}
	if dst == nil {
		dst = make([]Value, 0, n)
	}
	d := decoder{rest: rest, owed: n}
	for i := 0; i < n; i++ {
		d.siblings, d.owed = n-i, d.owed-1
		v, err := d.value(0)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	if len(d.rest) != 0 {
		return nil, trailing(d.rest)
	}
	return dst, nil
}

// decoder decodes one message — a value, or an argument vector — into
// storage the message owns. Payload bytes are copied once into one byte
// slab, and what the runtime would allocate one object at a time — the
// 8-byte scalars, the string, []byte and List headers an interface
// points at, the lists' backing arrays — comes out of a typed slab per
// kind, so a message costs a handful of allocations however many values
// it holds. Every slice handed out is cap-limited to its own region: an
// append to one value never writes into its neighbour. The price is
// retention by message: keeping any part of a decoded message keeps
// that message's slabs, as a Go substring keeps its string.
//
// Slabs are allocated lazily and sized by what the input can still
// hold, less what the containers already open are owed of it — a nested
// container cannot claim the bytes its parents' remaining elements need.
// So the slots of all slabs together are bounded by len(src) at any
// depth, a decode never allocates more than a constant multiple of
// len(src), and a vector of small scalars allocates nothing.
type decoder struct {
	rest     []byte // input not yet consumed
	siblings int    // values left in the enclosing container, this one included
	owed     int    // least bytes of rest the open containers need after this value

	payload []byte   // string, bytes, record-key and ref-field contents
	words   []uint64 // int64, uint64 and float64 bit patterns
	strs    []string // string headers, and refs' endpoint and context lists
	blobs   [][]byte
	lists   []List
	elems   []Value // the lists' backing arrays
}

// take returns the next n slots of the slab *s, cap-limited to
// themselves. A full slab is left to the values that point into it and
// a new chunk of room slots (at least n) takes its place.
func take[T any](s *[]T, n, room int) []T {
	if cap(*s)-len(*s) < n {
		*s = make([]T, 0, max(n, room))
	}
	i := len(*s)
	*s = (*s)[:i+n]
	return (*s)[i : i+n : i+n]
}

// put stores v in the next slot of the slab *s, for boxing.
func put[T any](s *[]T, room int, v T) *T {
	p := &take(s, 1, room)[0]
	*p = v
	return p
}

// room sizes a new slab chunk: one slot for each value left in the
// enclosing container — siblings are mostly of one kind — but no more
// than the remaining input could fill at per bytes a slot.
func (d *decoder) room(per int) int {
	return min(d.siblings, 1+len(d.rest)/per)
}

func (d *decoder) uvarint() (uint64, error) {
	u, rest, err := readUvarint(d.rest)
	if err != nil {
		return 0, err
	}
	d.rest = rest
	return u, nil
}

// count reads an element count and rejects, before anything is sized by
// it, one the remaining input cannot hold at per bytes an element beside
// the bytes already owed to the elements of every container still open.
func (d *decoder) count(per int, what string) (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if n > maxElems {
		return 0, fmt.Errorf("%w: %d %s", ErrCorrupt, n, what)
	}
	if int(n)*per > len(d.rest)-d.owed {
		return 0, ErrTruncated
	}
	return int(n), nil
}

// bytes reads a length-prefixed byte run into the payload slab. The
// slab is allocated by the first non-empty run, as large as the input
// from there on: every later run lies in that input too, so the slab
// never grows and a region handed out is never moved.
func (d *decoder) bytes() ([]byte, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.rest)) {
		return nil, ErrTruncated
	}
	if n == 0 {
		return []byte{}, nil
	}
	if d.payload == nil {
		d.payload = make([]byte, 0, len(d.rest))
	}
	i := len(d.payload)
	d.payload = append(d.payload, d.rest[:n]...)
	d.rest = d.rest[n:]
	return d.payload[i:len(d.payload):len(d.payload)], nil
}

func (d *decoder) string() (string, error) {
	b, err := d.bytes()
	return slabString(b), err
}

// strings reads a ref's endpoint or context list.
func (d *decoder) strings(what string) ([]string, error) {
	n, err := d.count(1, what)
	if err != nil || n == 0 {
		return nil, err
	}
	out := take(&d.strs, n, d.room(2))
	for i := range out {
		if out[i], err = d.string(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// value reads one value.
func (d *decoder) value(depth int) (Value, error) {
	if depth > maxNest {
		return nil, fmt.Errorf("%w: nesting exceeds %d", ErrCorrupt, maxNest)
	}
	if len(d.rest) == 0 {
		return nil, ErrTruncated
	}
	kind := Kind(d.rest[0])
	d.rest = d.rest[1:]
	switch kind {
	case KindNil:
		return nil, nil
	case KindBool:
		if len(d.rest) < 1 {
			return nil, ErrTruncated
		}
		b := d.rest[0]
		d.rest = d.rest[1:]
		if b > 1 {
			return nil, fmt.Errorf("%w: bool byte %#x", ErrCorrupt, b)
		}
		return b == 1, nil
	case KindInt:
		u, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		i := unzigzag(u)
		if uint64(i) < 256 {
			return i, nil
		}
		return boxInt64(put(&d.words, d.room(3), uint64(i))), nil
	case KindUint:
		u, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if u < 256 {
			return u, nil
		}
		return boxUint64(put(&d.words, d.room(3), u)), nil
	case KindFloat:
		if len(d.rest) < 8 {
			return nil, ErrTruncated
		}
		u := binary.BigEndian.Uint64(d.rest)
		d.rest = d.rest[8:]
		if u < 256 {
			return math.Float64frombits(u), nil
		}
		return boxFloat64(put(&d.words, d.room(3), u)), nil
	case KindString:
		s, err := d.string()
		if err != nil {
			return nil, err
		}
		if s == "" {
			return s, nil
		}
		return boxString(put(&d.strs, d.room(2), s)), nil
	case KindBytes:
		b, err := d.bytes()
		if err != nil {
			return nil, err
		}
		return boxBytes(put(&d.blobs, d.room(2), b)), nil
	case KindList:
		n, err := d.count(1, "list elements")
		if err != nil {
			return nil, err
		}
		p := put(&d.lists, d.room(2), List{})
		if n > 0 {
			*p = take(&d.elems, n, d.room(1))
		}
		d.owed += n
		for i := range *p {
			d.siblings, d.owed = n-i, d.owed-1
			if (*p)[i], err = d.value(depth + 1); err != nil {
				return nil, err
			}
		}
		return boxList(p), nil
	case KindRecord:
		n, err := d.count(2, "record fields")
		if err != nil {
			return nil, err
		}
		rec := make(Record, n)
		d.owed += 2 * n
		var prev string
		for i := 0; i < n; i++ {
			d.siblings, d.owed = n-i, d.owed-2
			k, err := d.string()
			if err != nil {
				return nil, err
			}
			// Fields are written in key order, so any other order, or a
			// key twice, is a second representation of some record.
			if i > 0 && k <= prev {
				return nil, fmt.Errorf("%w: record key %q after %q", ErrCorrupt, k, prev)
			}
			prev = k
			if rec[k], err = d.value(depth + 1); err != nil {
				return nil, err
			}
		}
		return rec, nil
	case KindRef:
		var (
			r   Ref
			err error
		)
		if r.ID, err = d.string(); err != nil {
			return nil, err
		}
		if r.TypeName, err = d.string(); err != nil {
			return nil, err
		}
		u, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if u > math.MaxUint32 {
			return nil, fmt.Errorf("%w: ref epoch %d", ErrCorrupt, u)
		}
		r.Epoch = uint32(u)
		if r.Endpoints, err = d.strings("ref endpoints"); err != nil {
			return nil, err
		}
		if r.Context, err = d.strings("ref contexts"); err != nil {
			return nil, err
		}
		return r, nil
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, int(kind))
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
