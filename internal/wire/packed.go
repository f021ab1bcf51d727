package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
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
		return appendUvarint(append(dst, byte(KindInt)), zigzag(t)), nil
	case uint64:
		return appendUvarint(append(dst, byte(KindUint)), t), nil
	case float64:
		return binary.BigEndian.AppendUint64(append(dst, byte(KindFloat)), math.Float64bits(t)), nil
	case string:
		return c.AppendString(dst, t), nil
	case []byte:
		return append(appendUvarint(append(dst, byte(KindBytes)), uint64(len(t))), t...), nil
	case List:
		return c.appendList(dst, t, depth)
	case Record:
		return c.appendRecord(dst, t, depth)
	case Ref:
		return appendRef(dst, t.ID, t.TypeName, t.Epoch, t.Endpoints, t.Context), nil
	default:
		return nil, fmt.Errorf("%w: %T", ErrBadValue, v)
	}
}

// appendRecord and appendRef are functions of their own for encode's
// frame: the key buffer and the ref's appends would be live at every level
// of the recursion, and a dispatch goroutine starts on a 2 KiB stack.
func (c PackedCodec) appendRecord(dst []byte, r Record, depth int) ([]byte, error) {
	dst = appendUvarint(append(dst, byte(KindRecord)), uint64(len(r)))
	var keyBuf [16]string
	var err error
	for _, k := range sortedKeysInto(keyBuf[:0], r) {
		dst = appendPackedString(dst, k)
		if dst, err = c.encode(dst, r[k], depth+1); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

func appendRef(dst []byte, id, typeName string, epoch uint32, endpoints, context []string) []byte {
	dst = appendPackedString(append(dst, byte(KindRef)), id)
	dst = appendPackedString(dst, typeName)
	dst = appendUvarint(dst, uint64(epoch))
	dst = appendUvarint(dst, uint64(len(endpoints)))
	for _, ep := range endpoints {
		dst = appendPackedString(dst, ep)
	}
	dst = appendUvarint(dst, uint64(len(context)))
	for _, cx := range context {
		dst = appendPackedString(dst, cx)
	}
	return dst
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

// appendList writes a run of int64, uint64 or string elements in its own
// loop, without a recursive call an element: the bytes encode would append
// for each, under the nesting bound it would apply (and reports).
func (c PackedCodec) appendList(dst []byte, vs []Value, depth int) ([]byte, error) {
	dst = appendUvarint(append(dst, byte(KindList)), uint64(len(vs)))
	var err error
	for _, e := range vs {
		if depth < maxNest {
			switch t := e.(type) {
			case int64:
				dst = appendUvarint(append(dst, byte(KindInt)), zigzag(t))
				continue
			case uint64:
				dst = appendUvarint(append(dst, byte(KindUint)), t)
				continue
			case string:
				dst = c.AppendString(dst, t)
				continue
			}
		}
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
// it holds; a list reads each run of int64, uint64 or string elements in
// one loop (run). Every slice handed out is cap-limited to its own
// region: an append to one value never writes into its neighbour. The
// price is retention by message: keeping any part of a decoded message
// keeps that message's slabs, as a Go substring keeps its string.
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

// uvarint reads one varint. The one-byte form — every small integer and
// nearly every length — is taken here, without a call.
func (d *decoder) uvarint() (u uint64, err error) {
	if len(d.rest) > 0 && d.rest[0] < 0x80 {
		u, d.rest = uint64(d.rest[0]), d.rest[1:]
		return u, nil
	}
	u, d.rest, err = readUvarint(d.rest) // rest is nil beside an error, and every error ends the decode
	return u, err
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

// run reads list elements tagged kind — int64, uint64 or string — into
// out while the tag holds, each as scalar would but with a varint that
// has ten bytes behind it read in place, and returns how many it read.
func (d *decoder) run(out []Value, kind Kind) (k int, err error) {
	rest, words, strs := d.rest, d.words, d.strs
	for ; k < len(out) && len(rest) > 0 && Kind(rest[0]) == kind; k++ {
		room := d.siblings - k // element k's siblings, which d.room caps a chunk at
		if kind == KindString {
			var s string
			d.rest = rest[1:]
			if s, err = d.string(); err != nil {
				break
			}
			if rest, out[k] = d.rest, ""; s != "" {
				out[k] = boxString(put(&strs, min(room, 1+len(rest)/2), s))
			}
			continue
		}
		u, n, ok := uint64(0), 0, false
		if len(rest) > maxVarintLen {
			if u, n, ok = uvarintWord(rest[1:]); n > 8 {
				u, n, ok = uvarintTail(rest[1:], u)
			}
		}
		if ok {
			rest = rest[1+n:]
		} else if u, rest, err = readUvarint(rest[1:]); err != nil {
			break
		}
		if kind == KindInt {
			u = uint64(unzigzag(u))
		}
		p := &smalls[u&0xff]
		if u >= 256 {
			p = put(&words, min(room, 1+len(rest)/3), u)
		}
		if kind == KindInt {
			out[k] = boxInt64(p)
		} else {
			out[k] = boxUint64(p)
		}
	}
	d.rest, d.words, d.strs = rest, words, strs
	return k, err
}

// scalar reads the payload of an int64, uint64 or string outside a list;
// run reads them inside one.
func (d *decoder) scalar(kind Kind) (Value, error) {
	if kind == KindString {
		s, err := d.string()
		if err != nil || s == "" {
			return s, err
		}
		return boxString(put(&d.strs, d.room(2), s)), nil
	}
	u, err := d.uvarint()
	switch {
	case err != nil:
		return nil, err
	case kind == KindUint && u < 256:
		return u, nil
	case kind == KindUint:
		return boxUint64(put(&d.words, d.room(3), u)), nil
	}
	i := unzigzag(u)
	if uint64(i) < 256 {
		return i, nil
	}
	return boxInt64(put(&d.words, d.room(3), uint64(i))), nil
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
	case KindInt, KindUint, KindString:
		return d.scalar(kind)
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
		for i := 0; i < n; {
			d.siblings, d.owed = n-i, d.owed-1
			// A run of int64, uint64 or string elements is read in one
			// loop, without a call an element; past the nesting bound or
			// the input, value says which.
			kind := KindNil
			if depth < maxNest && len(d.rest) > 0 {
				kind = Kind(d.rest[0])
			}
			k := 1
			switch kind {
			case KindInt, KindUint, KindString:
				k, err = d.run((*p)[i:], kind)
				d.owed -= k - 1
			default:
				(*p)[i], err = d.value(depth + 1)
			}
			if err != nil {
				return nil, err
			}
			i += k
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

const (
	// maxVarintLen is the longest legal LEB128 encoding of a uint64.
	maxVarintLen = 10
	// msbs is the continuation bit of each of a varint's first eight bytes.
	msbs = 0x8080808080808080
)

// readUvarint decodes one strict LEB128 varint. Truncated input yields
// ErrTruncated; encodings longer than ten bytes, overflowing 64 bits,
// or non-minimal (a multi-byte encoding whose final byte is zero — the
// "overlong" form) yield ErrCorrupt.
//
// Input shorter than ten bytes is read from a zero-padded copy, where
// padding looks like a terminator: an encoding that ends beyond len(src)
// is truncated, tested before all else.
func readUvarint(src []byte) (uint64, []byte, error) {
	b := src
	if len(b) < maxVarintLen {
		var pad [maxVarintLen]byte
		copy(pad[:], src)
		b = pad[:]
	}
	u, n, ok := uvarintWord(b)
	if n > 8 {
		u, n, ok = uvarintTail(b, u)
	}
	if ok && n <= len(src) {
		return u, src[n:], nil
	}
	switch last := b[n-1]; {
	case n > len(src):
		return 0, nil, ErrTruncated
	case last >= 0x80:
		return 0, nil, fmt.Errorf("%w: varint exceeds %d bytes", ErrCorrupt, maxVarintLen)
	case n == maxVarintLen && last > 1:
		return 0, nil, fmt.Errorf("%w: varint overflows 64 bits", ErrCorrupt)
	default:
		return 0, nil, fmt.Errorf("%w: overlong varint", ErrCorrupt)
	}
}

// uvarintWord and uvarintTail, readUvarint's core, are split so each
// inlines. For b of ten bytes or more they return the value, length and
// strictness of its varint (where not strict, n is where it ends, or ten).
// uvarintWord reads eight bytes as one word, returning n = 9 when none
// ends the encoding: the lowest set bit of ^u&msbs does, and keep covers
// the bytes to it. Its last byte is zero (overlong but for a lone zero)
// when u&keep|1 <= keep>>8. The seven-bit groups close up in three steps
// that move each pair's upper group h down: u - h + h>>s = u - h*(2^s-1)>>s.
func uvarintWord(b []byte) (u uint64, n int, ok bool) {
	u = binary.LittleEndian.Uint64(b)
	keep := ^u & msbs
	keep ^= keep - 1
	n, ok = bits.Len64(keep)>>3+int(keep&u>>63), u&keep|1 > keep>>8
	u &= keep &^ msbs
	u -= u & 0x7f007f007f007f00 >> 1
	u -= u & 0x3fff00003fff0000 * 3 >> 2
	u -= u & 0x0fffffff00000000 * 15 >> 4
	return u, n, ok
}

// uvarintTail: nine bytes are strict when the ninth is not zero; ten when
// the tenth is 1, bit 63, which the ninth's continuation bit already sets.
func uvarintTail(b []byte, u uint64) (uint64, int, bool) {
	x := uint64(binary.LittleEndian.Uint16(b[8:]))
	return u | x<<56, 9 + int(x>>7&1), byte(x)-1 < 0x7f || x-0x180 < 0x80
}

// appendUvarint appends the varint of u: the mirror of readUvarint. Room
// for the longest encoding is reserved once and eight bytes are stored at
// once, the seven-bit groups spread apart by the same three steps in
// reverse.
func appendUvarint(dst []byte, u uint64) []byte {
	if u < 0x80 {
		return append(dst, byte(u))
	}
	i := len(dst)
	dst = slices.Grow(dst, maxVarintLen)[:i+maxVarintLen]
	n := (bits.Len64(u) + 6) / 7
	w := u & (1<<56 - 1)
	w = w&0x000000000fffffff | w&0x00fffffff0000000<<4
	w = w&0x00003fff00003fff | w&0x0fffc0000fffc000<<2
	w = w&0x007f007f007f007f | w&0x3f803f803f803f80<<1
	cont := msbs & (uint64(1)<<(8*(n-1)) - 1) // every byte before the last; a shift by 64 or more is 0
	binary.LittleEndian.PutUint64(dst[i:], w|cont)
	dst[i+8], dst[i+9] = byte(u>>56)&0x7f|byte(u>>63)<<7, byte(u>>63)
	return dst[:i+n]
}

func appendPackedString(dst []byte, s string) []byte {
	return append(appendUvarint(dst, uint64(len(s))), s...)
}
