// Package wire defines the ODP computational data model and its network
// representations.
//
// The paper's computational language requires that "all arguments and
// results are passed by copying references to ADT interfaces" (§4.4), with
// the engineering optimisation that objects with constant state — integers,
// booleans, strings and so forth — "can be copied across network links that
// support concrete representations of them, in place of interface
// references" (§4.5). Values in this package are exactly those concrete
// representations of constant ADTs, plus Ref, the distribution-transparent
// pointer to a mutable ADT interface.
//
// Two codecs are provided: a compact self-describing binary codec,
// PackedCodec (the platform's native network data representation), and a
// textual codec, TextCodec (used by federation interceptors to
// demonstrate translation between technology domains, §5.6).
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"
)

// Kind enumerates the value kinds of the computational data model.
type Kind int

// Value kinds. Nil is deliberately the zero value so that an absent value
// decodes to KindNil.
const (
	KindNil Kind = iota
	KindBool
	KindInt
	KindUint
	KindFloat
	KindString
	KindBytes
	KindList
	KindRecord
	KindRef
)

var kindNames = map[Kind]string{
	KindNil:    "nil",
	KindBool:   "bool",
	KindInt:    "int",
	KindUint:   "uint",
	KindFloat:  "float",
	KindString: "string",
	KindBytes:  "bytes",
	KindList:   "list",
	KindRecord: "record",
	KindRef:    "ref",
}

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Value is one element of the closed computational data model:
//
//	nil, bool, int64, uint64, float64, string, []byte, List, Record, Ref.
//
// Any other dynamic type is rejected by the codecs with ErrBadValue.
type Value interface{}

// List is an ordered sequence of values.
type List []Value

// Record is a named-field aggregate. Encoding is deterministic: fields are
// written in sorted key order.
type Record map[string]Value

// Ref is a distribution-transparent reference to an ADT interface: the
// "interface reference" of the engineering model. It names the interface,
// describes its type for signature checking, and lists one or more
// protocol access paths (§5.4 allows several network-level names per
// interface). Epoch is the relocation generation: a client holding a stale
// epoch consults the relocator (§5.4). Context is the federation trail for
// context-relative naming (§6).
type Ref struct {
	ID        string   // globally unique interface identifier
	TypeName  string   // interface type, resolvable via the type manager
	Endpoints []string // transport addresses in preference order
	Epoch     uint32   // relocation generation
	Context   []string // context-relative naming trail (outermost first)
}

// IsZero reports whether r is the zero reference.
func (r Ref) IsZero() bool {
	return r.ID == "" && r.TypeName == "" && len(r.Endpoints) == 0 && r.Epoch == 0 && len(r.Context) == 0
}

// WithContext returns a copy of r with ctx prepended to its context trail.
// Interceptors call this when a reference crosses a federation boundary so
// that the name remains resolvable relative to its defining context.
func (r Ref) WithContext(ctx string) Ref {
	nr := r
	nr.Context = make([]string, 0, len(r.Context)+1)
	nr.Context = append(nr.Context, ctx)
	nr.Context = append(nr.Context, r.Context...)
	nr.Endpoints = append([]string(nil), r.Endpoints...)
	return nr
}

// String implements fmt.Stringer for diagnostics.
func (r Ref) String() string {
	return fmt.Sprintf("ref(%s:%s@%v#%d)", r.ID, r.TypeName, r.Endpoints, r.Epoch)
}

// KindOf classifies v, returning KindNil for nil. The second result is
// false when v is outside the data model.
func KindOf(v Value) (Kind, bool) {
	switch v.(type) {
	case nil:
		return KindNil, true
	case bool:
		return KindBool, true
	case int64:
		return KindInt, true
	case uint64:
		return KindUint, true
	case float64:
		return KindFloat, true
	case string:
		return KindString, true
	case []byte:
		return KindBytes, true
	case List:
		return KindList, true
	case Record:
		return KindRecord, true
	case Ref:
		return KindRef, true
	default:
		return KindNil, false
	}
}

// Equal reports deep equality of two values. Byte slices compare by
// content; records compare by key set and per-key equality; refs compare by
// every field including endpoint order. Values of different dynamic types,
// and values outside the data model, are unequal to everything.
func Equal(a, b Value) bool {
	switch at := a.(type) {
	case nil:
		return b == nil
	case bool, int64, uint64, string:
		return a == b
	case float64:
		bt, ok := b.(float64)
		return ok && (at == bt || at != at && bt != bt) // NaN equals NaN, for round trips
	case []byte:
		bt, ok := b.([]byte)
		return ok && bytes.Equal(at, bt)
	case List:
		bt, ok := b.(List)
		return ok && slices.EqualFunc(at, bt, Equal)
	case Record:
		bt, ok := b.(Record)
		return ok && maps.EqualFunc(at, bt, Equal)
	case Ref:
		bt, ok := b.(Ref)
		return ok && at.ID == bt.ID && at.TypeName == bt.TypeName && at.Epoch == bt.Epoch &&
			slices.Equal(at.Endpoints, bt.Endpoints) && slices.Equal(at.Context, bt.Context)
	default:
		return false
	}
}

// Clone returns a deep copy of v. Mutable containers (bytes, lists,
// records, the slices inside refs) are copied so the result shares no
// storage with the input; this is the by-copy passing discipline of §4.4.
func Clone(v Value) Value {
	switch t := v.(type) {
	case []byte:
		out := make([]byte, len(t))
		copy(out, t)
		return out
	case List:
		out := make(List, len(t))
		for i, e := range t {
			out[i] = Clone(e)
		}
		return out
	case Record:
		out := make(Record, len(t))
		for k, e := range t {
			out[k] = Clone(e)
		}
		return out
	case Ref:
		t.Endpoints = append([]string(nil), t.Endpoints...)
		t.Context = append([]string(nil), t.Context...)
		return t
	default:
		return v
	}
}

// CloneArgs returns a vector whose mutable elements are deep-copied,
// enforcing the by-copy passing discipline of §4.4 without the codec.
// Vectors of constant-state values only — nil, bool, int, uint, float,
// string, the common case on the co-located fast path — are returned
// unchanged and allocation-free, the §4.5 engineering optimisation that
// constant objects need no copy.
func CloneArgs(vs []Value) []Value {
	for i, v := range vs {
		switch v.(type) {
		case nil, bool, int64, uint64, float64, string:
			continue
		default:
			out := make([]Value, len(vs))
			copy(out, vs[:i])
			for j := i; j < len(vs); j++ {
				out[j] = Clone(vs[j])
			}
			return out
		}
	}
	return vs
}

// sortedKeysInto appends the record's keys to buf in sorted order. Small
// records fit a caller-supplied stack buffer, so steady-state encoding of
// typical argument records allocates nothing; the insertion sort avoids
// the sort package's interface boxing.
func sortedKeysInto(buf []string, r Record) []string {
	for k := range r {
		i := len(buf)
		buf = append(buf, k)
		for i > 0 && buf[i-1] > k {
			buf[i] = buf[i-1]
			i--
		}
		buf[i] = k
	}
	return buf
}

// Codec translates between in-memory values and an octet representation.
// The platform's native codec is Packed; Text exists so that federation
// interceptors have a genuinely different technology domain to translate
// to (§5.6).
type Codec interface {
	// Name identifies the codec in federation negotiations.
	Name() string
	// Encode appends the representation of v to dst and returns it.
	Encode(dst []byte, v Value) ([]byte, error)
	// Decode reads one value from src, returning it and the remaining
	// bytes.
	Decode(src []byte) (Value, []byte, error)
}

// Errors reported by codecs.
var (
	// ErrBadValue reports a value outside the computational data model.
	ErrBadValue = errors.New("wire: value outside data model")
	// ErrTruncated reports an encoding that ends mid-value.
	ErrTruncated = errors.New("wire: truncated encoding")
	// ErrCorrupt reports an undecodable encoding.
	ErrCorrupt = errors.New("wire: corrupt encoding")
)

const (
	// maxNest bounds recursion while decoding adversarial input.
	maxNest = 64
	// maxElems bounds list/record sizes while decoding.
	maxElems = 1 << 24
)

// EncodeAllInto appends the count-prefixed encoding of vs to dst and
// returns the extended slice. The hot path encodes protocol header and
// argument vector into one pooled buffer with this; EncodeAll is the
// allocating convenience wrapper.
func EncodeAllInto(c Codec, dst []byte, vs []Value) ([]byte, error) {
	dst = AppendCount(dst, len(vs))
	var err error
	for _, v := range vs {
		if dst, err = c.Encode(dst, v); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// AppendCount appends the prefix EncodeAllInto writes before n values,
// for a caller that appends the n values itself.
func AppendCount(dst []byte, n int) []byte { return binary.BigEndian.AppendUint32(dst, uint32(n)) }

// EncodeAll encodes each value in vs back to back.
func EncodeAll(c Codec, vs []Value) ([]byte, error) {
	return EncodeAllInto(c, nil, vs)
}

// DecodeAll decodes a sequence written by EncodeAll.
func DecodeAll(c Codec, src []byte) ([]Value, error) {
	if p, ok := c.(PackedCodec); ok {
		return p.DecodeAllAlias(nil, src)
	}
	n, rest, err := readVectorCount(src)
	if err != nil {
		return nil, err
	}
	out := make([]Value, 0, n)
	for i := 0; i < n; i++ {
		var v Value
		if v, rest, err = c.Decode(rest); err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(rest) != 0 {
		return nil, trailing(rest)
	}
	return out, nil
}

// readVectorCount reads the prefix AppendCount wrote and refuses, before
// it sizes anything, a count the input cannot hold at a byte a value or
// more in either codec.
func readVectorCount(src []byte) (int, []byte, error) {
	n, rest, err := readU32(src)
	if err != nil {
		return 0, nil, err
	}
	if n > maxElems {
		return 0, nil, fmt.Errorf("%w: %d values", ErrCorrupt, n)
	}
	if int(n) > len(rest) {
		return 0, nil, ErrTruncated
	}
	return int(n), rest, nil
}

// trailing is the error for input left over after a vector's last value.
func trailing(rest []byte) error {
	return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(rest))
}

func readU32(src []byte) (uint32, []byte, error) {
	if len(src) < 4 {
		return 0, nil, ErrTruncated
	}
	return binary.BigEndian.Uint32(src), src[4:], nil
}

func readLenBytes(src []byte) ([]byte, []byte, error) {
	n, rest, err := readU32(src)
	if err != nil {
		return nil, nil, err
	}
	if uint32(len(rest)) < n {
		return nil, nil, ErrTruncated
	}
	return rest[:n], rest[n:], nil
}
