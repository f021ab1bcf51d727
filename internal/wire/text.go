package wire

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// TextCodec is a JSON-based representation used as the "other technology
// domain" for federation interceptors (§5.6): a gateway standing on a
// technology boundary re-marshals each invocation between PackedCodec and
// TextCodec. It is deliberately self-describing and tagged so that all ten
// kinds round-trip exactly (JSON alone cannot distinguish int64 from
// float64 or bytes from string).
type TextCodec struct{}

var _ Codec = TextCodec{}

// Name implements Codec.
func (TextCodec) Name() string { return "ansa-text/1" }

// Encode implements Codec.
func (c TextCodec) Encode(dst []byte, v Value) ([]byte, error) {
	t, err := toTagged(v, 0)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(t)
	if err != nil {
		return nil, fmt.Errorf("wire: text encode: %w", err)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...), nil
}

// Decode implements Codec.
func (c TextCodec) Decode(src []byte) (Value, []byte, error) {
	b, rest, err := readLenBytes(src)
	if err != nil {
		return nil, nil, err
	}
	var t tagged
	if err := json.Unmarshal(b, &t); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	v, err := fromTagged(t, 0)
	if err != nil {
		return nil, nil, err
	}
	return v, rest, nil
}

// tagged is the JSON shape: {"k": "<kind>", "v": <payload>}.
type tagged struct {
	K string          `json:"k"`
	V json.RawMessage `json:"v,omitempty"`
}

// taggedRef holds Ref's strings as bytes, which JSON carries base64 —
// as tagged carries a string value: JSON strings are UTF-8, and an
// identifier need not be.
type taggedRef struct {
	ID        []byte   `json:"id"`
	TypeName  []byte   `json:"type"`
	Endpoints [][]byte `json:"endpoints,omitempty"`
	Epoch     uint32   `json:"epoch,omitempty"`
	Context   [][]byte `json:"context,omitempty"`
}

func toTagged(v Value, depth int) (tagged, error) {
	if depth > maxNest {
		return tagged{}, fmt.Errorf("%w: nesting exceeds %d", ErrBadValue, maxNest)
	}
	raw := func(x interface{}) (tagged, json.RawMessage, error) {
		b, err := json.Marshal(x)
		return tagged{}, b, err
	}
	switch t := v.(type) {
	case nil:
		return tagged{K: "nil"}, nil
	case bool:
		_, b, err := raw(t)
		return tagged{K: "bool", V: b}, err
	case int64:
		// Strings preserve full 64-bit precision through JSON.
		_, b, err := raw(strconv.FormatInt(t, 10))
		return tagged{K: "int", V: b}, err
	case uint64:
		_, b, err := raw(strconv.FormatUint(t, 10))
		return tagged{K: "uint", V: b}, err
	case float64:
		// Bit pattern as string: survives NaN/Inf and precision loss.
		_, b, err := raw(strconv.FormatUint(math.Float64bits(t), 16))
		return tagged{K: "float", V: b}, err
	case string:
		// Base64 so that non-UTF-8 strings survive JSON transport.
		_, b, err := raw(base64.StdEncoding.EncodeToString([]byte(t)))
		return tagged{K: "string", V: b}, err
	case []byte:
		_, b, err := raw(base64.StdEncoding.EncodeToString(t))
		return tagged{K: "bytes", V: b}, err
	case List:
		elems := make([]tagged, len(t))
		for i, e := range t {
			te, err := toTagged(e, depth+1)
			if err != nil {
				return tagged{}, err
			}
			elems[i] = te
		}
		_, b, err := raw(elems)
		return tagged{K: "list", V: b}, err
	case Record:
		// Keys base64, like string values: a key need not be UTF-8.
		fields := make(map[string]tagged, len(t))
		for k, e := range t {
			te, err := toTagged(e, depth+1)
			if err != nil {
				return tagged{}, err
			}
			fields[base64.StdEncoding.EncodeToString([]byte(k))] = te
		}
		_, b, err := raw(fields)
		return tagged{K: "record", V: b}, err
	case Ref:
		_, b, err := raw(taggedRef{
			ID:        []byte(t.ID),
			TypeName:  []byte(t.TypeName),
			Endpoints: convertAll[[]byte](t.Endpoints),
			Epoch:     t.Epoch,
			Context:   convertAll[[]byte](t.Context),
		})
		return tagged{K: "ref", V: b}, err
	default:
		return tagged{}, fmt.Errorf("%w: %T", ErrBadValue, v)
	}
}

func fromTagged(t tagged, depth int) (Value, error) {
	if depth > maxNest {
		return nil, fmt.Errorf("%w: nesting exceeds %d", ErrCorrupt, maxNest)
	}
	switch t.K {
	case "nil":
		return nil, nil
	case "bool":
		var b bool
		if err := json.Unmarshal(t.V, &b); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		return b, nil
	case "int":
		var s string
		if err := json.Unmarshal(t.V, &s); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		return n, nil
	case "uint":
		var s string
		if err := json.Unmarshal(t.V, &s); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		return n, nil
	case "float":
		var s string
		if err := json.Unmarshal(t.V, &s); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		bits, err := strconv.ParseUint(s, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		return math.Float64frombits(bits), nil
	case "string":
		var s string
		if err := json.Unmarshal(t.V, &s); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		b, err := base64.StdEncoding.DecodeString(s)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		return string(b), nil
	case "bytes":
		var s string
		if err := json.Unmarshal(t.V, &s); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		b, err := base64.StdEncoding.DecodeString(s)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		return b, nil
	case "list":
		var elems []tagged
		if err := json.Unmarshal(t.V, &elems); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		list := make(List, len(elems))
		for i, te := range elems {
			v, err := fromTagged(te, depth+1)
			if err != nil {
				return nil, err
			}
			list[i] = v
		}
		return list, nil
	case "record":
		var fields map[string]tagged
		if err := json.Unmarshal(t.V, &fields); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		rec := make(Record, len(fields))
		for k, te := range fields {
			key, err := base64.StdEncoding.DecodeString(k)
			if err != nil {
				return nil, fmt.Errorf("%w: record key: %v", ErrCorrupt, err)
			}
			if _, dup := rec[string(key)]; dup {
				return nil, fmt.Errorf("%w: two encodings of record key %q", ErrCorrupt, key)
			}
			if rec[string(key)], err = fromTagged(te, depth+1); err != nil {
				return nil, err
			}
		}
		return rec, nil
	case "ref":
		var tr taggedRef
		if err := json.Unmarshal(t.V, &tr); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		return Ref{
			ID:        string(tr.ID),
			TypeName:  string(tr.TypeName),
			Endpoints: convertAll[string](tr.Endpoints),
			Epoch:     tr.Epoch,
			Context:   convertAll[string](tr.Context),
		}, nil
	default:
		return nil, fmt.Errorf("%w: unknown kind %q", ErrCorrupt, t.K)
	}
}

// convertAll converts each of in between string and []byte, nil kept nil.
func convertAll[U, T ~string | ~[]byte](in []T) []U {
	if in == nil {
		return nil
	}
	out := make([]U, len(in))
	for i, v := range in {
		out[i] = U(v)
	}
	return out
}

// Transcode re-encodes src from one codec to another, the core act of a
// federation interceptor standing on a technology boundary (§5.6).
func Transcode(from, to Codec, src []byte) ([]byte, error) {
	v, rest, err := from.Decode(src)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(rest))
	}
	return to.Encode(nil, v)
}
