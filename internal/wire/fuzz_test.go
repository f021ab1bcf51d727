package wire

import (
	"math"
	"reflect"
	"testing"
)

// fullRef sets every exported Ref field; TestFullRefSurvivesBothCodecs
// keeps it that way as Ref grows.
var fullRef = Ref{
	ID:        "obj-42",
	TypeName:  "odp.example/Tally",
	Endpoints: []string{"a", "b", "c"},
	Epoch:     7,
	Context:   []string{"root", "cell-3"},
}

// fuzzSeedValues is the fuzz seed corpus proper: at least one value of
// every Kind in the data model, plus structurally adversarial shapes
// (deep nesting, empty aggregates, a fully populated Ref) that give the
// mutator productive starting points. TestFuzzSeedCoversEveryKind keeps
// this list honest as the data model grows.
func fuzzSeedValues() []Value {
	return []Value{
		nil,                              // KindNil
		true,                             // KindBool
		int64(math.MinInt64),             // KindInt
		uint64(math.MaxUint64),           // KindUint
		math.Copysign(0, -1),             // KindFloat (negative zero)
		"héllo — 日本",                     // KindString
		[]byte{0x00, 0xff},               // KindBytes
		List{List{List{List{int64(1)}}}}, // KindList, deep
		Record{"": nil, "k": Record{"v": List{}}}, // KindRecord, empty key
		fullRef, // KindRef, every field set
		List{fullRef, Record{"self": Ref{}}, true}, // mixed aggregate
	}
}

// TestFuzzSeedCoversEveryKind fails if a Kind is added to the data model
// without a corresponding entry in the fuzz seed corpus.
func TestFuzzSeedCoversEveryKind(t *testing.T) {
	seen := map[Kind]bool{}
	var mark func(v Value)
	mark = func(v Value) {
		k, ok := KindOf(v)
		if !ok {
			t.Fatalf("seed value %v is outside the data model", v)
		}
		seen[k] = true
		switch t := v.(type) {
		case List:
			for _, e := range t {
				mark(e)
			}
		case Record:
			for _, e := range t {
				mark(e)
			}
		}
	}
	for _, v := range fuzzSeedValues() {
		mark(v)
	}
	for k := range kindNames {
		if !seen[k] {
			t.Errorf("fuzz seed corpus has no value of kind %v", k)
		}
	}
}

// TestFullRefSurvivesBothCodecs is codec totality for the reference
// type: the seed's fullRef sets every exported Ref field, and both codecs
// bring it back deep-equal. Equal compares Ref fields one by one, so a
// field added to Ref that no codec carries would slip past it.
func TestFullRefSurvivesBothCodecs(t *testing.T) {
	rv := reflect.ValueOf(fullRef)
	for i := 0; i < rv.NumField(); i++ {
		if f := rv.Type().Field(i); f.IsExported() && rv.Field(i).IsZero() {
			t.Errorf("fullRef leaves Ref.%s unset", f.Name)
		}
	}
	for _, c := range []Codec{PackedCodec{}, TextCodec{}} {
		enc, err := c.Encode(nil, fullRef)
		if err != nil {
			t.Fatalf("%s: encode: %v", c.Name(), err)
		}
		got, rest, err := c.Decode(enc)
		if err != nil || len(rest) != 0 {
			t.Fatalf("%s: decode: %v (%d bytes left)", c.Name(), err, len(rest))
		}
		if !reflect.DeepEqual(got, fullRef) {
			t.Errorf("%s: got %#v, want %#v", c.Name(), got, fullRef)
		}
	}
}

// FuzzTextDecode exercises the textual decoder against arbitrary input.
// Without -fuzz it runs the seed corpus as regular tests; with
// `go test -fuzz=FuzzTextDecode ./internal/wire` it explores further.
// Property: decode never panics, and anything that decodes cleanly (with
// no trailing bytes) re-encodes to a decodable equal value.
// FuzzPackedDecode is the same property for the packed codec.
func FuzzTextDecode(f *testing.F) {
	c := TextCodec{}
	for _, v := range append(sampleValues(), fuzzSeedValues()...) {
		enc, err := c.Encode(nil, v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, rest, err := c.Decode(data)
		if err != nil || len(rest) != 0 {
			return
		}
		re, err := c.Encode(nil, v)
		if err != nil {
			t.Fatalf("decoded value %v failed to re-encode: %v", v, err)
		}
		v2, _, err := c.Decode(re)
		if err != nil || !Equal(v, v2) {
			t.Fatalf("text re-encode mismatch: %v vs %v (%v)", v, v2, err)
		}
	})
}
