package wire

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

var sampleRef = Ref{
	ID:        "if-42",
	TypeName:  "BankAccount",
	Endpoints: []string{"inproc:n1", "tcp:10.0.0.1:7000"},
	Epoch:     3,
	Context:   []string{"org-a", "dept-7"},
}

func sampleValues() []Value {
	return []Value{
		nil,
		true,
		false,
		int64(0),
		int64(-1),
		int64(math.MaxInt64),
		int64(math.MinInt64),
		uint64(0),
		uint64(math.MaxUint64),
		float64(0),
		3.14159,
		math.Inf(1),
		math.Inf(-1),
		"",
		"hello, ODP",
		"unicode: héllo — 日本",
		[]byte{},
		[]byte{0, 1, 2, 255},
		List{},
		List{int64(1), "two", List{true}},
		Record{},
		Record{"a": int64(1), "b": Record{"c": "d"}, "z": nil},
		sampleRef,
		Ref{},
		List{sampleRef, Record{"r": sampleRef}},
	}
}

func codecs() []Codec {
	return []Codec{PackedCodec{}, TextCodec{}}
}

func TestRoundTripSamples(t *testing.T) {
	for _, c := range codecs() {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			for i, v := range sampleValues() {
				enc, err := c.Encode(nil, v)
				if err != nil {
					t.Fatalf("value %d (%v): encode: %v", i, v, err)
				}
				got, rest, err := c.Decode(enc)
				if err != nil {
					t.Fatalf("value %d (%v): decode: %v", i, v, err)
				}
				if len(rest) != 0 {
					t.Fatalf("value %d: %d trailing bytes", i, len(rest))
				}
				if !Equal(v, got) {
					t.Fatalf("value %d: round trip mismatch: in=%v out=%v", i, v, got)
				}
			}
		})
	}
}

func TestRoundTripNaN(t *testing.T) {
	for _, c := range codecs() {
		enc, err := c.Encode(nil, math.NaN())
		if err != nil {
			t.Fatalf("%s: encode NaN: %v", c.Name(), err)
		}
		got, _, err := c.Decode(enc)
		if err != nil {
			t.Fatalf("%s: decode NaN: %v", c.Name(), err)
		}
		f, ok := got.(float64)
		if !ok || !math.IsNaN(f) {
			t.Fatalf("%s: NaN round trip produced %v", c.Name(), got)
		}
	}
}

func TestRejectForeignValue(t *testing.T) {
	type notAValue struct{}
	for _, c := range codecs() {
		if _, err := c.Encode(nil, notAValue{}); err == nil {
			t.Fatalf("%s: expected error encoding foreign type", c.Name())
		}
		if _, err := c.Encode(nil, int32(3)); err == nil {
			t.Fatalf("%s: expected error encoding int32 (only int64 is in the model)", c.Name())
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	c := PackedCodec{}
	enc, err := c.Encode(nil, sampleValues()[len(sampleValues())-1])
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := c.Decode(enc[:cut]); err == nil {
			t.Fatalf("decode of %d/%d bytes succeeded unexpectedly", cut, len(enc))
		}
	}
}

func TestDecodeGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := PackedCodec{}
	for i := 0; i < 2000; i++ {
		buf := make([]byte, rng.Intn(64))
		rng.Read(buf)
		// Must not panic; error or success both acceptable.
		v, rest, err := c.Decode(buf)
		_ = v
		_ = rest
		_ = err
	}
}

func TestRecordEncodingDeterministic(t *testing.T) {
	rec := Record{"zebra": int64(1), "apple": int64(2), "mango": int64(3)}
	c := PackedCodec{}
	first, err := c.Encode(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		again, err := c.Encode(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		if string(first) != string(again) {
			t.Fatal("record encoding is not deterministic")
		}
	}
}

func TestEncodeAllDecodeAll(t *testing.T) {
	for _, c := range codecs() {
		vs := sampleValues()
		enc, err := EncodeAll(c, vs)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		got, err := DecodeAll(c, enc)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if len(got) != len(vs) {
			t.Fatalf("%s: got %d values want %d", c.Name(), len(got), len(vs))
		}
		for i := range vs {
			if !Equal(vs[i], got[i]) {
				t.Fatalf("%s: value %d mismatch", c.Name(), i)
			}
		}
	}
}

func TestTranscodeBetweenCodecs(t *testing.T) {
	bin, txt := PackedCodec{}, TextCodec{}
	for i, v := range sampleValues() {
		enc, err := bin.Encode(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		asText, err := Transcode(bin, txt, enc)
		if err != nil {
			t.Fatalf("value %d: to text: %v", i, err)
		}
		back, err := Transcode(txt, bin, asText)
		if err != nil {
			t.Fatalf("value %d: to packed: %v", i, err)
		}
		got, _, err := bin.Decode(back)
		if err != nil {
			t.Fatalf("value %d: decode: %v", i, err)
		}
		if !Equal(v, got) {
			t.Fatalf("value %d: transcode round trip mismatch: %v != %v", i, v, got)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	orig := Record{
		"list":  List{int64(1), []byte{9}},
		"bytes": []byte{1, 2, 3},
		"ref":   sampleRef,
	}
	cl, ok := Clone(orig).(Record)
	if !ok {
		t.Fatal("clone changed kind")
	}
	if !Equal(orig, cl) {
		t.Fatal("clone not equal to original")
	}
	cl["bytes"].([]byte)[0] = 99
	cl["list"].(List)[0] = int64(42)
	r := cl["ref"].(Ref)
	r.Endpoints[0] = "mutated"
	if orig["bytes"].([]byte)[0] != 1 {
		t.Fatal("clone shares byte storage")
	}
	if orig["list"].(List)[0] != int64(1) {
		t.Fatal("clone shares list storage")
	}
	if orig["ref"].(Ref).Endpoints[0] != "inproc:n1" {
		t.Fatal("clone shares ref endpoint storage")
	}
}

func TestEqualSemantics(t *testing.T) {
	tests := []struct {
		name string
		a, b Value
		want bool
	}{
		{"nil-nil", nil, nil, true},
		{"nil-int", nil, int64(0), false},
		{"int-uint", int64(3), uint64(3), false},
		{"bytes-equal", []byte{1, 2}, []byte{1, 2}, true},
		{"bytes-len", []byte{1, 2}, []byte{1}, false},
		{"list-nested", List{List{int64(1)}}, List{List{int64(1)}}, true},
		{"record-key", Record{"a": int64(1)}, Record{"b": int64(1)}, false},
		{"ref-epoch", sampleRef, func() Value { r := sampleRef; r.Epoch = 9; return r }(), false},
		{"ref-same", sampleRef, sampleRef, true},
		{"ref-endpoint-order", Ref{Endpoints: []string{"a", "b"}}, Ref{Endpoints: []string{"b", "a"}}, false},
		{"ref-context", Ref{Context: []string{"a"}}, Ref{Context: []string{"a", "b"}}, false},
		{"ref-nil-empty-lists", Ref{ID: "x"}, Ref{ID: "x", Endpoints: []string{}, Context: []string{}}, true},
		{"nan-nan", math.NaN(), math.NaN(), true},
		{"nan-zero", math.NaN(), 0.0, false},
		{"zero-negative-zero", 0.0, math.Copysign(0, -1), true},
		{"float-int", 1.0, int64(1), false},
		{"bool", true, true, true},
		{"bool-differs", true, false, false},
		{"string", "a", "a", true},
		{"string-bytes", "a", []byte("a"), false},
		{"nil-empty-string", nil, "", false},
		{"nil-empty-list", nil, List{}, false},
		{"nil-empty-bytes", nil, []byte{}, false},
		{"nil-bytes-empty-bytes", []byte(nil), []byte{}, true},
		{"nil-list-empty-list", List(nil), List{}, true},
		{"bytes-content", bytes.Repeat([]byte{7}, 8192), append(bytes.Repeat([]byte{7}, 8191), 8), false},
		{"list-len", List{int64(1)}, List{int64(1), nil}, false},
		{"list-record", List{}, Record{}, false},
		{"record-same-keys", Record{"a": int64(1), "b": nil}, Record{"b": nil, "a": int64(1)}, true},
		{"record-value", Record{"a": int64(1)}, Record{"a": int64(2)}, false},
		{"record-nil-value-missing-key", Record{"a": nil, "b": nil}, Record{"a": nil, "c": nil}, false},
		{"record-subset", Record{"a": nil}, Record{"a": nil, "b": nil}, false},
		{"foreign-itself", 42, 42, false},
		{"foreign-model", int32(1), int64(1), false},
		{"foreign-nil", struct{}{}, nil, false},
		{"foreign-uncomparable", map[string]int{}, "a", false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Equal(tt.a, tt.b); got != tt.want {
				t.Fatalf("Equal(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
			if got := Equal(tt.b, tt.a); got != tt.want {
				t.Fatalf("Equal(%v, %v) = %v, want %v", tt.b, tt.a, got, tt.want)
			}
		})
	}
}

// genValue builds a random value of bounded depth for property testing.
func genValue(rng *rand.Rand, depth int) Value {
	max := 10
	if depth <= 0 {
		max = 7 // leaves only
	}
	switch rng.Intn(max) {
	case 0:
		return nil
	case 1:
		return rng.Intn(2) == 0
	case 2:
		return rng.Int63() - rng.Int63()
	case 3:
		return rng.Uint64()
	case 4:
		return rng.NormFloat64()
	case 5:
		b := make([]byte, rng.Intn(16))
		rng.Read(b)
		return string(b)
	case 6:
		b := make([]byte, rng.Intn(16))
		rng.Read(b)
		return b
	case 7:
		n := rng.Intn(4)
		l := make(List, n)
		for i := range l {
			l[i] = genValue(rng, depth-1)
		}
		return l
	case 8:
		n := rng.Intn(4)
		r := make(Record, n)
		for i := 0; i < n; i++ {
			key := string(rune('a' + rng.Intn(26)))
			r[key] = genValue(rng, depth-1)
		}
		return r
	default:
		return Ref{
			ID:        "id" + string(rune('a'+rng.Intn(26))),
			TypeName:  "T" + string(rune('A'+rng.Intn(26))),
			Endpoints: []string{"ep1", "ep2"}[:rng.Intn(3)],
			Epoch:     rng.Uint32() % 100,
		}
	}
}

type anyValue struct{ V Value }

// Generate implements quick.Generator.
func (anyValue) Generate(rng *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(anyValue{V: genValue(rng, 3)})
}

func TestPropertyRoundTrip(t *testing.T) {
	for _, c := range codecs() {
		c := c
		prop := func(av anyValue) bool {
			enc, err := c.Encode(nil, av.V)
			if err != nil {
				return false
			}
			got, rest, err := c.Decode(enc)
			if err != nil || len(rest) != 0 {
				return false
			}
			return Equal(av.V, got)
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
	}
}

func TestPropertyCloneEqual(t *testing.T) {
	prop := func(av anyValue) bool {
		return Equal(av.V, Clone(av.V))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyEqualReflexiveSymmetric(t *testing.T) {
	prop := func(a, b anyValue) bool {
		if !Equal(a.V, a.V) {
			return false
		}
		return Equal(a.V, b.V) == Equal(b.V, a.V)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestWithContext(t *testing.T) {
	r := sampleRef.WithContext("gateway-x")
	if len(r.Context) != 3 || r.Context[0] != "gateway-x" || r.Context[1] != "org-a" {
		t.Fatalf("context trail wrong: %v", r.Context)
	}
	// Original unchanged.
	if len(sampleRef.Context) != 2 {
		t.Fatal("WithContext mutated the original")
	}
	r.Endpoints[0] = "mutated"
	if sampleRef.Endpoints[0] != "inproc:n1" {
		t.Fatal("WithContext shares endpoint storage")
	}
}

func TestKindOf(t *testing.T) {
	for _, v := range sampleValues() {
		if _, ok := KindOf(v); !ok {
			t.Fatalf("KindOf rejected model value %v", v)
		}
	}
	if _, ok := KindOf(struct{}{}); ok {
		t.Fatal("KindOf accepted foreign value")
	}
	if k, _ := KindOf(nil); k != KindNil {
		t.Fatal("nil should be KindNil")
	}
	if k, _ := KindOf(sampleRef); k != KindRef {
		t.Fatal("ref should be KindRef")
	}
}
