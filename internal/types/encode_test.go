package types

import (
	"sort"
	"testing"

	"odp/internal/wire"
)

func TestEncodeDecodeTypeRoundTrip(t *testing.T) {
	orig := accountType()
	enc := EncodeType(orig)
	got, err := DecodeType(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != orig.Name || got.Signature() != orig.Signature() {
		t.Fatalf("round trip mismatch:\n got  %s\n want %s", got.Signature(), orig.Signature())
	}
	// Announcement flag survives.
	if !got.Ops["audit"].Announcement {
		t.Fatal("announcement flag lost")
	}
}

func TestEncodeDecodeEmptyType(t *testing.T) {
	orig := Type{Name: "Empty", Ops: map[string]Operation{}}
	got, err := DecodeType(EncodeType(orig))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "Empty" || len(got.Ops) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestDecodeTypeErrors(t *testing.T) {
	tests := []struct {
		name string
		give wire.Value
	}{
		{"not-a-record", "just a string"},
		{"no-ops", wire.Record{"name": "X"}},
		{"op-not-record", wire.Record{"name": "X", "ops": wire.Record{"f": "oops"}}},
		{"arg-not-string", wire.Record{"name": "X", "ops": wire.Record{
			"f": wire.Record{"args": wire.List{int64(3)}},
		}}},
		{"outcome-not-list", wire.Record{"name": "X", "ops": wire.Record{
			"f": wire.Record{"outcomes": wire.Record{"ok": "nope"}},
		}}},
		{"result-not-string", wire.Record{"name": "X", "ops": wire.Record{
			"f": wire.Record{"outcomes": wire.Record{"ok": wire.List{true}}},
		}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := DecodeType(tt.give); err == nil {
				t.Fatalf("decoded invalid description %v", tt.give)
			}
		})
	}
}

func TestDecodeTypeThroughWire(t *testing.T) {
	// The full path an import request takes: encode -> codec -> decode.
	for _, codec := range []wire.Codec{wire.PackedCodec{}, wire.TextCodec{}} {
		raw, err := codec.Encode(nil, EncodeType(accountType()))
		if err != nil {
			t.Fatal(err)
		}
		v, _, err := codec.Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeType(v)
		if err != nil {
			t.Fatal(err)
		}
		if got.Signature() != accountType().Signature() {
			t.Fatalf("%s: signature mismatch", codec.Name())
		}
	}
}

func TestManagerNames(t *testing.T) {
	m := NewManager()
	if names := m.Names(); len(names) != 0 {
		t.Fatalf("fresh manager has names %v", names)
	}
	for _, n := range []string{"Zebra", "Apple", "Mango"} {
		if err := m.Register(Type{Name: n, Ops: map[string]Operation{}}); err != nil {
			t.Fatal(err)
		}
	}
	names := m.Names()
	sort.Strings(names)
	if len(names) != 3 || names[0] != "Apple" || names[2] != "Zebra" {
		t.Fatalf("names %v", names)
	}
}

func TestCheckValueRemainingKinds(t *testing.T) {
	tests := []struct {
		name string
		d    Desc
		v    wire.Value
		ok   bool
	}{
		{"nil-bad", Nil, int64(1), false},
		{"bool-bad", Bool, "true", false},
		{"float-bad", Float, int64(1), false},
		{"uint-bad", Uint, int64(1), false},
		{"string-bad", String, []byte("s"), false},
		{"bytes-bad", Bytes, "s", false},
		{"record-bad", Rec, wire.List{}, false},
		{"ref-bad", RefTo(""), "not a ref", false},
		{"ref-named-bad-kind", RefTo("T"), int64(1), false},
		{"list-bad-kind", List(Int), wire.Record{}, false},
		{"generic-list-bad", ListOf, "nope", false},
		{"unknown-desc", Desc("martian"), int64(1), false},
		{"nil-desc-ok", Nil, nil, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := CheckValue(tt.d, tt.v)
			if (err == nil) != tt.ok {
				t.Fatalf("CheckValue(%s, %v) err=%v, want ok=%v", tt.d, tt.v, err, tt.ok)
			}
		})
	}
}
