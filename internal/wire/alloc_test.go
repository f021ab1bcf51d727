package wire

import (
	"bytes"
	"testing"
)

// hotArgs is a representative invocation argument vector: scalars, a
// string, a nested list, a small record and a reference — every kind the
// hot path routinely carries.
func hotArgs() []Value {
	return []Value{
		int64(42), "operand", 3.5, uint64(7), true,
		List{int64(1), "two"},
		Record{"a": int64(1), "b": "x"},
		Ref{ID: "n/obj-1", TypeName: "Cell", Endpoints: []string{"sim:server"}},
	}
}

// TestTextEncodeAllocBound pins the text codec's encoding allocations.
// JSON marshalling cannot be allocation-free, but the count must stay
// bounded so federation gateways (§5.6) do not regress unnoticed.
func TestTextEncodeAllocBound(t *testing.T) {
	c := TextCodec{}
	args := hotArgs()
	buf := GetBuffer()
	defer PutBuffer(buf)
	var err error
	if *buf, err = EncodeAllInto(c, (*buf)[:0], args); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		*buf, err = EncodeAllInto(c, (*buf)[:0], args)
		if err != nil {
			t.Fatal(err)
		}
	})
	// Measured ~53 allocs/op on the reference toolchain; the bound leaves
	// headroom for stdlib drift while catching structural regressions.
	const maxTextAllocs = 80
	if allocs > maxTextAllocs {
		t.Fatalf("text EncodeAllInto: %.1f allocs/op, want <= %d", allocs, maxTextAllocs)
	}
}

// TestAppendValueMatchesEncode checks the append-style spelling is
// byte-identical to Codec.Encode for both codecs.
func TestAppendValueMatchesEncode(t *testing.T) {
	for _, c := range []Codec{PackedCodec{}, TextCodec{}} {
		for _, v := range hotArgs() {
			direct, err := c.Encode(nil, v)
			if err != nil {
				t.Fatalf("%s: Encode: %v", c.Name(), err)
			}
			appended, err := AppendValue(c, []byte("prefix"), v)
			if err != nil {
				t.Fatalf("%s: AppendValue: %v", c.Name(), err)
			}
			if !bytes.Equal(appended, append([]byte("prefix"), direct...)) {
				t.Fatalf("%s: AppendValue diverges from Encode for %v", c.Name(), v)
			}
		}
	}
}

// TestEncodeAllIntoRoundTrip checks EncodeAllInto output decodes with
// DecodeAll after stripping the caller's prefix.
func TestEncodeAllIntoRoundTrip(t *testing.T) {
	c := PackedCodec{}
	args := hotArgs()
	out, err := EncodeAllInto(c, []byte("hdr"), args)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeAll(c, out[3:])
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(args) {
		t.Fatalf("decoded %d values, want %d", len(got), len(args))
	}
	for i := range args {
		if !Equal(got[i], args[i]) {
			t.Fatalf("value %d: got %v, want %v", i, got[i], args[i])
		}
	}
}

// TestBufferPool checks the pool contract: buffers come back empty, and
// oversized buffers are dropped rather than pinned.
func TestBufferPool(t *testing.T) {
	b := GetBuffer()
	*b = append(*b, 1, 2, 3)
	PutBuffer(b)
	b2 := GetBuffer()
	if len(*b2) != 0 {
		t.Fatalf("pooled buffer has length %d, want 0", len(*b2))
	}
	PutBuffer(b2)

	huge := make([]byte, 0, maxPooledCap*2)
	PutBuffer(&huge) // must be a no-op, not a panic
	PutBuffer(nil)
}

// TestCloneArgs checks the selective deep-copy: scalar vectors are
// returned as-is; vectors with mutable elements share no storage with
// the input.
func TestCloneArgs(t *testing.T) {
	scalars := []Value{int64(1), "s", 2.5, true, nil, uint64(9)}
	if got := CloneArgs(scalars); &got[0] != &scalars[0] {
		t.Fatal("all-scalar vector was copied")
	}

	rec := Record{"k": int64(1)}
	lst := List{int64(2)}
	raw := []byte{3}
	ref := Ref{ID: "x", Endpoints: []string{"a"}}
	mixed := []Value{int64(0), rec, lst, raw, ref}
	got := CloneArgs(mixed)
	if &got[0] == &mixed[0] {
		t.Fatal("mutable vector was not copied")
	}
	rec["k"] = int64(99)
	lst[0] = int64(99)
	raw[0] = 99
	ref.Endpoints[0] = "mutated"
	if !Equal(got[1], Record{"k": int64(1)}) || !Equal(got[2], List{int64(2)}) {
		t.Fatal("clone shares container storage with input")
	}
	if got[3].([]byte)[0] != 3 {
		t.Fatal("clone shares byte storage with input")
	}
	if got[4].(Ref).Endpoints[0] != "a" {
		t.Fatal("clone shares ref endpoint storage with input")
	}
}

// TestSortedKeysInto checks the stack-buffered insertion sort agrees
// with the allocating path for records beyond the stack buffer size.
func TestSortedKeysInto(t *testing.T) {
	r := Record{}
	for _, k := range []string{"m", "a", "z", "b", "q", "c", "y", "d",
		"x", "e", "w", "f", "v", "g", "u", "h", "t", "i", "s", "j"} {
		r[k] = int64(len(k))
	}
	var buf [16]string
	got := sortedKeysInto(buf[:0], r)
	want := sortedKeys(r)
	if len(got) != len(want) {
		t.Fatalf("got %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("key %d: got %q, want %q", i, got[i], want[i])
		}
	}
}
