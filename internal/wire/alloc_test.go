package wire

import (
	"bytes"
	"math/rand"
	"sort"
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
	// Measured 61 allocs/op on the reference toolchain (53 before record
	// keys and Ref strings were carried base64) and 88 under -race; the
	// bound leaves headroom for stdlib drift while catching structural
	// regressions.
	const maxTextAllocs = 96
	if allocs > maxTextAllocs {
		t.Fatalf("text EncodeAllInto: %.1f allocs/op, want <= %d", allocs, maxTextAllocs)
	}
}

// TestAppendValueMatchesEncode checks Codec.Encode appends: what it adds
// to a prefix is byte-identical to what it writes to nil, in both codecs.
func TestAppendValueMatchesEncode(t *testing.T) {
	for _, c := range []Codec{PackedCodec{}, TextCodec{}} {
		for _, v := range hotArgs() {
			direct, err := c.Encode(nil, v)
			if err != nil {
				t.Fatalf("%s: Encode: %v", c.Name(), err)
			}
			appended, err := c.Encode([]byte("prefix"), v)
			if err != nil {
				t.Fatalf("%s: Encode onto a prefix: %v", c.Name(), err)
			}
			if !bytes.Equal(appended, append([]byte("prefix"), direct...)) {
				t.Fatalf("%s: Encode onto a prefix diverges for %v", c.Name(), v)
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
// with sort.Strings for records beyond the stack buffer size.
func TestSortedKeysInto(t *testing.T) {
	r := Record{}
	for _, k := range []string{"m", "a", "z", "b", "q", "c", "y", "d",
		"x", "e", "w", "f", "v", "g", "u", "h", "t", "i", "s", "j"} {
		r[k] = int64(len(k))
	}
	var buf [16]string
	got := sortedKeysInto(buf[:0], r)
	want := make([]string, 0, len(r))
	for k := range r {
		want = append(want, k)
	}
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("got %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("key %d: got %q, want %q", i, got[i], want[i])
		}
	}
}

// bulkValue rebuilds the benchmark's tcp_bulk payload shape: a record of
// an int, a 64-byte string, 32 short strings, 256 random int64s and
// 8 KiB of bytes, about 12 KiB on the wire.
func bulkValue(rng *rand.Rand) Value {
	str := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	tags := make(List, 32)
	for i := range tags {
		tags[i] = str(4 + rng.Intn(12))
	}
	samples := make(List, 256)
	for i := range samples {
		samples[i] = int64(rng.Uint64())
	}
	blob := make([]byte, 8<<10)
	rng.Read(blob)
	return Record{"id": rng.Int63(), "name": str(64), "tags": tags, "samples": samples, "blob": blob}
}

// TestBulkDecodeAllocGate pins what a decoded message costs: a handful
// of slabs for a large structured value, and for the scalar vectors of
// the hot path exactly what the runtime's own boxing would. The bulk
// value's bytes are bounded too — its slabs are what a kept part of the
// message keeps alive — at the fewest of three decodes, as refusalCost
// reads them.
func TestBulkDecodeAllocGate(t *testing.T) {
	for _, tt := range []struct {
		name     string
		args     []Value
		max      float64
		maxBytes uint64 // 0: not bounded
	}{
		{"bulk", []Value{bulkValue(rand.New(rand.NewSource(1)))}, 12, 21 << 10},
		{"small-int", []Value{int64(7)}, 1, 0},       // the vector
		{"large-int", []Value{int64(1) << 40}, 2, 0}, // and one 8-byte word
		{"string", []Value{"x"}, 4, 0},               // was 2 to decode aliased + 2 to detach
	} {
		frame, err := EncodeAll(PackedCodec{}, tt.args)
		if err != nil {
			t.Fatal(err)
		}
		var got []Value
		decode := func() error {
			got, err = DecodeAll(PackedCodec{}, frame)
			return err
		}
		allocs := testing.AllocsPerRun(100, func() {
			if decode() != nil {
				t.Fatal(err)
			}
		})
		if !Equal(List(got), List(tt.args)) {
			t.Fatalf("%s: decoded %v", tt.name, got)
		}
		t.Logf("%s: %.1f allocs per decode (budget %.0f)", tt.name, allocs, tt.max)
		if allocs > tt.max {
			t.Fatalf("%s: %.1f allocs per decode, want <= %.0f", tt.name, allocs, tt.max)
		}
		if tt.maxBytes > 0 {
			used := refusalCost(t, decode, nil)
			t.Logf("%s: %d bytes per decode of a %d-byte frame (budget %d)", tt.name, used, len(frame), tt.maxBytes)
			if used > tt.maxBytes {
				t.Fatalf("%s: %d bytes per decode, want <= %d", tt.name, used, tt.maxBytes)
			}
		}
	}
}
