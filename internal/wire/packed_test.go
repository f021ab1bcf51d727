package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// The packed codec's shared round-trip/property coverage lives in
// wire_test.go via codecs(); this file tests what is specific to
// ansa-packed/1 — strict varints, the zero-copy alias mode, detachment,
// and the size advantage the format exists for.

// TestPackedVarintStrict pins the varint decoder's rejection rules:
// truncation, encodings past ten bytes, 64-bit overflow, and non-minimal
// ("overlong") forms each fail with the right error class.
func TestPackedVarintStrict(t *testing.T) {
	tests := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"truncated-continuation", []byte{0x80}, ErrTruncated},
		{"truncated-long", []byte{0xff, 0xff, 0xff}, ErrTruncated},
		{"overlong-two-byte-zero", []byte{0x80, 0x00}, ErrCorrupt},
		{"overlong-max-plus", []byte{0xff, 0x80, 0x00}, ErrCorrupt},
		{"eleven-bytes", bytes.Repeat([]byte{0x80}, 11), ErrCorrupt},
		{"overflow-64-bits", append(bytes.Repeat([]byte{0xff}, 9), 0x02), ErrCorrupt},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, _, err := readUvarint(tt.in); err == nil {
				t.Fatal("decode succeeded, want error")
			} else if !errorIs(err, tt.want) {
				t.Fatalf("got %v, want %v class", err, tt.want)
			}
		})
	}
	// The canonical encodings those overlong forms shadow still decode.
	for _, v := range []uint64{0, 1, 127, 128, 16383, 16384, math.MaxUint64} {
		enc := binary.AppendUvarint(nil, v)
		got, rest, err := readUvarint(enc)
		if err != nil || got != v || len(rest) != 0 {
			t.Fatalf("canonical varint %d: got %d, rest %d, err %v", v, got, len(rest), err)
		}
	}
}

func errorIs(err, target error) bool {
	return err == target || (err != nil && target != nil && strings.Contains(err.Error(), target.Error()))
}

// TestPackedZigzag pins the signed mapping at its edges.
func TestPackedZigzag(t *testing.T) {
	for _, v := range []int64{0, -1, 1, -2, 63, -64, math.MaxInt64, math.MinInt64} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Fatalf("zigzag round trip: %d -> %d", v, got)
		}
	}
	// Small magnitudes must stay one byte — the format's reason to exist.
	for _, v := range []int64{0, -1, 1, -63, 63} {
		if z := zigzag(v); z > 127 {
			t.Fatalf("zigzag(%d) = %d does not fit one varint byte", v, z)
		}
	}
}

// TestPackedDecodeAlias proves the zero-copy contract in both
// directions: alias-mode strings and bytes share storage with the
// source buffer (mutating the buffer is visible through the value),
// while Codec.Decode and DetachValue produce storage-independent
// values.
func TestPackedDecodeAlias(t *testing.T) {
	c := PackedCodec{}
	args := []Value{"operand", []byte{1, 2, 3}, int64(7)}
	frame, err := EncodeAllInto(c, nil, args)
	if err != nil {
		t.Fatal(err)
	}

	aliased, err := c.DecodeAllAlias(nil, frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(aliased) != 3 || aliased[0] != "operand" || aliased[2] != int64(7) {
		t.Fatalf("alias decode wrong: %v", aliased)
	}

	// Detach first — the detached copies must survive arena reuse.
	detached := DetachArgs(aliased)
	for i := range frame {
		frame[i] = 0xAA // simulate the arena being recycled
	}
	if detached[0] != "operand" || !bytes.Equal(detached[1].([]byte), []byte{1, 2, 3}) {
		t.Fatalf("detached values corrupted by arena reuse: %v", detached)
	}

	// A second alias decode from a fresh frame shows the alias is real.
	frame2, _ := EncodeAllInto(c, nil, args)
	aliased2, err := c.DecodeAllAlias(nil, frame2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frame2 {
		frame2[i] = 0xBB
	}
	if aliased2[0] == "operand" {
		t.Fatal("alias-mode string did not alias the source buffer")
	}

	// Codec.Decode must stay detached.
	enc, _ := c.Encode(nil, "independent")
	v, _, err := c.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range enc {
		enc[i] = 0xCC
	}
	if v != "independent" {
		t.Fatal("Decode returned an aliased string")
	}
}

// TestPackedDecodeAliasRejectsTrailing matches DecodeAll's strictness.
func TestPackedDecodeAliasRejectsTrailing(t *testing.T) {
	c := PackedCodec{}
	frame, err := EncodeAllInto(c, nil, []Value{int64(1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DecodeAllAlias(nil, append(frame, 0x00)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if _, err := c.DecodeAllAlias(nil, frame[:len(frame)-1]); err == nil {
		t.Fatal("truncated vector accepted")
	}
}

// TestDetachArgsScalarFastPath: an all-scalar vector — the common
// interrogation — detaches for free, returning the same slice with the
// same elements untouched.
func TestDetachArgsScalarFastPath(t *testing.T) {
	args := []Value{int64(1), uint64(2), 3.5, true, nil}
	got := DetachArgs(args)
	if &got[0] != &args[0] {
		t.Fatal("scalar vector was copied")
	}
}

// TestDetachValueDeep checks every aliasable position is copied,
// including record keys and all Ref string fields.
func TestDetachValueDeep(t *testing.T) {
	arena := []byte("keyvalabcdefIDTNendpointctx")
	str := func(lo, hi int) string { return string(arena[lo:hi]) }
	v := Record{
		str(0, 3): List{str(3, 6), arena[6:12], Ref{
			ID:        str(12, 14),
			TypeName:  str(14, 16),
			Endpoints: []string{str(16, 24)},
			Epoch:     2,
			Context:   []string{str(24, 27)},
		}},
	}
	want := Clone(v)
	got := DetachValue(v)
	if !Equal(got, want) {
		t.Fatalf("detach changed value: %v != %v", got, want)
	}
	// Detached result must not share the original byte slice.
	gotBytes := got.(Record)["key"].(List)[1].([]byte)
	gotBytes[0] = 'X'
	if arena[6] == 'X' {
		t.Fatal("detached bytes share storage with source")
	}
}

// TestPackedEncodeAllocFree pins the packed codec's steady-state
// encoding cost at zero allocations per packet: header-plus-args encode
// into one pooled buffer without touching the heap.
func TestPackedEncodeAllocFree(t *testing.T) {
	c := PackedCodec{}
	args := hotArgs()
	buf := GetBuffer()
	defer PutBuffer(buf)
	var err error
	if *buf, err = EncodeAllInto(c, (*buf)[:0], args); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), *buf...)

	allocs := testing.AllocsPerRun(200, func() {
		*buf, err = EncodeAllInto(c, (*buf)[:0], args)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("packed EncodeAllInto: %.1f allocs/op, want 0", allocs)
	}
	if !bytes.Equal(*buf, want) {
		t.Fatal("pooled re-encode diverged from first encode")
	}
}

// TestPackedEncodingDeterministic: record fields are written in sorted
// key order, so one value has one encoding.
func TestPackedEncodingDeterministic(t *testing.T) {
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
		if !bytes.Equal(first, again) {
			t.Fatal("packed record encoding is not deterministic")
		}
	}
}

// TestPackedDecodeTruncated: every proper prefix of a complex encoding
// must fail, never panic or succeed.
func TestPackedDecodeTruncated(t *testing.T) {
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

// TestPropertyPackedTextAgree is the quick-check twin of
// FuzzCodecAgreement: any model value, encoded packed and transcoded to
// text and back, decodes to a value equal to the original at every step.
func TestPropertyPackedTextAgree(t *testing.T) {
	packed, text := PackedCodec{}, TextCodec{}
	prop := func(av anyValue) bool {
		pe, err := packed.Encode(nil, av.V)
		if err != nil {
			return false
		}
		te, err := Transcode(packed, text, pe)
		if err != nil {
			return false
		}
		tv, rest, err := text.Decode(te)
		if err != nil || len(rest) != 0 || !Equal(tv, av.V) {
			return false
		}
		back, err := Transcode(text, packed, te)
		return err == nil && bytes.Equal(back, pe)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// FuzzPackedDecode exercises the packed decoder against arbitrary
// input: never panic, and clean decodes re-encode to a decodable equal
// value. The checked-in corpus under testdata/fuzz/FuzzPackedDecode
// includes truncated-varint and overlong-varint frames.
func FuzzPackedDecode(f *testing.F) {
	c := PackedCodec{}
	for _, v := range append(sampleValues(), fuzzSeedValues()...) {
		enc, err := c.Encode(nil, v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add([]byte{byte(KindInt), 0x80})        // truncated varint
	f.Add([]byte{byte(KindUint), 0x80, 0x00}) // overlong varint
	f.Add(append([]byte{byte(KindString)}, bytes.Repeat([]byte{0xff}, 10)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, rest, err := c.Decode(data)
		if err != nil || len(rest) != 0 {
			return
		}
		re, err := c.Encode(nil, v)
		if err != nil {
			t.Fatalf("decoded value %v failed to re-encode: %v", v, err)
		}
		v2, rest2, err := c.Decode(re)
		if err != nil || len(rest2) != 0 {
			t.Fatalf("re-encoded form undecodable: %v", err)
		}
		if !Equal(v, v2) {
			t.Fatalf("re-encode changed value: %v != %v", v, v2)
		}
		// Alias-mode decode of the same single-value frame must agree.
		framed := append([]byte{0, 0, 0, 1}, re...)
		av, err := c.DecodeAllAlias(nil, framed)
		if err != nil || len(av) != 1 || !Equal(av[0], v) {
			t.Fatalf("alias decode disagrees: %v vs %v (%v)", av, v, err)
		}
	})
}

// FuzzCodecAgreement is the differential fuzzer the packed codec's
// correctness argument rests on, against the platform's second,
// independently written implementation of the data model: any frame the
// packed decoder accepts must, after wire.Transcode to ansa-text/1,
// decode to an equal value — and vice versa. Text carries floats as
// their bit pattern, so Equal is exact. A divergence means one codec's
// reading of the data model has drifted, which federation gateways
// (§5.6) would then propagate silently between domains.
func FuzzCodecAgreement(f *testing.F) {
	packed, text := PackedCodec{}, TextCodec{}
	for _, v := range append(sampleValues(), fuzzSeedValues()...) {
		pe, err := packed.Encode(nil, v)
		if err != nil {
			f.Fatal(err)
		}
		te, err := text.Encode(nil, v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(pe, te)
	}
	f.Add([]byte{byte(KindInt), 0x80}, []byte{})        // truncated varint
	f.Add([]byte{byte(KindUint), 0x80, 0x00}, []byte{}) // overlong varint
	agree := func(t *testing.T, from, to Codec, data []byte) {
		v, rest, err := from.Decode(data)
		if err != nil || len(rest) != 0 {
			return
		}
		out, err := Transcode(from, to, data)
		if err != nil {
			t.Fatalf("%s->%s transcode failed for %v: %v", from.Name(), to.Name(), v, err)
		}
		got, rest, err := to.Decode(out)
		if err != nil || len(rest) != 0 {
			t.Fatalf("%s decode of transcoded frame failed: %v", to.Name(), err)
		}
		if !Equal(v, got) {
			t.Fatalf("%s->%s disagreement: %v != %v", from.Name(), to.Name(), v, got)
		}
	}
	f.Fuzz(func(t *testing.T, packedData, textData []byte) {
		agree(t, packed, text, packedData)
		agree(t, text, packed, textData)
	})
}
