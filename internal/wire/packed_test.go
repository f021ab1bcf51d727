package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

// The packed codec's shared round-trip/property coverage lives in
// wire_test.go via codecs(); this file tests what is specific to
// ansa-packed/1 — strict varints, one representation per value, the
// ownership of what a decode returns, and the size advantage the format
// exists for.

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

// ownedReencode checks the ownership contract on one accepted frame: v
// was decoded from src, src is then overwritten, and v must still
// re-encode to the bytes it came from.
func ownedReencode(t *testing.T, v Value, src, want []byte) {
	t.Helper()
	for i := range src {
		src[i] = 0xAA
	}
	re, err := PackedCodec{}.Encode(nil, v)
	if err != nil {
		t.Fatalf("decoded value %v failed to re-encode: %v", v, err)
	}
	if !bytes.Equal(re, want) {
		t.Fatalf("value %v shares storage with its source, or has a second representation:\n in: % x\nout: % x", v, want, re)
	}
}

// TestDecodedMessageOwnsItsStorage: nothing a decode returns aliases the
// buffer it read — single values and whole vectors, every kind.
func TestDecodedMessageOwnsItsStorage(t *testing.T) {
	c := PackedCodec{}
	all := append(sampleValues(), fuzzSeedValues()...)
	for _, v := range all {
		want, err := c.Encode(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		src := append([]byte(nil), want...)
		got, rest, err := c.Decode(src)
		if err != nil || len(rest) != 0 {
			t.Fatalf("decode %v: rest %d, err %v", v, len(rest), err)
		}
		ownedReencode(t, got, src, want)
	}
	frame, err := EncodeAll(c, all)
	if err != nil {
		t.Fatal(err)
	}
	src := append([]byte(nil), frame...)
	got, err := DecodeAll(c, src)
	if err != nil {
		t.Fatal(err)
	}
	asList := append(binary.AppendUvarint([]byte{byte(KindList)}, uint64(len(all))), frame[4:]...)
	ownedReencode(t, List(got), src, asList)
}

// scribble overwrites, and then appends to, every slice reachable from v.
func scribble(v Value) {
	switch t := v.(type) {
	case []byte:
		for i := range t {
			t[i] = 0xEE
		}
		_ = append(t, bytes.Repeat([]byte{0xEE}, 64)...)
	case List:
		for i := range t {
			scribble(t[i])
			t[i] = "scribbled"
		}
		_ = append(t, make(List, 64)...)
	case Record:
		for _, e := range t {
			scribble(e)
		}
	case Ref:
		for _, ss := range [][]string{t.Endpoints, t.Context} {
			for i := range ss {
				ss[i] = "scribbled"
			}
			_ = append(ss, make([]string, 64)...)
		}
	}
}

// TestDecodedValuesAreIsolated: the values of one message sit side by
// side in shared slabs, yet writing through one, in place or by append,
// never changes another — every slice handed out is cap-limited to its
// own region.
func TestDecodedValuesAreIsolated(t *testing.T) {
	c := PackedCodec{}
	ref := Ref{ID: "id", TypeName: "T", Endpoints: []string{"e1", "e2"}, Context: []string{"c1"}}
	msg := []Value{
		[]byte{1, 2, 3}, []byte{4, 5, 6}, "between",
		List{"a", []byte{7}, int64(1) << 40}, List{uint64(1) << 50, "b", List{2.5}},
		ref, Record{"k": List{[]byte{8}}, "r": ref}, ref, []byte{9}, List{}, List{nil},
	}
	frame, err := EncodeAll(c, msg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range msg {
		got, err := DecodeAll(c, frame)
		if err != nil {
			t.Fatal(err)
		}
		scribble(got[i])
		for j := range msg {
			if j != i && !Equal(got[j], msg[j]) {
				t.Fatalf("scribbling on value %d (%v) changed value %d: %v, want %v", i, msg[i], j, got[j], msg[j])
			}
		}
	}
}

// keepOne decodes frame and returns element i alone. Not inlined, so
// nothing of the message but that element outlives the call.
//
//go:noinline
func keepOne(t *testing.T, frame []byte, i int) Value {
	got, err := DecodeAll(PackedCodec{}, append([]byte(nil), frame...))
	if err != nil {
		t.Fatal(err)
	}
	return got[i]
}

// TestKeptElementSurvivesCollection: a box is a pointer into the middle
// of a slab, and one kept element must keep what it points at alive
// through collections, with every other reference to its message gone.
// Run under -race, checkptr vets each hand-built pointer as well.
func TestKeptElementSurvivesCollection(t *testing.T) {
	msg := []Value{
		int64(1) << 40, uint64(1) << 50, 2.5, "kept string", []byte("kept bytes"),
		List{"in", int64(-1) << 33}, Record{"k": "v"}, sampleRef,
	}
	frame, err := EncodeAll(PackedCodec{}, msg)
	if err != nil {
		t.Fatal(err)
	}
	churn := make([][]byte, 256)
	for i := range msg {
		kept := keepOne(t, frame, i)
		for round := 0; round < 3; round++ {
			runtime.GC()
			for j := range churn { // reuse whatever the collection freed
				churn[j] = bytes.Repeat([]byte{0xDD}, 8+j)
			}
		}
		if !Equal(kept, msg[i]) {
			t.Fatalf("element %d read %v after three collections, want %v", i, kept, msg[i])
		}
	}
}

// TestPackedCountBound: a count is checked against the input that would
// have to hold it before it sizes anything, so a few hostile bytes
// cannot buy a large allocation.
func TestPackedCountBound(t *testing.T) {
	c := PackedCodec{}
	huge := binary.AppendUvarint(nil, maxElems) // four bytes
	for _, tt := range []struct {
		name  string
		frame []byte
	}{
		{"record", append(append([]byte{byte(KindRecord)}, huge...), 0)},
		{"list", append(append([]byte{byte(KindList)}, huge...), 0)},
		{"ref-endpoints", append(append([]byte{byte(KindRef), 0, 0, 0}, huge...), 0)},
		{"vector", []byte{0, 0xff, 0xff, 0xff, 0}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			decode := func() error {
				if tt.name == "vector" {
					_, err := DecodeAll(c, tt.frame)
					return err
				}
				_, _, err := c.Decode(tt.frame)
				return err
			}
			least := refusalCost(t, decode, ErrTruncated)
			if least >= 512 {
				t.Fatalf("a %d-byte frame cost %d bytes to refuse", len(tt.frame), least)
			}
		})
	}
}

// refusalCost is the fewest bytes decode allocated over three tries —
// another goroutine may allocate meanwhile — each of which must fail
// with want (nil: any outcome).
func refusalCost(t *testing.T, decode func() error, want error) uint64 {
	t.Helper()
	least := uint64(math.MaxUint64)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decode()
		runtime.ReadMemStats(&after)
		if want != nil && !errors.Is(err, want) {
			t.Fatalf("got %v, want %v", err, want)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// nestedClaims is a size-byte frame of maxNest+1 nested list or record
// headers and then zeros. Each header claims as many elements as the
// input after it could hold were no container open around it — or, when
// halving, half of what the header before it claimed, so that all the
// claims together fit.
func nestedClaims(kind Kind, size int, halving bool) []byte {
	frame := make([]byte, 0, size)
	for depth := 0; depth <= maxNest; depth++ {
		claim := size - len(frame) - 5 // tag, count, and a record's empty first key
		if kind == KindRecord {
			claim /= 2
		}
		if halving {
			claim >>= depth + 1
		}
		frame = binary.AppendUvarint(append(frame, byte(kind)), uint64(claim))
		if kind == KindRecord {
			frame = append(frame, 0)
		}
	}
	return frame[:size]
}

// TestPackedNestedCountBound: a nested container cannot claim again the
// input its parents' remaining elements need, so the bound on what a
// decode allocates — a constant multiple of len(src) — holds at any
// depth, not once per level.
func TestPackedNestedCountBound(t *testing.T) {
	const size = 32 << 10
	for _, tt := range []struct {
		name    string
		kind    Kind
		halving bool
		want    error
	}{
		{"list", KindList, false, ErrTruncated},
		{"record", KindRecord, false, ErrTruncated},
		{"list-halving", KindList, true, nil},
		{"record-halving", KindRecord, true, nil},
	} {
		t.Run(tt.name, func(t *testing.T) {
			frame := nestedClaims(tt.kind, size, tt.halving)
			cost := refusalCost(t, func() error {
				_, _, err := (PackedCodec{}).Decode(frame)
				return err
			}, tt.want)
			t.Logf("%d-byte frame cost %d bytes (%d x)", size, cost, cost/size)
			if cost > 64*size {
				t.Fatalf("a %d-byte frame cost %d bytes, over 64 x its size", size, cost)
			}
		})
	}
}

// TestPackedOneRepresentation: the encodings a lenient decoder would
// fold onto an existing value are refused.
func TestPackedOneRepresentation(t *testing.T) {
	for name, frame := range hostileFrames() {
		if _, _, err := (PackedCodec{}).Decode(frame); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
	for _, ok := range [][]byte{{byte(KindBool), 0}, {byte(KindBool), 1}, []byte("\x08\x02\x00\x00\x01a\x00")} {
		if _, rest, err := (PackedCodec{}).Decode(ok); err != nil || len(rest) != 0 {
			t.Errorf("canonical frame % x refused: %v", ok, err)
		}
	}
}

// hostileFrames are second representations of {"a": nil} and true.
func hostileFrames() map[string][]byte {
	return map[string][]byte{
		"record-duplicate-key": []byte("\x08\x02\x01a\x00\x01a\x00"),
		"record-unsorted-keys": []byte("\x08\x02\x01b\x00\x01a\x00"),
		"bool-two":             {byte(KindBool), 2},
	}
}

// TestPackedDecodeAliasRejectsTrailing: the appending spelling of
// DecodeAll is as strict.
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
// input: never panic, and whatever it accepts owns its storage and
// re-encodes to exactly the bytes it was read from — one representation
// per value. The seeds include tcp_bulk's value and three lists of
// scalar runs; the checked-in corpus under testdata/fuzz/FuzzPackedDecode
// includes truncated-varint and overlong-varint frames, and the second
// representations a lenient decoder would accept.
func FuzzPackedDecode(f *testing.F) {
	c := PackedCodec{}
	ints := make(List, 33) // an int run, every varint length
	for i := range ints {
		ints[i] = int64(uint64(0x9e3779b97f4a7c15)>>(7*(i%10))) * int64(1-2*(i%2))
	}
	runs := []Value{
		bulkValue(rand.New(rand.NewSource(1))),
		ints,
		List{uint64(1) << 63, uint64(5), int64(-1), uint64(300), "s", uint64(math.MaxUint64)}, // uint runs, broken
		List{"a", "", "bc", strings.Repeat("x", 200), int64(1)},                               // a string run
	}
	for _, v := range append(append(sampleValues(), fuzzSeedValues()...), runs...) {
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
	for _, name := range []string{"record-duplicate-key", "record-unsorted-keys", "bool-two"} {
		f.Add(hostileFrames()[name])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := append([]byte(nil), data...)
		v, rest, err := c.Decode(src)
		if err != nil || len(rest) != 0 {
			return
		}
		// The same frame as a one-value vector must agree.
		vs, err := DecodeAll(c, append([]byte{0, 0, 0, 1}, data...))
		if err != nil || len(vs) != 1 || !Equal(vs[0], v) {
			t.Fatalf("vector decode disagrees: %v vs %v (%v)", vs, v, err)
		}
		ownedReencode(t, v, src, data)
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
