package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The word-at-a-time reader and the list loop's scalar runs are checked
// against what they replaced: refReadUvarint is the byte loop readUvarint
// was until it read words, refDecode a plain recursive reading of
// ansa-packed/1 built on it, with no slabs and no runs.

func refReadUvarint(src []byte) (uint64, []byte, error) {
	var x uint64
	var s uint
	for i := 0; i < len(src); i++ {
		b := src[i]
		if i == maxVarintLen-1 {
			if b >= 0x80 {
				return 0, nil, fmt.Errorf("%w: varint exceeds %d bytes", ErrCorrupt, maxVarintLen)
			}
			if b > 1 {
				return 0, nil, fmt.Errorf("%w: varint overflows 64 bits", ErrCorrupt)
			}
		}
		if b < 0x80 {
			if i > 0 && b == 0 {
				return 0, nil, fmt.Errorf("%w: overlong varint", ErrCorrupt)
			}
			return x | uint64(b)<<s, src[i+1:], nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, nil, ErrTruncated
}

// varintSeeds are the encodings where the word reader's cases meet:
// every length at its smallest and largest value, the overlong form at
// every length, the tenth byte at and past its limit, an eleventh byte.
func varintSeeds() [][]byte {
	seeds := [][]byte{{0}, binary.AppendUvarint(nil, math.MaxUint64)}
	for n := 1; n <= maxVarintLen; n++ {
		lo, hi := uint64(1)<<(7*(n-1)), uint64(1)<<(7*n)-1
		if n == maxVarintLen {
			hi = math.MaxUint64
		}
		seeds = append(seeds, binary.AppendUvarint(nil, lo), binary.AppendUvarint(nil, hi))
		if n >= 2 {
			seeds = append(seeds, append(bytes.Repeat([]byte{0x80}, n-1), 0)) // overlong zero
			seeds = append(seeds, append(bytes.Repeat([]byte{0xff}, n-1), 0)) // overlong, groups set
		}
	}
	nine := bytes.Repeat([]byte{0xff}, 9)
	seeds = append(seeds, append(nine[:9:9], 0x02), append(nine[:9:9], 0x7f), append(nine[:9:9], 0x80, 0x01),
		bytes.Repeat([]byte{0x80}, 11), bytes.Repeat([]byte{0xff}, 11))
	return seeds
}

// sameUvarint holds the word reader to the byte loop on one input: same
// value, same bytes consumed, same error text.
func sameUvarint(t *testing.T, in []byte) {
	want, wantRest, wantErr := refReadUvarint(in)
	got, gotRest, gotErr := readUvarint(in)
	if got != want || len(gotRest) != len(wantRest) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("% x: got (%d, %d left, %v), the byte loop reads (%d, %d left, %v)",
			in, got, len(gotRest), gotErr, want, len(wantRest), wantErr)
	}
}

// FuzzUvarint is the differential: for any input the word reader returns
// what the byte loop returns. Each seed runs whole, cut short at every
// point, and with 0–9 bytes after it, so both the load from the padded
// copy and the load from the input in place see every case.
func FuzzUvarint(f *testing.F) {
	for _, seed := range varintSeeds() {
		for cut := 0; cut < len(seed); cut++ {
			f.Add(seed[:cut])
		}
		for after := 0; after < maxVarintLen; after++ {
			f.Add(append(seed[:len(seed):len(seed)], bytes.Repeat([]byte{0xa5}, after)...))
		}
	}
	f.Fuzz(sameUvarint)
}

// TestUvarintReadsWithinBounds: an encoding that ends exactly at the end
// of the buffer, and one that ends nine bytes before it, decode to the
// same value whatever lies past len(src): the eight-byte load never
// reaches beyond the slice it was given. (The byte loop cannot.)
func TestUvarintReadsWithinBounds(t *testing.T) {
	for _, seed := range varintSeeds() {
		for _, after := range []int{0, 9} {
			for _, poison := range []byte{0x00, 0x7f, 0xff} {
				backing := bytes.Repeat([]byte{poison}, 64)
				in := backing[8 : 8+len(seed)+after]
				copy(in, seed)
				copy(in[len(seed):], "123456789")
				sameUvarint(t, in)
			}
		}
	}
}

// refDecode reads one value the way the decoder did before it read words
// and runs: one recursive call a value, the byte-loop varint, the same
// checks in the same order. owed is decoder.owed.
func refDecode(src []byte, depth, owed int) (Value, []byte, error) {
	if depth > maxNest {
		return nil, nil, fmt.Errorf("%w: nesting exceeds %d", ErrCorrupt, maxNest)
	}
	if len(src) == 0 {
		return nil, nil, ErrTruncated
	}
	kind, rest := Kind(src[0]), src[1:]
	count := func(per int) (int, error) {
		n, r, err := refReadUvarint(rest)
		if err != nil {
			return 0, err
		}
		if n > maxElems {
			return 0, ErrCorrupt
		}
		if rest = r; int(n)*per > len(rest)-owed {
			return 0, ErrTruncated
		}
		return int(n), nil
	}
	run := func() ([]byte, error) {
		n, r, err := refReadUvarint(rest)
		if err != nil {
			return nil, err
		}
		if n > uint64(len(r)) {
			return nil, ErrTruncated
		}
		rest = r[n:]
		return append([]byte{}, r[:n]...), nil
	}
	runs := func() ([]string, error) {
		n, err := count(1)
		if err != nil || n == 0 {
			return nil, err
		}
		out := make([]string, n)
		for i := range out {
			b, err := run()
			if err != nil {
				return nil, err
			}
			out[i] = string(b)
		}
		return out, nil
	}
	switch kind {
	case KindNil:
		return nil, rest, nil
	case KindBool:
		if len(rest) < 1 {
			return nil, nil, ErrTruncated
		}
		if rest[0] > 1 {
			return nil, nil, ErrCorrupt
		}
		return rest[0] == 1, rest[1:], nil
	case KindInt, KindUint:
		u, rest, err := refReadUvarint(rest)
		if err != nil {
			return nil, nil, err
		}
		if kind == KindInt {
			return unzigzag(u), rest, nil
		}
		return u, rest, nil
	case KindFloat:
		if len(rest) < 8 {
			return nil, nil, ErrTruncated
		}
		return math.Float64frombits(binary.BigEndian.Uint64(rest)), rest[8:], nil
	case KindString, KindBytes:
		b, err := run()
		if err != nil {
			return nil, nil, err
		}
		if kind == KindString {
			return string(b), rest, nil
		}
		return b, rest, nil
	case KindList:
		n, err := count(1)
		if err != nil {
			return nil, nil, err
		}
		out := make(List, n)
		for i := range out {
			if out[i], rest, err = refDecode(rest, depth+1, owed+n-i-1); err != nil {
				return nil, nil, err
			}
		}
		return out, rest, nil
	case KindRecord:
		n, err := count(2)
		if err != nil {
			return nil, nil, err
		}
		out, prev := make(Record, n), ""
		for i := 0; i < n; i++ {
			k, err := run()
			if err != nil {
				return nil, nil, err
			}
			if i > 0 && string(k) <= prev {
				return nil, nil, ErrCorrupt
			}
			prev = string(k)
			if out[prev], rest, err = refDecode(rest, depth+1, owed+2*(n-i-1)); err != nil {
				return nil, nil, err
			}
		}
		return out, rest, nil
	case KindRef:
		var r Ref
		id, err := run()
		if err != nil {
			return nil, nil, err
		}
		typeName, err := run()
		if err != nil {
			return nil, nil, err
		}
		epoch, after, err := refReadUvarint(rest)
		if err != nil {
			return nil, nil, err
		}
		if epoch > math.MaxUint32 {
			return nil, nil, ErrCorrupt
		}
		rest = after
		r.ID, r.TypeName, r.Epoch = string(id), string(typeName), uint32(epoch)
		if r.Endpoints, err = runs(); err != nil {
			return nil, nil, err
		}
		if r.Context, err = runs(); err != nil {
			return nil, nil, err
		}
		return r, rest, nil
	default:
		return nil, nil, ErrCorrupt
	}
}

// sameDecode holds the decoder to refDecode on one frame: accepted by
// both, with Equal values, the same bytes left over and a re-encoding
// that is the frame; or refused by both with the same class of error.
func sameDecode(t *testing.T, frame []byte) {
	t.Helper()
	want, wantRest, wantErr := refDecode(frame, 0, 0)
	got, gotRest, gotErr := PackedCodec{}.Decode(append([]byte(nil), frame...))
	if wantErr != nil {
		for _, class := range []error{ErrTruncated, ErrCorrupt} {
			if errors.Is(wantErr, class) != errors.Is(gotErr, class) {
				t.Fatalf("% x: got %v, the reference decoder says %v", frame, gotErr, wantErr)
			}
		}
		return
	}
	if gotErr != nil || !Equal(got, want) || len(gotRest) != len(wantRest) {
		t.Fatalf("% x: got (%v, %d left, %v), the reference decoder reads (%v, %d left)",
			frame, got, len(gotRest), gotErr, want, len(wantRest))
	}
	consumed := frame[:len(frame)-len(gotRest)]
	for _, v := range []Value{got, want} {
		if re, err := (PackedCodec{}).Encode(nil, v); err != nil || !bytes.Equal(re, consumed) {
			t.Fatalf("% x re-encodes to % x (%v)", consumed, re, err)
		}
	}
}

// corpusFrames returns the first []byte of every checked-in entry of the
// two packed fuzz targets.
func corpusFrames(t *testing.T) [][]byte {
	t.Helper()
	var frames [][]byte
	for _, target := range []string{"FuzzPackedDecode", "FuzzCodecAgreement"} {
		files, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no corpus for %s: %v", target, err)
		}
		for _, file := range files {
			raw, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			line := strings.Split(string(raw), "\n")[1]
			lit, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "[]byte("), ")"))
			if err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			frames = append(frames, []byte(lit))
		}
	}
	return frames
}

// TestPackedDecodeMatchesReference: the format is the format. Every
// corpus entry, every sample value, and every varint seed — as an int, a
// uint, a string length and the elements of a list, whole and cut short
// at every point — decodes as the reference decoder decodes it; and so
// does every run of runFrames, cut at every byte of its last two elements.
func TestPackedDecodeMatchesReference(t *testing.T) {
	frames := corpusFrames(t)
	for _, v := range append(append(sampleValues(), fuzzSeedValues()...), bulkValue(rand.New(rand.NewSource(1)))) {
		enc, err := PackedCodec{}.Encode(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, enc)
	}
	for _, seed := range varintSeeds() {
		list := []byte{byte(KindList), 3}
		for _, kind := range []Kind{KindInt, KindUint, KindString} {
			frames = append(frames, append([]byte{byte(kind)}, seed...))
			list = append(append(list, byte(kind)), seed...)
		}
		frames = append(frames, list)
	}
	for depth := maxNest - 1; depth <= maxNest+1; depth++ { // a scalar run at, and past, the nesting bound
		frames = append(frames, append(bytes.Repeat([]byte{byte(KindList), 1}, depth), byte(KindInt), 1))
	}
	for _, frame := range frames {
		sameDecode(t, frame)
		if len(frame) <= 64 {
			for cut := 0; cut < len(frame); cut++ {
				sameDecode(t, frame[:cut])
			}
		}
	}
	for _, r := range runFrames() {
		sameDecode(t, r.frame)
		for cut := r.lastTwo; cut < len(r.frame); cut++ {
			sameDecode(t, r.frame[:cut])
		}
	}
}

// runFrame is a list frame and the offset at which its last two
// elements begin.
type runFrame struct {
	frame   []byte
	lastTwo int
}

// runFrames are lists of int or uint runs 1, 2, 9 and 33 long, built
// around every varint seed: the seed is the first, the middle and the
// last element of a run whose other elements are strict varints of every
// length. Each run ends the input, or has a value of 16 bytes behind it,
// so its last elements are read both from fewer than ten bytes of input
// and in place. Then the seed as an element of the other kind breaks an
// int or a uint run in two, and as an int behind a string and a nested
// list.
func runFrames() []runFrame {
	element := func(kind Kind, enc []byte) []byte { return append([]byte{byte(kind)}, enc...) }
	filler := func(i int) []byte { // 1 to 10 bytes, as i runs
		return binary.AppendUvarint(nil, uint64(0x9e3779b97f4a7c15)>>(7*(i%10)))
	}
	list := func(elems [][]byte, after []byte) runFrame {
		f := binary.AppendUvarint([]byte{byte(KindList)}, uint64(len(elems)))
		r := runFrame{}
		for i, e := range elems {
			if i == len(elems)-2 || len(elems) == 1 {
				r.lastTwo = len(f)
			}
			f = append(f, e...)
		}
		r.frame = append(f, after...)
		return r
	}
	after := append([]byte{byte(KindBytes), 14}, "fourteen bytes"...)
	var runs []runFrame
	for _, seed := range varintSeeds() {
		for _, kind := range []Kind{KindInt, KindUint} {
			other := KindInt + KindUint - kind
			for _, n := range []int{1, 2, 9, 33} {
				for _, at := range []int{0, n / 2, n - 1} {
					elems := make([][]byte, n)
					for i := range elems {
						elems[i] = element(kind, filler(i))
					}
					elems[at] = element(kind, seed)
					runs = append(runs, list(elems, nil), list(elems, after))
				}
			}
			broken := make([][]byte, 9)
			for i := range broken {
				broken[i] = element(kind, filler(i))
			}
			broken[4] = element(other, seed)
			runs = append(runs, list(broken, nil), list(broken, after))
		}
		mixed := [][]byte{element(KindInt, filler(9)), element(KindString, []byte{2, 'a', 'b'}),
			element(KindInt, seed), []byte{byte(KindList), 1, byte(KindInt), 2}, element(KindInt, seed), element(KindInt, filler(3))}
		runs = append(runs, list(mixed, nil), list(mixed, after))
	}
	return runs
}

// TestEncodeAtMaxNest: a value nested to the bound — lists of records, the
// deepest recursion the encoder and the decoder have — crosses both on a
// goroutine that starts, as a spawned dispatch does, on the smallest stack.
func TestEncodeAtMaxNest(t *testing.T) {
	var v Value = List{int64(-1) << 50, "s", uint64(1) << 60} // a scalar run, its elements at the bound
	for depth := 1; depth < maxNest-1; depth += 2 {
		v = List{Record{"k": v}}
	}
	v = List{v}
	done := make(chan error, 1)
	go func() {
		enc, err := PackedCodec{}.Encode(nil, v)
		if err != nil {
			done <- err
			return
		}
		got, rest, err := PackedCodec{}.Decode(enc)
		if err == nil && (len(rest) != 0 || !Equal(got, v)) {
			err = fmt.Errorf("decoded %v with %d bytes left", got, len(rest))
		}
		done <- err
	}()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, err := (PackedCodec{}).Encode(nil, List{v}); !errors.Is(err, ErrBadValue) {
		t.Fatalf("one level past the bound: %v, want ErrBadValue", err)
	}
}
