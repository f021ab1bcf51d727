package wire

import (
	"math/rand"
	"testing"
)

// The decode rungs: what one message costs to decode, alone. Price a
// change to the decoder on both trees, alternating, pinned to one CPU:
//
//	go test -c -o wire.test ./internal/wire
//	taskset -c 1 ./wire.test -test.run XXX -test.bench DecodeBulk -test.benchtime 20000x -test.cpu 1

func benchDecode(b *testing.B, vs []Value) {
	frame, err := EncodeAll(PackedCodec{}, vs)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeAll(PackedCodec{}, frame); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeBulk decodes tcp_bulk's ~12 KiB value: 256 int64s and 32
// short strings in runs, a string, a record's keys and 8 KiB of bytes.
func BenchmarkDecodeBulk(b *testing.B) {
	benchDecode(b, []Value{bulkValue(rand.New(rand.NewSource(1)))})
}

// BenchmarkDecodeScalarVector decodes the reply vector of E1's add:
// one int64 past the static boxes, the shape five workloads decode.
func BenchmarkDecodeScalarVector(b *testing.B) {
	benchDecode(b, []Value{int64(1) << 22})
}
