// Fuzzing for the BATCH frame decoder. The seed corpus covers the
// structurally interesting shapes from the wire format's point of view:
// nested length prefixes (a batch carrying a batch, which is refused),
// truncation at every layer, the zero-frame batch, count/length lies and
// the rpc frames a batch carries. The decoder must never panic, never
// read out of bounds, never deliver a sub-frame marked as a batch, and —
// when it accepts a frame — survive a decode/re-encode round trip.
package transport

import (
	"bytes"
	"testing"
)

func FuzzBatchDecode(f *testing.F) {
	// Well-formed batches.
	f.Add(buildBatch(nil))                                             // zero-frame batch
	f.Add(buildBatch([][]byte{[]byte("hello")}))                       // single frame
	f.Add(buildBatch([][]byte{[]byte("a"), []byte("bb")}))             // two frames
	f.Add(buildBatch([][]byte{{}, {}, {}}))                            // empty sub-frames
	f.Add(buildBatch([][]byte{make([]byte, 1024)}))                    // larger body
	f.Add(buildBatch([][]byte{buildBatch([][]byte{[]byte("inner")})})) // nested batch
	f.Add(buildBatch([][]byte{[]byte("payload"), buildBatch(nil)}))    // nested batch, second
	f.Add(buildBatch([][]byte{{batchMagic, 'H', batchVersion, 0}}))    // the retired HELLO probe
	f.Add(buildBatch([][]byte{rpcRequest(1), rpcRequest(2)}))          // two rpc requests
	// Malformed shapes.
	valid := buildBatch([][]byte{[]byte("aa"), []byte("bbb")})
	f.Add(valid[:len(valid)-1])                            // truncated body
	f.Add(valid[:batchHdrLen+2])                           // truncated length prefix
	f.Add(overwriteCount(valid, 100))                      // count lies high
	f.Add(overwriteCount(valid, 1))                        // count lies low
	f.Add(overwriteCount(buildBatch(nil), 0xFFFFFFFF))     // huge count, no body
	f.Add([]byte{batchMagic, batchKind, batchVersion})     // header cut short
	f.Add([]byte{batchMagic, batchKind, 0xFF, 0, 0, 0, 0}) // future version
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var subs [][]byte
		n, err := DecodeBatch(data, func(sub []byte) {
			subs = append(subs, append([]byte(nil), sub...))
		})
		if err != nil {
			if len(subs) != 0 {
				t.Fatalf("rejected batch still delivered %d sub-frames", len(subs))
			}
			return
		}
		if n != len(subs) {
			t.Fatalf("count %d != delivered %d", n, len(subs))
		}
		for i, sub := range subs {
			if IsBatch(sub) {
				t.Fatalf("sub-frame %d is itself a batch: % x", i, sub)
			}
		}
		// Round trip: re-encoding the decoded sub-frames must
		// reproduce the accepted input byte for byte.
		if re := buildBatch(subs); !bytes.Equal(re, data) {
			t.Fatalf("re-encode mismatch:\n in: % x\nout: % x", data, re)
		}
	})
}

// rpcRequest is an rpc request frame for op "op" on object "o" with an
// empty body: version 1, kind request, the call id, then the
// length-prefixed target. Spelled out because rpc imports transport.
func rpcRequest(id byte) []byte {
	return []byte{1, 1, 0, 0, 0, 0, 0, 0, 0, id, 0, 0, 0, 1, 'o', 0, 0, 0, 2, 'o', 'p'}
}
