// Fuzzing for the TCP stream framer. Each input is run twice through the
// real read loop over a scripted connection. As it stands — arbitrary
// bytes arriving in arbitrary chunks — it must not panic and must deliver
// exactly the packets a one-pass reference parser finds in the whole
// stream, which a slice of the wrong part of the buffer would not match.
// Then as payload: cut into packets, framed behind a hello and chopped at
// the same fuzzed offsets, it must come out as the identical packets in
// order.
package transport

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// parseStream is the reference: hello, then frames, over the complete
// stream; it stops where the read loop must drop the connection.
func parseStream(data []byte) (pkts [][]byte) {
	if len(data) < helloHdrLen || string(data[:3]) != helloMagic || data[3] != helloVersion {
		return nil
	}
	n := int(binary.BigEndian.Uint16(data[4:]))
	if n == 0 || n > maxHelloAddr || len(data) < helloHdrLen+n {
		return nil
	}
	data = data[helloHdrLen+n:]
	for len(data) >= frameHdrLen {
		n := binary.BigEndian.Uint32(data)
		if n > MaxPacket || uint32(len(data)-frameHdrLen) < n {
			break
		}
		pkts = append(pkts, data[frameHdrLen:frameHdrLen+n])
		data = data[frameHdrLen+n:]
	}
	return pkts
}

func FuzzTCPStream(f *testing.F) {
	hello := appendHello(nil, "tcp:127.0.0.1:7000")
	hello = hello[:len(hello):len(hello)] // every stream appended to it is a copy
	two := appendTestFrame(appendTestFrame(hello, []byte("first")), []byte("second packet"))
	f.Add(two, []byte{255})                                            // everything in one read
	f.Add(two, []byte{1})                                              // a byte at a time
	f.Add(two, []byte{byte(len(hello) + 2), 3, 200})                   // cut inside a length prefix
	f.Add(two[:len(two)-3], []byte{7})                                 // last frame never completes
	f.Add(append(bytes.Clone(two), 0xFF, 0xFF, 0xFF, 0xFF), []byte{9}) // then an absurd length
	f.Add(appendTestFrame(nil, []byte("no hello")), []byte{4})
	f.Add([]byte("ODP\x02\x00\x01x"), []byte{2}) // a hello from the future
	f.Add([]byte("ODP\x01\xff\xff"), []byte{1})  // oversized address
	f.Add([]byte{}, []byte{})

	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		chunks := make([]int, len(cuts))
		for i, c := range cuts {
			chunks[i] = int(c) * int(c) // 0 … 65025: up to about one buffer
		}
		check := func(what string, stream []byte, want [][]byte) {
			_, got, _ := readStream(stream, chunks...)
			if len(got) != len(want) {
				t.Fatalf("%s: %d packets delivered, want %d", what, len(got), len(want))
			}
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("%s: packet %d is % x, want % x", what, i, got[i], want[i])
				}
			}
		}
		check("raw", data, parseStream(data))

		stream, rest := hello, data
		var pkts [][]byte
		for i := 0; len(rest) > 0; i++ {
			n := len(rest) // the 65th packet takes whatever is left
			if i < 64 && len(cuts) > 0 {
				n = min(n, int(cuts[i%len(cuts)])*8)
			}
			pkts = append(pkts, rest[:n])
			stream = appendTestFrame(stream, rest[:n])
			rest = rest[n:]
		}
		check("framed", stream, pkts)
	})
}
