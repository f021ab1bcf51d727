// Fuzzing for the invocation-packet decode path, exactly as a node's
// inbound half runs it: a BATCH datagram split into its frames by the
// Coalescer, then per frame, in route, the header — kind, flag bits, call id, target, trace ids — then the body.
// The seed corpus covers every kind, each flag set and clear, trace ids
// present/absent/truncated, unknown kinds and flag bits (the retired
// packed flag among them), header truncations, and batches: whole,
// truncated and nested. The decoder must never panic, must reject
// truncated trace ids, and must re-encode every header it accepts
// byte-identically.
package rpc

import (
	"bytes"
	"encoding/binary"
	"testing"

	"odp/internal/obs"
	"odp/internal/transport"
	"odp/internal/wire"
)

// batchOf assembles the BATCH datagram a coalescer writes for frames.
func batchOf(frames ...[]byte) []byte {
	b := binary.BigEndian.AppendUint32([]byte{0xB7, 'B', 1}, uint32(len(frames)))
	for _, f := range frames {
		b = append(binary.BigEndian.AppendUint32(b, uint32(len(f))), f...)
	}
	return b
}

// buildPacket assembles a packet the way the client does: header (trace
// ids included when flagged), then encoded arguments.
func buildPacket(kind, flags byte, callID uint64, objID, op string, args []wire.Value) []byte {
	h := header{kind: kind, flags: flags, callID: callID, objID: objID, op: op}
	if flags&flagTraced != 0 {
		h.trace = obs.SpanContext{TraceID: 0xABCD, SpanID: 0x1234}
	}
	pkt, err := wire.EncodeAllInto(wire.PackedCodec{}, encodeHeader(nil, h), args)
	if err != nil {
		panic(err)
	}
	return pkt
}

func FuzzPacketDecode(f *testing.F) {
	args := []wire.Value{int64(7), "hello", wire.List{true}}
	// Well-formed frames of every kind and flag combination.
	f.Add(buildPacket(msgRequest, 0, 1, "obj", "op", args))
	f.Add(buildPacket(msgAnnounce, 0, 2, "obj", "note", nil))
	f.Add(buildPacket(msgRequest, flagTraced, 3, "obj", "op", args))   // trace ids present
	f.Add(buildPacket(msgAnnounce, flagTraced, 4, "obj", "note", nil)) // traced announcement
	f.Add(encodeHeader(nil, header{kind: msgAck, callID: 7}))          // ack: header only
	reply := encodeHeader(nil, header{kind: msgReply, callID: 8})
	reply, _ = appendReplyBody(wire.PackedCodec{}, reply, statusOK, "ok", args, "", wire.Ref{})
	f.Add(reply)
	// 0x10 was the per-message packed flag; it is an unknown bit now.
	for _, pkt := range [][]byte{
		buildPacket(msgRequest, 0, 5, "obj", "op", args),
		buildPacket(msgAnnounce, flagTraced, 6, "obj", "note", nil),
		reply,
	} {
		retired := append([]byte(nil), pkt...)
		retired[1] |= 0x10
		f.Add(retired)
	}
	// Malformed shapes around the trace ids.
	traced := buildPacket(msgRequest, flagTraced, 9, "obj", "op", args)
	f.Add(traced[:len(traced)-1]) // truncated inside the args
	hdr := encodeHeader(nil, header{kind: msgRequest, flags: flagTraced, callID: 10, objID: "o", op: "p"})
	f.Add(hdr[:len(hdr)-traceLen])                                         // traced flag, no ids at all
	f.Add(hdr[:len(hdr)-1])                                                // ids cut short
	f.Add(encodeHeader(nil, header{kind: msgAck, flags: flagTraced}))      // traced ack, zero ids
	f.Add([]byte{})                                                        // empty
	f.Add([]byte{protoVersion})                                            // version only
	f.Add([]byte{0xFF, msgRequest, 0, 0, 0, 0, 0, 0, 0, 0})                // future version
	f.Add([]byte{2, msgRequest, 0, 0, 0, 0, 0, 0, 0, 0})                   // the retired packed version
	f.Add([]byte{protoVersion, 5, 0, 0, 0, 0, 0, 0, 0, 0})                 // unknown kind
	f.Add([]byte{protoVersion, msgRequest | 0x80, 0, 0, 0, 0, 0, 0, 0, 0}) // unknown flag bit
	// Datagrams from a coalescing peer.
	two := batchOf(buildPacket(msgRequest, 0, 11, "obj", "op", args), buildPacket(msgRequest, flagTraced, 12, "obj", "op", nil))
	f.Add(two)
	f.Add(two[:len(two)-1])                                                  // truncated batch
	f.Add(batchOf(encodeHeader(nil, header{kind: msgAck, callID: 13}), two)) // nested batch

	f.Fuzz(func(t *testing.T, data []byte) {
		if !transport.IsBatch(data) {
			checkFrame(t, data)
			return
		}
		var frames [][]byte
		if _, err := transport.DecodeBatch(data, func(frame []byte) { frames = append(frames, frame) }); err != nil {
			return
		}
		for _, frame := range frames {
			if transport.IsBatch(frame) {
				t.Fatalf("a batch delivered a nested batch: % x", frame)
			}
			checkFrame(t, frame)
		}
	})
}

// checkFrame decodes one frame as route does.
func checkFrame(t *testing.T, data []byte) {
	h, body, err := decodeRawHeader(data)
	if err != nil {
		return
	}
	// Everything the parse accepted is position-stable: re-encoding
	// the header yields the bytes it was read from.
	hdr := data[:len(data)-len(body)]
	if re := encodeHeader(nil, h); !bytes.Equal(re, hdr) {
		t.Fatalf("header re-encode mismatch:\n in: % x\nout: % x", hdr, re)
	}
	if h.flags&flagTraced == 0 && h.trace != (obs.SpanContext{}) {
		t.Fatalf("untraced frame produced context %+v", h.trace)
	}
	switch h.kind {
	case msgRequest, msgAnnounce:
		_, _ = wire.DecodeAll(wire.PackedCodec{}, body)
		_, _ = wire.DecodeAll(wire.TextCodec{}, body)
	case msgReply:
		_, _ = decodeReplyBody(wire.PackedCodec{}, new(names), body)
	}
}

// FuzzIDSet drives an idWindow against two maps. Every three bytes are
// one step: an operation, and a signed step from the previous id, so
// runs, gaps, reversals and merges are all a few bytes away. After every
// step membership agrees for the touched id and its neighbours, and the
// ranges of both generations are sorted, disjoint and non-adjacent.
func FuzzIDSet(f *testing.F) {
	step := func(op byte, delta int16) []byte { return []byte{op, byte(delta >> 8), byte(delta)} }
	var inOrder, alternating, reverse, merge, top []byte
	for i := 0; i < 40; i++ {
		inOrder = append(inOrder, step(0, 1)...)
		alternating = append(alternating, step(0, 2)...) // a client alternating between two servers: never merges
		reverse = append(reverse, step(0, -1)...)
	}
	merge = append(merge, step(0, 10)...) // 10
	merge = append(merge, step(0, 2)...)  // 12
	merge = append(merge, step(2, 0)...)  // has 12
	merge = append(merge, step(0, -1)...) // 11 joins [10,10] and [12,12]
	merge = append(merge, step(3, 0)...)  // rotate
	merge = append(merge, step(0, 1)...)  // 12 again, in the new generation
	top = append(top, step(1, 0)...)      // jump to MaxUint64
	top = append(top, step(0, 0)...)
	top = append(top, step(0, -1)...)
	top = append(top, step(0, 1)...)
	top = append(top, step(0, 1)...) // wraps to 0
	for _, seed := range [][]byte{inOrder, alternating, reverse, merge, top, {}} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var w idWindow
		cur, prev := map[uint64]bool{}, map[uint64]bool{}
		var id uint64
		for ; len(data) >= 3; data = data[3:] {
			id += uint64(int64(int16(uint16(data[1])<<8 | uint16(data[2]))))
			switch data[0] % 5 {
			case 0:
				w.cur.add(id)
				cur[id] = true
			case 1:
				id = ^uint64(0)
			case 2: // membership only
			case 3:
				w.rotate()
				cur, prev = map[uint64]bool{}, cur
			case 4:
				if len(w.cur) > 0 {
					// What is forgotten is exactly the lower half.
					keep := w.cur[len(w.cur)/2].lo
					w.cur.forgetOldestHalf()
					for k := range cur {
						if k < keep {
							delete(cur, k)
						}
					}
				}
			}
			for _, probe := range []uint64{id - 1, id, id + 1} {
				if got, want := w.has(probe), cur[probe] || prev[probe]; got != want {
					t.Fatalf("has(%d) = %v, want %v; cur %v prev %v", probe, got, want, w.cur, w.prev)
				}
			}
			for _, s := range []idSet{w.cur, w.prev} {
				for i, r := range s {
					if r.lo > r.hi || (i > 0 && (s[i-1].hi == ^uint64(0) || s[i-1].hi+1 >= r.lo)) {
						t.Fatalf("ranges not sorted, disjoint and non-adjacent: %v", s)
					}
				}
			}
		}
		n := 0
		for _, r := range w.cur {
			n += int(r.hi-r.lo) + 1
		}
		if n != len(cur) {
			t.Fatalf("current generation holds %d ids, want %d", n, len(cur))
		}
	})
}
