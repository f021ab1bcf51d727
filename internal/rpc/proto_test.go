package rpc

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"odp/internal/obs"
	"odp/internal/wire"
)

// TestFrameTable walks the one frame layout over kind × traced:
// every combination round-trips through encodeHeader → decodeRawHeader,
// requests and announcements carry the object id and operation while
// replies and acks do not, and every strict prefix of a header is
// rejected.
func TestFrameTable(t *testing.T) {
	trace := obs.SpanContext{TraceID: 0xABCD, SpanID: 0x1234}
	for kind := byte(msgRequest); kind <= msgAnnounce; kind++ {
		for _, flags := range []byte{0, flagTraced} {
			h := header{kind: kind, flags: flags, callID: ^uint64(kind)}
			wantLen := fixedHdrLen
			if hasTarget(kind) {
				h.objID, h.op = "a/b/c", "op with spaces"
				wantLen += 4 + len(h.objID) + 4 + len(h.op)
			}
			if flags&flagTraced != 0 {
				h.trace = trace
				wantLen += traceLen
			}
			enc := encodeHeader(nil, h)
			if len(enc) != wantLen {
				t.Fatalf("%+v: header is %d bytes, want %d", h, len(enc), wantLen)
			}
			if enc[0] != protoVersion || enc[0] == 0xB7 {
				t.Fatalf("%+v: first byte %#x", h, enc[0])
			}
			got, rest, err := decodeRawHeader(append(enc, "BODY"...))
			if err != nil {
				t.Fatalf("%+v: %v", h, err)
			}
			if got != h {
				t.Fatalf("round trip: %+v != %+v", got, h)
			}
			if string(rest) != "BODY" {
				t.Fatalf("%+v: rest %q", h, rest)
			}
			if !hasTarget(kind) {
				// A target on a reply or an ack never reaches the wire.
				named := h
				named.objID, named.op = "obj", "op"
				if !bytes.Equal(encodeHeader(nil, named), enc) {
					t.Fatalf("%+v: reply/ack carried a target", h)
				}
			}
			for cut := 0; cut < len(enc); cut++ {
				if _, _, err := decodeRawHeader(enc[:cut]); !errors.Is(err, ErrBadMessage) {
					t.Fatalf("%+v: truncated header (%d/%d bytes): err = %v", h, cut, len(enc), err)
				}
			}
		}
	}
}

// TestFrameRejected: a wrong version, an unknown kind and an unknown
// flag bit are all ErrBadMessage at the header parse.
func TestFrameRejected(t *testing.T) {
	valid := encodeHeader(nil, header{kind: msgRequest, flags: flagTraced, callID: 1, objID: "o", op: "p"})
	if _, _, err := decodeRawHeader(valid); err != nil {
		t.Fatal(err)
	}
	cases := map[string][2]byte{
		"version 0":            {0, msgRequest},
		"version 2":            {2, msgRequest}, // the retired packed-body version
		"future version":       {0xFF, msgRequest},
		"kind 0":               {protoVersion, 0},
		"kind 5":               {protoVersion, 5}, // the retired traced-request type
		"kind 6":               {protoVersion, 6}, // the retired traced-announce type
		"kind 15":              {protoVersion, kindMask},
		"unknown flag 0x10":    {protoVersion, msgRequest | 0x10}, // the retired packed-body flag
		"unknown flag 0x40":    {protoVersion, msgRequest | 0x40},
		"unknown flag 0x80":    {protoVersion, msgRequest | 0x80},
		"known + unknown flag": {protoVersion, msgReply | flagTraced | 0x80},
	}
	for name, b := range cases {
		pkt := append([]byte(nil), valid...)
		pkt[0], pkt[1] = b[0], b[1]
		if _, _, err := decodeRawHeader(pkt); !errors.Is(err, ErrBadMessage) {
			t.Errorf("%s: err = %v, want ErrBadMessage", name, err)
		}
	}
}

func TestHeaderRoundTripProperty(t *testing.T) {
	prop := func(kind, flags uint8, callID uint64, objID, op string, trace obs.SpanContext) bool {
		h := header{kind: msgRequest + kind%4, flags: flags & flagMask, callID: callID}
		if hasTarget(h.kind) {
			h.objID, h.op = objID, op
		}
		if h.flags&flagTraced != 0 {
			h.trace = trace
		}
		got, rest, err := decodeRawHeader(encodeHeader(nil, h))
		return err == nil && got == h && len(rest) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestReplyBodyRoundTrip(t *testing.T) {
	codec := wire.PackedCodec{}
	fwd := wire.Ref{ID: "x", Endpoints: []string{"there"}, Epoch: 3}
	tests := []struct {
		name    string
		status  byte
		outcome string
		results []wire.Value
		msg     string
		fwd     wire.Ref
	}{
		{name: "ok-empty", status: statusOK, outcome: "ok"},
		{name: "ok-results", status: statusOK, outcome: "partial", results: []wire.Value{int64(1), "two", nil}},
		{name: "syserror", status: statusSysError, msg: "exploded"},
		{name: "denied", status: statusDenied, msg: "no"},
		{name: "noobject", status: statusNoObject},
		{name: "moved", status: statusMoved, fwd: fwd},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			enc, err := appendReplyBody(codec, nil, tt.status, tt.outcome, tt.results, tt.msg, tt.fwd)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := decodeReplyBody(codec, new(names), enc)
			if err != nil {
				t.Fatal(err)
			}
			if rb.status != tt.status || rb.outcome != tt.outcome || rb.msg != tt.msg {
				t.Fatalf("round trip: %+v", rb)
			}
			if len(rb.results) != len(tt.results) {
				t.Fatalf("results %v", rb.results)
			}
			for i := range tt.results {
				if !wire.Equal(rb.results[i], tt.results[i]) {
					t.Fatalf("result %d mismatch", i)
				}
			}
			if tt.status == statusMoved && !wire.Equal(rb.fwd, tt.fwd) {
				t.Fatalf("fwd %v", rb.fwd)
			}
		})
	}
}

func TestReplyBodyGarbage(t *testing.T) {
	codec := wire.PackedCodec{}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		buf := make([]byte, rng.Intn(48))
		rng.Read(buf)
		// Must never panic.
		_, _ = decodeReplyBody(codec, new(names), buf)
	}
	if _, err := decodeReplyBody(codec, new(names), nil); !errors.Is(err, ErrBadMessage) {
		t.Fatal("empty body accepted")
	}
	if _, err := decodeReplyBody(codec, new(names), []byte{99}); !errors.Is(err, ErrBadMessage) {
		t.Fatal("unknown status accepted")
	}
}

func TestErrorTypes(t *testing.T) {
	moved := &MovedError{Forward: wire.Ref{Endpoints: []string{"x"}}}
	if moved.Error() == "" {
		t.Fatal("empty moved message")
	}
	remote := &RemoteError{Msg: "boom"}
	if remote.Error() != "rpc: remote: boom" {
		t.Fatalf("remote message %q", remote.Error())
	}
	var asMoved *MovedError
	if !errors.As(error(moved), &asMoved) {
		t.Fatal("errors.As failed for MovedError")
	}
}
