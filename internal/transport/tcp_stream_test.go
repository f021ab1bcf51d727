// Tests for the receive side of the TCP endpoint: the connection hello,
// the [len][pkt] framer over one buffer per connection, and Close with
// connections that never became a peer. The framer cases run the real
// read loop over a scripted connection, so what each Read returns — one
// byte, a whole burst, a cut in the middle of a frame — is exact.
package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// scriptConn is the read side of a connection: Reads return data in
// chunks of the scripted sizes, cycled. The embedded Conn stays nil —
// the read loop only Reads and Closes.
type scriptConn struct {
	net.Conn
	data   []byte
	chunks []int
	reads  int
}

func (c *scriptConn) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := 1
	if len(c.chunks) > 0 {
		n = max(1, c.chunks[c.reads%len(c.chunks)])
	}
	c.reads++
	n = copy(p[:min(n, len(p))], c.data)
	c.data = c.data[n:]
	return n, nil
}

func (c *scriptConn) Close() error { return nil }

// readStream runs the read loop of an accepted connection over data and
// returns what the handler saw, copied, plus the bytes left unread when
// the loop gave the connection up. A delivery that outruns the stall
// bound (a megabyte copied under -race) hands the connection to a fresh
// reader: readStream waits for every reader, and keeps the packets in
// the order their deliveries began.
func readStream(data []byte, chunks ...int) (from []string, pkts [][]byte, unread int) {
	e := &TCPEndpoint{live: make(map[*tcpConn]struct{})}
	var mu sync.Mutex
	e.SetHandler(func(f string, pkt []byte) {
		mu.Lock()
		i := len(pkts)
		from, pkts = append(from, f), append(pkts, nil)
		mu.Unlock()
		cp := append([]byte(nil), pkt...)
		mu.Lock()
		pkts[i] = cp
		mu.Unlock()
	})
	conn := &scriptConn{data: data, chunks: chunks}
	e.wg.Add(1)
	e.readLoop(e.newConn(conn), "")
	e.wg.Wait()
	return from, pkts, len(conn.data)
}

func appendTestFrame(dst, pkt []byte) []byte {
	return append(binary.BigEndian.AppendUint32(dst, uint32(len(pkt))), pkt...)
}

// patterned returns n bytes that differ from one packet to the next and
// along each packet, so a slice of the wrong part of the buffer shows.
func patterned(seed, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(seed*31 + i*7)
	}
	return b
}

func TestTCPStreamFramer(t *testing.T) {
	const peer = "tcp:10.1.2.3:4567"
	stream := func(pkts ...[]byte) []byte {
		s := appendHello(nil, peer)
		for _, p := range pkts {
			s = appendTestFrame(s, p)
		}
		return s
	}
	sized := func(count, size int) [][]byte {
		pkts := make([][]byte, count)
		for i := range pkts {
			pkts[i] = patterned(i, size)
		}
		return pkts
	}
	hundred := sized(100, 40)
	big := patterned(9, 200<<10)
	tooLong := binary.BigEndian.AppendUint32(nil, MaxPacket+1)

	cases := []struct {
		name   string
		data   []byte
		chunks []int
		want   [][]byte
	}{
		{"one byte per write", stream(sized(3, 10)...), []int{1}, sized(3, 10)},
		{"100 frames in one write", stream(hundred...), []int{1 << 20}, hundred},
		{"frame cut between two fills", stream(sized(4, 100)...),
			[]int{len(appendHello(nil, peer)) + 150, 7, 1 << 20}, sized(4, 100)},
		// More than one buffer of frames, read as fast as the buffer
		// takes them: its end falls inside a frame, the tail moves down.
		{"frame across the buffer end", stream(sized(150, 1000)...), []int{1 << 20}, sized(150, 1000)},
		{"empty packet", stream(nil, []byte("x")), []int{3}, [][]byte{{}, []byte("x")}},
		{"200 KiB frame between small ones", stream([]byte("a"), big, []byte("z")), []int{50000},
			[][]byte{[]byte("a"), big, []byte("z")}},
		{"packet of exactly MaxPacket", stream(patterned(1, MaxPacket)), []int{1 << 20},
			[][]byte{patterned(1, MaxPacket)}},
		// Everything from the first bad unit on is dropped with the
		// connection, valid frames behind it included.
		{"length over MaxPacket", append(append(stream([]byte("ok")), tooLong...), stream([]byte("after"))...),
			[]int{1 << 20}, [][]byte{[]byte("ok")}},
		{"garbage hello", append([]byte("GET / HTTP/1.1\r\n\r\n"), stream([]byte("after"))...), []int{5}, nil},
		{"unknown hello version", append([]byte{'O', 'D', 'P', 2, 0, 1, 'x'}, appendTestFrame(nil, []byte("after"))...), nil, nil},
		{"oversized hello address", append([]byte{'O', 'D', 'P', helloVersion, 0x10, 0x01}, make([]byte, 5000)...), []int{1 << 20}, nil},
		{"empty hello address", append([]byte{'O', 'D', 'P', helloVersion, 0, 0}, appendTestFrame(nil, []byte("after"))...), nil, nil},
		{"missing hello", appendTestFrame(nil, []byte("a frame and no hello before it")), []int{1 << 20}, nil},
		{"hello cut short", appendHello(nil, peer)[:9], []int{2}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			from, pkts, unread := readStream(tc.data, tc.chunks...)
			if len(pkts) != len(tc.want) {
				t.Fatalf("%d packets delivered, want %d", len(pkts), len(tc.want))
			}
			for i := range pkts {
				if from[i] != peer {
					t.Fatalf("packet %d from %q, want the hello's %q", i, from[i], peer)
				}
				if !bytes.Equal(pkts[i], tc.want[i]) {
					t.Fatalf("packet %d (%d bytes) differs from what was sent (%d bytes)", i, len(pkts[i]), len(tc.want[i]))
				}
			}
			if len(tc.want) == 0 && bytes.Contains(tc.data, []byte("after")) && unread == 0 {
				t.Fatal("the stream behind a bad hello was read to its end, not dropped")
			}
		})
	}
}

// TestTCPStreamBufferNotRetained: a frame larger than the read buffer
// gets a grown one, and the connection is back on a buffer of the
// standard size as soon as the next unit fits one.
func TestTCPStreamBufferNotRetained(t *testing.T) {
	big := patterned(3, 200<<10)
	data := appendTestFrame(appendTestFrame(nil, big), []byte("small"))
	conn := &scriptConn{data: data[:len(data)-2], chunks: []int{1 << 20}}
	s := frameStream{buf: make([]byte, maxRetainedBuf)}
	var got [][]byte
	grew := false
	for s.fill(conn) == nil {
		grew = grew || len(s.buf) >= len(big)
		for {
			pkt, ok, err := s.next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			got = append(got, append([]byte(nil), pkt...))
		}
	}
	if len(got) != 1 || !bytes.Equal(got[0], big) {
		t.Fatalf("200 KiB frame did not round-trip (%d packets)", len(got))
	}
	if !grew {
		t.Fatal("the frame cannot have fitted: the buffer never grew")
	}
	// The loop ended waiting for the rest of the small frame.
	if len(s.buf) != maxRetainedBuf {
		t.Fatalf("read buffer is %d bytes after the big frame, want %d", len(s.buf), maxRetainedBuf)
	}
	if string(s.buf[s.r:s.w]) != string(data[len(data)-9:len(data)-2]) {
		t.Fatal("the partial frame behind the big one was lost with the grown buffer")
	}
}

// TestTCPBadHelloClosesConnection: over a real socket, a peer that opens
// with anything but a hello is hung up on and its bytes reach no handler.
func TestTCPBadHelloClosesConnection(t *testing.T) {
	a, _ := newPair(t)
	called := make(chan struct{}, 1)
	a.SetHandler(func(string, []byte) { called <- struct{}{} })
	hostport, _ := stripScheme(a.Addr())
	conn, err := net.Dial("tcp", hostport)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(appendTestFrame(nil, []byte("no hello"))); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read on a connection that sent no hello: %v, want EOF", err)
	}
	select {
	case <-called:
		t.Fatal("a frame without a hello reached the handler")
	default:
	}
}

// TestTCPConcurrentFirstSendsKeepReplyRoute: many senders racing on the
// first Send to a peer each dial, one dial wins and the rest are closed.
// Only the winner may name the dialler to the acceptor: if a loser did,
// the acceptor could route replies onto it and lose the route when it
// closes. Afterwards the acceptor's route for the dialler must be the
// one connection still live, and a reply must travel over it — the
// dialler is never dialled back.
func TestTCPConcurrentFirstSendsKeepReplyRoute(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	const senders = 32
	for iter := 0; iter < 100; iter++ {
		a, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		b, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var arrived atomic.Int32
		b.SetHandler(func(string, []byte) { arrived.Add(1) })
		reply := make(chan struct{}, 1)
		a.SetHandler(func(string, []byte) { reply <- struct{}{} })
		var wg sync.WaitGroup
		for i := 0; i < senders; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := a.Send(b.Addr(), []byte("first")); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		waitFor(t, "every first send delivered and every losing dial gone", func() bool {
			b.mu.Lock()
			defer b.mu.Unlock()
			return arrived.Load() == senders && len(b.live) == 1
		})
		b.mu.Lock()
		route := routeTo(b, a.Addr())
		_, live := b.live[route]
		b.mu.Unlock()
		if route == nil || !live {
			t.Fatalf("iteration %d: acceptor's route for the dialler is %p (live %v), want the one live connection", iter, route, live)
		}
		if err := b.Send(a.Addr(), []byte("reply")); err != nil {
			t.Fatal(err)
		}
		select {
		case <-reply:
		case <-time.After(2 * time.Second):
			t.Fatalf("iteration %d: reply not delivered", iter)
		}
		a.mu.Lock()
		inbound := len(a.live) - routes(a) // connections a accepted rather than dialled
		a.mu.Unlock()
		if inbound != 0 {
			t.Fatalf("iteration %d: the reply dialled back (%d inbound connections at the dialler)", iter, inbound)
		}
		_ = a.Close()
		_ = b.Close()
	}
}

// TestTCPRedialReplacesStaleRoute: a peer that drops its connection and
// dials again says hello on the new one; the acceptor routes to that one
// even if the old connection's read loop has not yet seen it close.
func TestTCPRedialReplacesStaleRoute(t *testing.T) {
	a, b := newPair(t)
	var arrived atomic.Int32
	b.SetHandler(func(string, []byte) { arrived.Add(1) })
	reply := make(chan struct{}, 1)
	a.SetHandler(func(string, []byte) { reply <- struct{}{} })
	for round := int32(1); round <= 20; round++ {
		if err := a.Send(b.Addr(), []byte("x")); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "delivery", func() bool { return arrived.Load() == round })
		if err := b.Send(a.Addr(), []byte("reply")); err != nil {
			t.Fatal(err)
		}
		select {
		case <-reply:
		case <-time.After(2 * time.Second):
			t.Fatalf("round %d: reply not delivered over the redialled connection", round)
		}
		// A dial-back would stay as a second live connection; the one
		// dropped last round goes once its read loop has noticed.
		var tc *tcpConn
		waitFor(t, "the dialler left with the one connection it dialled", func() bool {
			a.mu.Lock()
			defer a.mu.Unlock()
			tc = routeTo(a, b.Addr())
			return tc != nil && len(a.live) == 1
		})
		a.dropConn(b.Addr(), tc) // as a failed write would
	}
}

// TestTCPCloseWithSilentInboundConn: Close must not wait for ever on the
// read loop of a connection it does not know how to close — one that has
// sent nothing yet, or a second one from a peer that already has one.
func TestTCPCloseWithSilentInboundConn(t *testing.T) {
	e, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hostport, _ := stripScheme(e.Addr())
	for i, opening := range [][]byte{nil, appendHello(nil, "tcp:10.0.0.1:1"), appendHello(nil, "tcp:10.0.0.1:1")} {
		conn, err := net.Dial("tcp", hostport)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(opening); err != nil {
			t.Fatalf("conn %d: %v", i, err)
		}
	}
	waitFor(t, "the three connections accepted", func() bool {
		e.mu.Lock()
		defer e.mu.Unlock()
		return len(e.live) == 3 && routes(e) == 1
	})
	closed := make(chan error, 1)
	go func() { closed <- e.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close hangs on a connection that never became a peer")
	}
}
