package transport

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"odp/internal/clock"
)

func newPair(t *testing.T) (*TCPEndpoint, *TCPEndpoint) {
	t.Helper()
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		_ = a.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = a.Close()
		_ = b.Close()
	})
	return a, b
}

func TestTCPRoundTrip(t *testing.T) {
	a, b := newPair(t)
	got := make(chan string, 1)
	b.SetHandler(func(from string, pkt []byte) { got <- string(pkt) })
	if err := a.Send(b.Addr(), []byte("ping")); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-got:
		if s != "ping" {
			t.Fatalf("got %q", s)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no delivery")
	}
}

func TestTCPReplyOverSameConnection(t *testing.T) {
	a, b := newPair(t)
	fromA := make(chan string, 1)
	b.SetHandler(func(from string, pkt []byte) { fromA <- from })
	gotReply := make(chan string, 1)
	a.SetHandler(func(from string, pkt []byte) { gotReply <- string(pkt) })

	if err := a.Send(b.Addr(), []byte("req")); err != nil {
		t.Fatal(err)
	}
	var from string
	select {
	case from = <-fromA:
	case <-time.After(2 * time.Second):
		t.Fatal("request not delivered")
	}
	if from != a.Addr() {
		t.Fatalf("from = %q, want %q", from, a.Addr())
	}
	// Reply using the advertised from address: must reuse the inbound
	// connection (a's listener port differs from the dialled socket).
	if err := b.Send(from, []byte("reply")); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-gotReply:
		if s != "reply" {
			t.Fatalf("got %q", s)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reply not delivered")
	}
}

// TestTCPBatchesOverWritev drives two coalesced TCP endpoints over real
// sockets: every frame, the first included, rides a BATCH datagram that
// the direct-write path hands to Send (one writev), and the far
// coalescer unpacks it.
func TestTCPBatchesOverWritev(t *testing.T) {
	a, b := newPair(t)
	ca := NewCoalescer(a, clock.Real{}, nil)
	cb := NewCoalescer(b, clock.Real{}, nil)
	t.Cleanup(func() {
		_ = ca.Close()
		_ = cb.Close()
	})
	got := make(chan string, 64)
	cb.SetHandler(func(from string, pkt []byte) { got <- string(pkt) })
	for _, frame := range []string{"first", "second"} {
		if err := ca.Send(b.Addr(), []byte(frame)); err != nil {
			t.Fatal(err)
		}
		select {
		case s := <-got:
			if s != frame {
				t.Fatalf("got %q, want %q", s, frame)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("frame %q not delivered", frame)
		}
	}
	if st := ca.BatchStats(); st.DirectFlushes != 2 || st.BatchesSent != 2 || st.SingleSends != 0 {
		t.Fatalf("want both frames in directly written batches: %+v", st)
	}
	if st := cb.BatchStats(); st.BatchesReceived != 2 || st.FramesUnpacked != 2 {
		t.Fatalf("receiver unpacked %+v, want two batches of one", st)
	}
}

func TestTCPManyFrames(t *testing.T) {
	a, b := newPair(t)
	var n atomic.Int64
	done := make(chan struct{})
	const total = 500
	b.SetHandler(func(string, []byte) {
		if n.Add(1) == total {
			close(done)
		}
	})
	var wg sync.WaitGroup
	for w := 0; w < 5; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < total/5; i++ {
				if err := a.Send(b.Addr(), []byte("m")); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("only %d/%d delivered", n.Load(), total)
	}
}

func TestTCPUnreachable(t *testing.T) {
	a, _ := newPair(t)
	if err := a.Send("tcp:127.0.0.1:1", []byte("x")); err == nil {
		t.Fatal("expected dial failure")
	}
	if err := a.Send("bogus-address", []byte("x")); err == nil {
		t.Fatal("expected scheme failure")
	}
}

func TestTCPClose(t *testing.T) {
	a, b := newPair(t)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(b.Addr(), []byte("x")); err != ErrClosed {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatal("double close should be nil")
	}
}

func TestTCPOversize(t *testing.T) {
	a, b := newPair(t)
	big := make([]byte, MaxPacket+1)
	if err := a.Send(b.Addr(), big); err != ErrTooLarge {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
}

func TestTCPPeerRestart(t *testing.T) {
	// A peer dies and a new process takes over its address: the cached
	// connection breaks, the next send re-dials, traffic flows again —
	// datagram semantics over connection-oriented transport.
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	b1, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := b1.Addr()
	got := make(chan string, 4)
	b1.SetHandler(func(_ string, pkt []byte) { got <- "b1:" + string(pkt) })
	if err := a.Send(addr, []byte("one")); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-got:
		if s != "b1:one" {
			t.Fatalf("got %q", s)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("first delivery failed")
	}
	// Kill b1 and bring up b2 on the same port.
	hostport := addr[len("tcp:"):]
	_ = b1.Close()
	var b2 *TCPEndpoint
	deadline := time.Now().Add(5 * time.Second)
	for {
		b2, err = ListenTCP(hostport)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("port never freed: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Cleanup(func() { _ = b2.Close() })
	b2.SetHandler(func(_ string, pkt []byte) { got <- "b2:" + string(pkt) })

	// Sends may be lost while the stale cached connection drains (that is
	// the datagram contract); retrying must eventually land on b2.
	deadline = time.Now().Add(5 * time.Second)
	for {
		_ = a.Send(addr, []byte("two"))
		select {
		case s := <-got:
			if s == "b2:two" {
				return
			}
		case <-time.After(100 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("restarted peer never reached")
		}
	}
}

// TestTCPSendAllocFree: a frame written over a warm connection
// allocates nothing — not even the consumable copy of the [header,
// packet] vector that net.Buffers.WriteTo drains, which a local vector
// would put on the heap once a frame.
func TestTCPSendAllocFree(t *testing.T) {
	a, b := newPair(t)
	var got atomic.Int64
	b.SetHandler(func(string, []byte) { got.Add(1) })
	pkt := []byte("batched")
	send := func() {
		if err := a.Send(b.Addr(), pkt); err != nil {
			t.Fatal(err)
		}
	}
	send() // dial, hello, read loop
	allocs := testing.AllocsPerRun(200, send)
	deadline := time.Now().Add(2 * time.Second)
	for got.Load() < 202 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := got.Load(); n != 202 {
		t.Fatalf("%d of 202 frames delivered", n)
	}
	if allocs != 0 {
		t.Fatalf("a frame write allocates %.1f/op, want 0", allocs)
	}
}

// routes counts e's routes, the connections a send to a peer takes.
func routes(e *TCPEndpoint) (n int) {
	e.conns.Range(func(_, _ any) bool { n++; return true })
	return n
}

// routeTo returns e's route to addr, or nil.
func routeTo(e *TCPEndpoint, addr string) *tcpConn {
	v, _ := e.conns.Load(addr)
	tc, _ := v.(*tcpConn)
	return tc
}
