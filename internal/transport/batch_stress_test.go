// Race stress for the write coalescer: many goroutines share one
// coalesced connection, and the receiver proves that frames from one
// sender are never interleaved with bytes of another, never reordered
// within a sender, and never corrupted. Run with -race; the CI test
// step does.
package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"odp/internal/clock"
)

func TestCoalescedConcurrentSendersNoInterleave(t *testing.T) {
	a, b := newPair(t) // TCP endpoints: real writes, real readLoop
	// The pending limit is sized so the whole stress load fits even if
	// the flusher never got a slot: no frame may be shed, because the
	// ordering assertion below counts every sequence number.
	ca := NewCoalescer(a, clock.Real{}, nil, WithPendingLimit(MaxPacket))
	cb := NewCoalescer(b, clock.Real{}, nil)
	t.Cleanup(func() {
		_ = ca.Close()
		_ = cb.Close()
	})

	const (
		senders   = 8
		perSender = 150
		total     = senders * perSender
	)

	var (
		mu       sync.Mutex
		lastSeq  = make(map[int]int)
		received int
		bad      atomic.Int64
		done     = make(chan struct{})
	)
	cb.SetHandler(func(from string, pkt []byte) {
		// Frame: [u32 sender][u32 seq][payload filled with byte(sender)]
		if len(pkt) < 8 {
			bad.Add(1)
			return
		}
		g := int(binary.BigEndian.Uint32(pkt))
		seq := int(binary.BigEndian.Uint32(pkt[4:]))
		for _, x := range pkt[8:] {
			if x != byte(g) {
				bad.Add(1) // bytes of another sender's frame leaked in
				return
			}
		}
		mu.Lock()
		if last, ok := lastSeq[g]; ok && seq != last+1 {
			bad.Add(1) // reordered within one sender
		} else if !ok && seq != 0 {
			bad.Add(1)
		}
		lastSeq[g] = seq
		received++
		if received == total {
			close(done)
		}
		mu.Unlock()
	})
	ca.SetHandler(func(string, []byte) {})

	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				size := 16 + (g*31+i*7)%512
				pkt := make([]byte, 8+size)
				binary.BigEndian.PutUint32(pkt, uint32(g))
				binary.BigEndian.PutUint32(pkt[4:], uint32(i))
				for j := 8; j < len(pkt); j++ {
					pkt[j] = byte(g)
				}
				if err := ca.Send(b.Addr(), pkt); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	select {
	case <-done:
	case <-time.After(20 * time.Second):
		mu.Lock()
		got := received
		mu.Unlock()
		t.Fatalf("timed out: %d/%d frames received", got, total)
	}
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d interleaved/reordered/corrupt frames", n)
	}
	st := ca.BatchStats()
	if st.Overflows != 0 {
		t.Fatalf("stress load overflowed the pending queue: %+v", st)
	}
	if st.FramesBatched != total {
		t.Fatalf("expected every frame batched: %+v", st)
	}
	if st.BatchesSent == 0 || st.BatchesSent > total {
		t.Fatalf("implausible batch count: %+v", st)
	}
	t.Logf("sent %d frames in %d batches (%.1f frames/batch)",
		st.FramesBatched, st.BatchesSent,
		float64(st.FramesBatched)/float64(st.BatchesSent))
}

// TestCoalescerFirstSendsRace: sixteen goroutines make their first sends
// to one new address at the same moment, so they race to create its
// record and start its one flusher. Every frame arrives whole, Close
// returns, and a send after Close is refused.
func TestCoalescerFirstSendsRace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const senders = 16
	a, b := newMemEP("mem://a"), newMemEP("mem://b")
	wire(a, b)
	c := NewCoalescer(a, clock.Real{}, nil)
	var (
		mu  sync.Mutex
		got = make(map[string]int)
	)
	rx := NewCoalescer(b, clock.Real{}, nil)
	defer func() { _ = rx.Close() }()
	rx.SetHandler(func(_ string, pkt []byte) {
		mu.Lock()
		got[string(pkt)]++
		mu.Unlock()
	})

	frame := func(i int) []byte { return bytes.Repeat([]byte{byte('A' + i)}, 100+i) }
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			if err := c.Send("mem://b", frame(i)); err != nil {
				t.Errorf("sender %d: %v", i, err)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	closed := make(chan error, 1)
	go func() { closed <- c.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < senders; i++ {
		if n := got[string(frame(i))]; n != 1 {
			t.Errorf("frame %d arrived whole %d times, want 1", i, n)
		}
	}
	if len(got) != senders {
		t.Errorf("%d distinct frames arrived, want %d", len(got), senders)
	}
	if err := c.Send("mem://b", []byte("late")); err != ErrClosed {
		t.Fatalf("send after close: got %v want ErrClosed", err)
	}
	if err := c.SendLazy("mem://b", []byte("late")); err != ErrClosed {
		t.Fatalf("lazy send after close: got %v want ErrClosed", err)
	}
}

// TestCoalescerPeerLookupRace: senders make first sends to fresh
// destinations — each address raced for by several of them — while
// others send to a known one and Close runs. The peer table is read
// without a lock, so every round checks that no address was handed two
// records, that Close returns with every flusher gone, and that nothing
// panics or hangs.
func TestCoalescerPeerLookupRace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const rounds, senders, fresh = 300, 8, 32
	pkt := []byte("frame")
	for r := 0; r < rounds; r++ {
		before := runtime.NumGoroutine()
		c := NewCoalescer(sinkEP{}, clock.Real{}, nil)
		if err := c.Send("mem://known", pkt); err != nil {
			t.Fatal(err)
		}
		var (
			mu   sync.Mutex
			seen = make(map[string]*batchPeer)
			dup  []string
		)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < senders; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < fresh; i++ {
					addr := fmt.Sprintf("mem://%d", (g*5+i)%fresh)
					if p := c.peer(addr); p != nil {
						mu.Lock()
						if q, ok := seen[addr]; ok && q != p {
							dup = append(dup, addr)
						}
						seen[addr] = p
						mu.Unlock()
					}
					_ = c.Send(addr, pkt)
					_ = c.SendLazy("mem://known", pkt)
				}
			}(g)
		}
		closed := make(chan error, 1)
		close(start)
		go func() {
			runtime.Gosched()
			closed <- c.Close()
		}()
		select {
		case err := <-closed:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: Close did not return", r)
		}
		wg.Wait()
		if len(dup) > 0 {
			t.Fatalf("round %d: addresses handed two records: %v", r, dup)
		}
		if c.peer("mem://after") != nil || c.Send("mem://known", pkt) != ErrClosed {
			t.Fatalf("round %d: a closed coalescer handed out a peer", r)
		}
		waitFor(t, "every flusher to exit", func() bool { return runtime.NumGoroutine() <= before })
	}
}
