// Race stress for the write coalescer: many goroutines share one
// coalesced connection, and the receiver proves that frames from one
// sender are never interleaved with bytes of another, never reordered
// within a sender, and never corrupted. Run with -race; the CI test
// step does.
package transport

import (
	"encoding/binary"
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
