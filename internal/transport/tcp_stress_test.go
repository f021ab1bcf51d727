package transport

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTCPConcurrentSendersNoInterleave hammers one destination from many
// goroutines with large, distinctive frames and checks two properties of
// the per-connection write path under -race:
//
//  1. Frames never interleave. Each packet is a header naming its sender
//     plus a body of that sender's byte repeated; large bodies force the
//     kernel into partial writes, which unserialized concurrent
//     net.Conn.Writes would interleave on the stream.
//  2. The dial race collapses to exactly one cached connection: all
//     senders start cold simultaneously, every loser must adopt the
//     winner's connection.
func TestTCPConcurrentSendersNoInterleave(t *testing.T) {
	a, b := newPair(t)
	const (
		senders   = 8
		perSender = 24
		total     = senders * perSender
	)

	var (
		mu        sync.Mutex
		perOrigin = make(map[int]int)
		count     int
		corrupted atomic.Int64
		done      = make(chan struct{})
	)
	b.SetHandler(func(from string, pkt []byte) {
		if len(pkt) < 8 {
			corrupted.Add(1)
			return
		}
		g := int(binary.BigEndian.Uint32(pkt))
		want := byte(g)
		for _, x := range pkt[8:] {
			if x != want {
				corrupted.Add(1)
				break
			}
		}
		mu.Lock()
		perOrigin[g]++
		count++
		if count == total {
			close(done)
		}
		mu.Unlock()
	})

	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Varied sizes beyond the socket buffer make partial writes
			// likely, the condition under which interleaving would show.
			size := 16<<10 + g*7001
			pkt := make([]byte, 8+size)
			binary.BigEndian.PutUint32(pkt, uint32(g))
			for i := 8; i < len(pkt); i++ {
				pkt[i] = byte(g)
			}
			for i := 0; i < perSender; i++ {
				binary.BigEndian.PutUint32(pkt[4:], uint32(i))
				if err := a.Send(b.Addr(), pkt); err != nil {
					t.Errorf("sender %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	select {
	case <-done:
	case <-time.After(15 * time.Second):
		mu.Lock()
		got := count
		mu.Unlock()
		t.Fatalf("only %d/%d frames delivered", got, total)
	}
	if n := corrupted.Load(); n != 0 {
		t.Fatalf("%d corrupted frames: concurrent sends interleaved", n)
	}
	mu.Lock()
	for g := 0; g < senders; g++ {
		if perOrigin[g] != perSender {
			t.Errorf("sender %d: %d/%d frames arrived", g, perOrigin[g], perSender)
		}
	}
	mu.Unlock()

	a.mu.Lock()
	conns := routes(a)
	a.mu.Unlock()
	if conns != 1 {
		t.Fatalf("sender cached %d connections to one destination, want 1", conns)
	}
}
