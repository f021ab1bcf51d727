package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"odp/internal/clock"
)

// collect records the packets a handler was given, by sender.
type collect struct {
	mu   sync.Mutex
	from map[string]int
	pkts map[string]bool
}

func (c *collect) add(from string, pkt []byte) {
	c.mu.Lock()
	if c.from == nil {
		c.from, c.pkts = make(map[string]int), make(map[string]bool)
	}
	c.from[from]++
	c.pkts[string(pkt)] = true
	c.mu.Unlock()
}

func (c *collect) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pkts)
}

// TestTCPStalledDeliveryHandsOnConnection: a handler that blocks on its
// first packet holds its connection only for a stall bound; the packets
// behind it are delivered meanwhile, by a fresh reader, under the same
// sender's address. Both ends: the accepting side learnt its peer from
// the hello, the dialling side knew it, and neither reader that takes a
// connection over may lose it (or the connection).
func TestTCPStalledDeliveryHandsOnConnection(t *testing.T) {
	a, b := newPair(t)
	const n = 40
	release := make(chan struct{})
	defer close(release)
	blocking := func(got *collect) Handler {
		var first atomic.Bool
		return func(from string, pkt []byte) {
			got.add(from, pkt)
			if first.CompareAndSwap(false, true) {
				<-release
			}
		}
	}
	var atB, atA collect
	b.SetHandler(blocking(&atB))
	a.SetHandler(blocking(&atA))
	send := func(from, to *TCPEndpoint) {
		for i := 0; i < n; i++ {
			if err := from.Send(to.Addr(), []byte(fmt.Sprint(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	// a dials b; b answers over the connection a dialled.
	send(a, b)
	waitFor(t, "every packet at b past the blocked one", func() bool { return atB.count() == n })
	send(b, a)
	waitFor(t, "every packet at a past the blocked one", func() bool { return atA.count() == n })
	for side, got := range map[string]*collect{"b": &atB, "a": &atA} {
		want := map[string]string{"b": a.Addr(), "a": b.Addr()}[side]
		if len(got.from) != 1 || got.from[want] != n {
			t.Errorf("%s: packets by sender %v, want all %d from %s", side, got.from, n, want)
		}
	}
	// The connections survived the hand-offs: nothing was re-dialled.
	for side, e := range map[string]*TCPEndpoint{"a": a, "b": b} {
		e.mu.Lock()
		conns, live := routes(e), len(e.live)
		e.mu.Unlock()
		if conns != 1 || live != 1 {
			t.Errorf("%s: %d routes and %d live connections, want 1 and 1", side, conns, live)
		}
	}
}

// stallPair is two coalescers over loopback TCP. The sender's runs on a
// frozen fake clock, so its flusher never drains: what it sends lazily
// leaves only with the next direct Send, and a burst is one batch.
func stallPair(t *testing.T) (snd, rcv *Coalescer) {
	a, b := newPair(t)
	snd = NewCoalescer(a, clock.NewFake(time.Unix(0, 0)), nil)
	rcv = NewCoalescer(b, clock.Real{}, nil)
	t.Cleanup(func() {
		_ = snd.Close()
		_ = rcv.Close()
	})
	return snd, rcv
}

// sendBatch sends n frames from snd to rcv as one batch.
func sendBatch(t *testing.T, snd, rcv *Coalescer, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		send := snd.SendLazy
		if i == n-1 {
			send = snd.Send
		}
		if err := send(rcv.Addr(), []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCoalescerStalledFrameHandsOnBatch: a frame whose handler blocks
// holds the rest of its batch only for a stall bound; the frames after it
// are delivered meanwhile, and the endpoint says it delivers concurrently.
func TestCoalescerStalledFrameHandsOnBatch(t *testing.T) {
	snd, rcv := stallPair(t)
	if !rcv.DeliversConcurrently() {
		t.Fatal("a coalescer over TCP does not deliver concurrently")
	}
	const n = 16
	release := make(chan struct{})
	defer close(release)
	var got collect
	rcv.SetHandler(func(from string, pkt []byte) {
		got.add(from, pkt)
		if string(pkt) == "0" {
			<-release
		}
	})
	sendBatch(t, snd, rcv, n)
	waitFor(t, "the frames behind the blocked one", func() bool { return got.count() == n })
	if st := rcv.BatchStats(); st.BatchesReceived != 1 || st.FramesUnpacked != n {
		t.Fatalf("%d batches, %d frames received; want one batch of %d", st.BatchesReceived, st.FramesUnpacked, n)
	}
}

// TestHeldRepliesLeaveInOneWrite: replies SendHeld to a batch's sender
// while its frames are being delivered leave together at its end — with
// the last frame's reply — and so do they when a frame before the end
// stalls: the stall hands the end on with the rest.
func TestHeldRepliesLeaveInOneWrite(t *testing.T) {
	for _, stall := range []bool{false, true} {
		t.Run(fmt.Sprintf("stall=%v", stall), func(t *testing.T) {
			snd, rcv := stallPair(t)
			const n = 8
			release := make(chan struct{})
			var replies collect
			snd.SetHandler(replies.add)
			rcv.SetHandler(func(from string, pkt []byte) {
				if stall && string(pkt) == "3" {
					<-release // answered once the rest have been
				}
				if err := rcv.SendHeld(from, append([]byte("re "), pkt...)); err != nil {
					t.Error(err)
				}
			})
			sendBatch(t, snd, rcv, n)
			want := n
			if stall {
				want--
			}
			waitFor(t, "the replies", func() bool { return replies.count() == want })
			close(release)
			waitFor(t, "the last reply", func() bool { return replies.count() == n })
			st := snd.BatchStats()
			if st.BatchesReceived != uint64(n-want+1) {
				t.Errorf("%d replies came in %d batches, want %d", n, st.BatchesReceived, n-want+1)
			}
		})
	}
}

// TestWorkersSpillPastTheBound: more jobs than the pool keeps workers,
// all held until every one runs: the jobs past the bound spill to
// goroutines of their own instead of queueing, the pool keeps exactly
// its bound, and Close leaves none.
func TestWorkersSpillPastTheBound(t *testing.T) {
	const bound, jobs = 4, 12
	var in atomic.Int32
	all := make(chan struct{})
	var done sync.WaitGroup
	done.Add(jobs)
	w := NewWorkers(bound, func(int) {
		if in.Add(1) == jobs {
			close(all)
		}
		select {
		case <-all:
		case <-time.After(10 * time.Second):
			t.Errorf("%d of %d jobs arrived", in.Load(), jobs)
		}
		done.Done()
	})
	for i := 0; i < jobs; i++ {
		w.Submit(i)
	}
	done.Wait()
	if n := w.Live(); n != bound {
		t.Errorf("pool keeps %d workers, want its bound %d", n, bound)
	}
	w.Close()
	if n := w.Live(); n != 0 {
		t.Errorf("%d workers after Close returned, want 0", n)
	}
}

// chainOf returns a ChainHandler for frames "0", "1", …: it sends the
// cursor each frame found on seen, then returns stamp(i).
func chainOf(seen chan<- time.Time) ChainHandler {
	return func(_ string, pkt []byte, at time.Time) time.Time {
		seen <- at
		return stamp(int(pkt[0] - '0'))
	}
}

// stamp is the cursor a test handler returns after frame i.
func stamp(i int) time.Time { return time.Unix(int64(i+1), 0) }

// TestCoalescerChainsCursorWithinARead: the frames of one read reach a
// ChainHandler back to back on one cursor, zero for the first and then
// what the frame before returned; the next read starts at zero again.
func TestCoalescerChainsCursorWithinARead(t *testing.T) {
	snd, rcv := stallPair(t)
	const n = 4
	seen := make(chan time.Time, n)
	rcv.SetChainHandler(chainOf(seen))
	for read := 0; read < 2; read++ {
		sendBatch(t, snd, rcv, n)
		for i := 0; i < n; i++ {
			want := time.Time{}
			if i > 0 {
				want = stamp(i - 1)
			}
			if got := <-seen; !got.Equal(want) {
				t.Fatalf("read %d, frame %d found the cursor at %v, want %v", read, i, got, want)
			}
		}
	}
}

// TestCoalescerHandOffKeepsEachCursor: frame "1" of a batch blocks until
// the watch has handed the rest of the batch and the connection to a
// fresh reader, whose first frame finds a cursor of its own, at zero, not
// a copy of the stalled one's. The stalled delivery, when it returns,
// writes only its own cursor: frame "3" finds what "2" returned, or zero
// if the watch took "2" too.
func TestCoalescerHandOffKeepsEachCursor(t *testing.T) {
	snd, rcv := stallPair(t)
	nextIn, blockDone := make(chan struct{}), make(chan struct{})
	seen := make(chan time.Time, 3)
	wait := func(ch <-chan struct{}, what string) {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Errorf("no %s", what)
		}
	}
	chain := chainOf(seen)
	rcv.SetChainHandler(func(from string, pkt []byte, at time.Time) time.Time {
		switch string(pkt) {
		case "1":
			seen <- at
			wait(nextIn, "hand-off")
			defer close(blockDone)
			return stamp(1)
		case "2":
			defer wait(blockDone, "return of the stalled delivery")
			defer close(nextIn)
		}
		return chain(from, pkt, at)
	})
	sendBatch(t, snd, rcv, 4)
	for i, want := range []time.Time{{}, stamp(0), {}} {
		if got := <-seen; !got.Equal(want) {
			t.Fatalf("frame %d found the cursor at %v, want %v", i, got, want)
		}
	}
	if got := <-seen; !got.Equal(stamp(2)) && !got.IsZero() {
		t.Fatalf("frame 3 found the cursor at %v, want frame 2's %v: the stalled delivery wrote its taker's cursor", got, stamp(2))
	}
}
