package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"odp/internal/clock"
	"odp/internal/obs"
)

// memEP is an in-memory Endpoint for coalescer tests: Send records the
// frame and, when wired to a peer, delivers it synchronously.
type memEP struct {
	addr string

	mu      sync.Mutex
	handler Handler
	sent    [][]byte
	peers   map[string]*memEP
	closed  bool
}

func newMemEP(addr string) *memEP {
	return &memEP{addr: addr, peers: make(map[string]*memEP)}
}

// wire connects two memEPs so frames flow both ways.
func wire(a, b *memEP) {
	a.mu.Lock()
	a.peers[b.addr] = b
	a.mu.Unlock()
	b.mu.Lock()
	b.peers[a.addr] = a
	b.mu.Unlock()
}

func (m *memEP) Addr() string { return m.addr }

func (m *memEP) SetHandler(h Handler) {
	m.mu.Lock()
	m.handler = h
	m.mu.Unlock()
}

func (m *memEP) Send(to string, pkt []byte) error {
	cp := append([]byte(nil), pkt...)
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	m.sent = append(m.sent, cp)
	peer := m.peers[to]
	m.mu.Unlock()
	if peer != nil {
		peer.mu.Lock()
		h := peer.handler
		peer.mu.Unlock()
		if h != nil {
			h(m.addr, cp)
		}
	}
	return nil
}

func (m *memEP) Close() error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	return nil
}

// frames returns the raw frames Send has written so far.
func (m *memEP) frames() [][]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([][]byte(nil), m.sent...)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// countBatches splits captured frames into batches and passthroughs.
func countBatches(frames [][]byte) (batches, singles int, subs [][]byte) {
	for _, f := range frames {
		if len(f) >= batchHdrLen && f[0] == batchMagic && f[1] == batchKind {
			batches++
			_, _ = DecodeBatch(f, func(sub []byte) {
				subs = append(subs, append([]byte(nil), sub...))
			})
			continue
		}
		singles++
		subs = append(subs, append([]byte(nil), f...))
	}
	return batches, singles, subs
}

// TestCoalescerFirstFrameIsBatch: nothing is negotiated. The first frame
// to a peer never heard from already leaves in a BATCH.
func TestCoalescerFirstFrameIsBatch(t *testing.T) {
	inner := newMemEP("mem://a")
	c := NewCoalescer(inner, clock.Real{}, nil)
	defer func() { _ = c.Close() }()

	if err := c.Send("mem://b", []byte("first")); err != nil {
		t.Fatal(err)
	}
	frames := inner.frames()
	batches, singles, subs := countBatches(frames)
	if len(frames) != 1 || batches != 1 || singles != 0 {
		t.Fatalf("first send wrote %d frames (%d batches, %d plain), want one BATCH", len(frames), batches, singles)
	}
	if len(subs) != 1 || string(subs[0]) != "first" {
		t.Fatalf("batch carries %q, want the frame sent", subs)
	}
	if st := c.BatchStats(); st.SingleSends != 0 || st.DirectFlushes != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// idlePeer creates addr's record with no flusher running, so nothing but
// the senders themselves can empty its queue: marked as started, it never
// starts one.
func idlePeer(c *Coalescer, addr string) {
	c.peer(addr).flushing.Store(true)
}

// TestCoalescerFlushSpanCoversBatchWrite: E-series coverage for the
// coalescer.flush channel stage — every batch written to the wire must
// surface as an obs.KindFlush span naming its destination, so traces
// account for frames that left through the batching path.
func TestCoalescerFlushSpanCoversBatchWrite(t *testing.T) {
	col := obs.NewCollector("mem://a", clock.Real{}, obs.WithSampleEvery(1))
	inner := newMemEP("mem://a")
	c := NewCoalescer(inner, clock.Real{}, col)
	defer func() { _ = c.Close() }()

	if err := c.Send("mem://b", make([]byte, 2048)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "batch write", func() bool {
		return c.BatchStats().BatchesSent == 1
	})
	var flushes int
	for _, sp := range col.Snapshot() {
		if sp.Kind == obs.KindFlush {
			flushes++
			if sp.Name != "mem://b" {
				t.Fatalf("flush span names %q, want the destination mem://b", sp.Name)
			}
		}
	}
	if flushes == 0 {
		t.Fatalf("no %s span recorded for a sent batch", obs.KindFlush)
	}
}

// TestCoalescerNaturalBatching: nothing ever waits for company, yet
// frames enqueued while a flush is in flight pack together.
func TestCoalescerNaturalBatching(t *testing.T) {
	inner := newMemEP("mem://a")
	c := NewCoalescer(inner, clock.Real{}, nil)
	defer func() { _ = c.Close() }()

	const n = 200
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n/4; i++ {
				_ = c.Send("mem://b", []byte{byte(g), byte(i)})
			}
		}(g)
	}
	wg.Wait()
	waitFor(t, "all frames flushed", func() bool {
		return c.BatchStats().FramesBatched == n
	})
	st := c.BatchStats()
	if st.BatchesSent > n {
		t.Fatalf("more batches than frames: %+v", st)
	}
}

// TestCoalescerOversizePassthrough: frames too large to share a
// datagram bypass the queue even on the batching path.
func TestCoalescerOversizePassthrough(t *testing.T) {
	inner := newMemEP("mem://a")
	c := NewCoalescer(inner, clock.Real{}, nil, WithPendingLimit(4096))
	defer func() { _ = c.Close() }()

	big := make([]byte, 8192)
	if err := c.Send("mem://b", big); err != nil {
		t.Fatal(err)
	}
	st := c.BatchStats()
	if st.SingleSends != 1 {
		t.Fatalf("oversize frame not passed through: %+v", st)
	}
	if err := c.Send("mem://b", make([]byte, MaxPacket+1)); err != ErrTooLarge {
		t.Fatalf("over-MaxPacket send: got %v want ErrTooLarge", err)
	}
}

// gateEP is a memEP whose Send blocks until the gate opens, so a test
// can hold a coalescer write in flight and queue frames behind it.
type gateEP struct {
	*memEP
	entered chan struct{} // signalled when a Send reaches the gate
	open    chan struct{} // closed to let Sends through
}

func newGateEP(addr string) *gateEP {
	return &gateEP{memEP: newMemEP(addr), entered: make(chan struct{}, 1), open: make(chan struct{})}
}

func (g *gateEP) Send(to string, pkt []byte) error {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.open
	return g.memEP.Send(to, pkt)
}

// stallWrite starts a direct write to mem://b that sticks at inner's
// gate, and returns once it is in flight. The returned channel yields
// the stuck Send's result after the gate opens.
func stallWrite(t *testing.T, c *Coalescer, inner *gateEP) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- c.Send("mem://b", []byte("head")) }()
	select {
	case <-inner.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("direct write never reached the inner endpoint")
	}
	return done
}

// TestCoalescerOverflowDrops: a stalled pending queue sheds load
// instead of growing without bound.
func TestCoalescerOverflowDrops(t *testing.T) {
	inner := newGateEP("mem://a")
	c := NewCoalescer(inner, clock.Real{}, nil, WithPendingLimit(1024))
	defer func() { _ = c.Close() }()
	done := stallWrite(t, c, inner) // everything below queues behind it
	defer func() { close(inner.open); <-done }()

	for i := 0; i < 64; i++ {
		if err := c.Send("mem://b", make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.BatchStats(); st.Overflows == 0 {
		t.Fatalf("no overflow drops recorded: %+v", st)
	}
}

// TestCoalescerLazyOverflowWritesInsteadOfDropping: queued must never
// be lossier than direct. A frame that finds the queue full while the
// wire is free writes the queue out and takes its place in the next
// batch; only a queue full behind a write in flight sheds load. The peer
// has no flusher running, so nothing but the senders themselves can
// empty the queue.
func TestCoalescerLazyOverflowWritesInsteadOfDropping(t *testing.T) {
	const fits = (1024 - batchHdrLen) / (subHdrLen + 64)
	frame := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 64) }
	for name, oneMore := range map[string]func(*Coalescer, string, []byte) error{
		"lazy": (*Coalescer).SendLazy, "direct": (*Coalescer).Send,
	} {
		t.Run(name, func(t *testing.T) {
			inner := newGateEP("mem://a")
			close(inner.open)
			c := NewCoalescer(inner, clock.Real{}, nil, WithPendingLimit(1024))
			defer func() { _ = c.Close() }()
			idlePeer(c, "mem://b")

			for i := 0; i < fits; i++ { // to the limit
				if err := c.SendLazy("mem://b", frame(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := oneMore(c, "mem://b", frame(fits)); err != nil {
				t.Fatal(err)
			}
			st := c.BatchStats()
			if st.Overflows != 0 || st.BatchesSent != 1 || st.FramesBatched != fits {
				t.Fatalf("frame beyond the limit, wire free: want the %d queued frames written and none dropped: %+v", fits, st)
			}
			if err := c.Send("mem://b", []byte("tail")); err != nil {
				t.Fatal(err)
			}
			_, _, subs := countBatches(inner.frames())
			if len(subs) != fits+2 {
				t.Fatalf("%d frames arrived, want %d", len(subs), fits+2)
			}
			for i, sub := range subs[:fits+1] {
				if !bytes.Equal(sub, frame(i)) {
					t.Fatalf("frame %d arrived out of order or altered: % x", i, sub[:4])
				}
			}
			if st := c.BatchStats(); st.Overflows != 0 {
				t.Fatalf("frames dropped: %+v", st)
			}
		})
	}
}

// TestCoalescerCloseDrains: Close flushes frames still queued behind a
// finished write before closing the inner endpoint. The time they spent
// queued is measured on the injected clock, not the wall.
func TestCoalescerCloseDrains(t *testing.T) {
	fc := clock.NewFake(time.Unix(100, 0))
	inner := newGateEP("mem://a")
	c := NewCoalescer(inner, fc, nil)
	done := stallWrite(t, c, inner)

	for i := 0; i < 5; i++ {
		if err := c.Send("mem://b", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.BatchStats(); st.FramesBatched != 0 {
		t.Fatalf("frames left while the wire was held: %+v", st)
	}
	fc.Advance(time.Second)
	close(inner.open)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	st := c.BatchStats()
	if st.FramesBatched != 6 {
		t.Fatalf("Close stranded frames: %+v", st)
	}
	// One direct write claimed at once, one batch queued for a virtual
	// second (1e6 µs lands in log2 bucket 20).
	if d := c.FlushDelay(); d.Count() != 2 || d.Buckets[0] != 1 || d.Buckets[20] != 1 {
		t.Fatalf("flush delay not on the injected clock: %v", d.Buckets)
	}
	if err := c.Send("mem://b", []byte("late")); err != ErrClosed {
		t.Fatalf("send after close: got %v want ErrClosed", err)
	}
}

// readCounter counts reads of the instant.
type readCounter struct {
	clock.Clock
	reads atomic.Int64
}

func (c *readCounter) Now() time.Time {
	c.reads.Add(1)
	return c.Clock.Now()
}

func (c *readCounter) Since(t time.Time) time.Duration {
	c.reads.Add(1)
	return c.Clock.Since(t)
}

// TestDirectSendReadsNoClock: a Send that finds the wire idle writes its
// frame and the lazy frame parked before it without reading the clock —
// neither waited for the wire — and records that batch's delay as 0.
func TestDirectSendReadsNoClock(t *testing.T) {
	clk := &readCounter{Clock: clock.NewFake(time.Unix(100, 0))}
	inner := newMemEP("mem://a")
	c := NewCoalescer(inner, clk, nil)
	defer func() { _ = c.Close() }()
	idlePeer(c, "mem://b") // only the Send writes

	if err := c.SendLazy("mem://b", []byte("ack")); err != nil {
		t.Fatal(err)
	}
	if err := c.Send("mem://b", []byte("request")); err != nil {
		t.Fatal(err)
	}
	if n := clk.reads.Load(); n != 0 {
		t.Fatalf("a lazy frame and a direct write read the clock %d times, want 0", n)
	}
	if st := c.BatchStats(); st.DirectFlushes != 1 || st.BatchesSent != 1 || st.FramesBatched != 2 {
		t.Fatalf("want one direct batch of two frames: %+v", st)
	}
	if d := c.FlushDelay(); d.Count() != 1 || d.Buckets[0] != 1 {
		t.Fatalf("direct batch's delay: %v, want one observation of 0", d.Buckets)
	}
}

// TestDecodeBatchRejectsCorrupt covers the structural validation, and
// that a corrupt batch delivers no prefix of its sub-frames.
func TestDecodeBatchRejectsCorrupt(t *testing.T) {
	valid := buildBatch([][]byte{[]byte("aa"), []byte("bbb"), {}})
	if n, err := DecodeBatch(valid, nil); err != nil || n != 3 {
		t.Fatalf("valid batch: n=%d err=%v", n, err)
	}
	cases := map[string][]byte{
		"empty":            {},
		"short header":     {batchMagic, batchKind},
		"wrong magic":      append([]byte{0x01}, valid[1:]...),
		"wrong kind":       {batchMagic, 'X', batchVersion, 0, 0, 0, 0},
		"wrong version":    {batchMagic, batchKind, 9, 0, 0, 0, 0},
		"truncated prefix": valid[:len(valid)-4],
		"truncated body":   valid[:len(valid)-1],
		"trailing bytes":   append(append([]byte(nil), valid...), 0xFF),
		"count too high":   overwriteCount(valid, 4),
		"count too low":    overwriteCount(valid, 2),
		"huge count":       overwriteCount([]byte{batchMagic, batchKind, batchVersion, 0, 0, 0, 0}, 0xFFFFFFFF),
	}
	for name, pkt := range cases {
		delivered := 0
		if _, err := DecodeBatch(pkt, func([]byte) { delivered++ }); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
		if delivered != 0 {
			t.Errorf("%s: corrupt batch delivered %d sub-frames", name, delivered)
		}
	}
}

// buildBatch assembles a BATCH frame from sub-frames (test helper, also
// the fuzz re-encode oracle).
func buildBatch(subs [][]byte) []byte {
	buf := []byte{batchMagic, batchKind, batchVersion, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(buf[3:], uint32(len(subs)))
	for _, s := range subs {
		var lb [4]byte
		binary.BigEndian.PutUint32(lb[:], uint32(len(s)))
		buf = append(buf, lb[:]...)
		buf = append(buf, s...)
	}
	return buf
}

func overwriteCount(pkt []byte, n uint32) []byte {
	cp := append([]byte(nil), pkt...)
	binary.BigEndian.PutUint32(cp[3:], n)
	return cp
}

// sinkEP is an Endpoint whose writes go nowhere, so a benchmark over it
// prices the coalescer alone.
type sinkEP struct{}

func (sinkEP) Addr() string              { return "mem://sink" }
func (sinkEP) SetHandler(Handler)        {}
func (sinkEP) Send(string, []byte) error { return nil }
func (sinkEP) Close() error              { return nil }

// TestCoalescerSendAllocFree: once a peer's two buffers have grown, a
// send allocates nothing — a direct Send on a free wire, a lazy frame
// written by the flusher's drain, and a 12 KiB frame alike.
func TestCoalescerSendAllocFree(t *testing.T) {
	c := NewCoalescer(sinkEP{}, clock.Real{}, nil)
	defer func() { _ = c.Close() }()
	idlePeer(c, "mem://b") // no flusher: every write below is the test's own
	p := c.peer("mem://b")
	small, big := make([]byte, 64), make([]byte, 12<<10)
	for _, tc := range []struct {
		name string
		send func() error
	}{
		{"direct", func() error { return c.Send("mem://b", small) }},
		{"lazy, then the flusher's drain", func() error {
			err := c.SendLazy("mem://b", small)
			p.flushNow()
			return err
		}},
		{"12 KiB", func() error { return c.Send("mem://b", big) }},
	} {
		send := func() {
			if err := tc.send(); err != nil {
				t.Fatal(err)
			}
		}
		send() // grow the buffer being filled,
		send() // and the spare
		before := c.BatchStats().FramesBatched
		if n := testing.AllocsPerRun(100, send); n != 0 {
			t.Errorf("%s: %.1f allocations a send, want 0", tc.name, n)
		}
		if sent := c.BatchStats().FramesBatched - before; sent != 101 {
			t.Errorf("%s: %d frames written, want 101", tc.name, sent)
		}
	}
}

// BenchmarkCoalescerSendKnownPeer prices a Send, on a free wire, to a
// peer whose record the first send created: the peer lookup, the enqueue
// and the direct write of a batch of one.
func BenchmarkCoalescerSendKnownPeer(b *testing.B) {
	c := NewCoalescer(sinkEP{}, clock.Real{}, nil)
	defer func() { _ = c.Close() }()
	pkt := make([]byte, 64)
	if err := c.Send("mem://b", pkt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Send("mem://b", pkt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoalescerNewPeer prices the first send to the n-th destination,
// at 1k and at 100k peers: a new record is stored, not copied in with the
// table, so the two read alike. Each op adds a peer; keep -benchtime to a
// count (say 10000x), since every one stays.
func BenchmarkCoalescerNewPeer(b *testing.B) {
	for _, n := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("peers=%d", n), func(b *testing.B) {
			c := NewCoalescer(sinkEP{}, clock.Real{}, nil)
			defer func() { _ = c.Close() }()
			pkt := make([]byte, 64)
			addrs := make([]string, n+b.N)
			for i := range addrs {
				addrs[i] = "mem://" + strconv.Itoa(i)
			}
			for _, a := range addrs[:n] {
				if err := c.Send(a, pkt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for _, a := range addrs[n:] {
				if err := c.Send(a, pkt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
