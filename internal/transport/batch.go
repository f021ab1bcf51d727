// Write coalescing: adaptive frame batching on shared connections.
//
// PR 2 drove per-call allocations to near zero, which left the E1
// loopback cost dominated by per-packet overhead — framing, syscalls
// (TCP) or per-delivery goroutines (netsim), and scheduler wakeups.
// That is channel overhead, not computational-model overhead, so per
// §5.5 of the paper it belongs to the channel: the Coalescer wraps any
// Endpoint and packs frames that concurrent senders address to the same
// destination into a single BATCH datagram, amortising the per-packet
// cost across all of them without the layers above changing at all.
//
// Flush policy (natural batching, in the group-commit tradition): no
// frame is ever held back to wait for company. Three paths share one
// per-destination queue, each kept because a workload takes it:
//
//   - direct write: a Send that finds no write in progress claims the
//     whole queue and writes it synchronously, so serial request/reply
//     traffic never pays a goroutine hand-off (queueing every frame for
//     the flusher instead made loop_serial a quarter slower, DESIGN.md
//     *Write coalescing*). It reads the clock only to time frames that
//     queued behind an earlier write;
//   - lazy enqueue (SendLazy): the frame is queued without forcing a
//     write. The coalescer cannot see who else is about to send — on one
//     core every caller finds the wire idle — so the layer that can
//     chooses: rpc queues acks and announcements always, and requests
//     and replies while other interrogations are in flight. A queue
//     found full with the wire free is written, not dropped from;
//   - a flusher per destination drains whatever queued behind an
//     in-flight write or was enqueued lazily with no Send to follow.
//     Between its doorbell and its claim it waits for the end of the
//     instant (clock.Clock's EndOfInstant: one runtime.Gosched on the
//     real clock), so the senders a burst made runnable enqueue first and
//     one write carries them all; what accumulated during the previous
//     write forms the next batch, so batch size adapts to load.
//
// Every node coalesces, so nothing is negotiated: a Coalescer writes
// BATCH datagrams to every peer from its first frame and unpacks the
// ones it receives before its handler sees them. A BATCH starts with the
// byte 0xB7, which no rpc packet can start with (rpc packets start with
// their protocol version, 1), and a sub-frame is never itself a BATCH.
package transport

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"odp/internal/clock"
	"odp/internal/obs"
)

// Batch wire format. A BATCH frame is one datagram carrying N complete
// sub-frames:
//
//	[0xB7 'B' ver] [u32 count] count × ( [u32 len] [len bytes] )
//
// and no sub-frame starts with 0xB7.
const (
	batchMagic   = 0xB7 // first byte of every BATCH frame
	batchKind    = 'B'
	batchVersion = 1

	batchHdrLen = 3 + 4 // magic, kind, version + u32 sub-frame count
	subHdrLen   = 4     // u32 length prefix per sub-frame

	// Default; see WithPendingLimit.
	defaultPendingLimit = 256 << 10
)

// ErrBatchCorrupt reports a BATCH frame whose structure is inconsistent
// (truncated sub-frame, count mismatch, trailing bytes, a nested batch).
var ErrBatchCorrupt = errors.New("transport: corrupt batch frame")

// CoalescerStats is a snapshot of a Coalescer's counters.
type CoalescerStats struct {
	BatchesSent     uint64 // BATCH frames written to the inner endpoint
	FramesBatched   uint64 // sub-frames carried inside those batches
	SingleSends     uint64 // frames too large to share a datagram, passed through unbatched
	BatchesReceived uint64 // BATCH frames decoded from the wire
	FramesUnpacked  uint64 // sub-frames delivered out of received batches
	BadFrames       uint64 // corrupt or version-mismatched batches dropped
	Overflows       uint64 // frames dropped because a peer's pending queue was full
	// DirectFlushes counts batches written synchronously by a sender
	// that found its peer idle, skipping the flusher hand-off (these are
	// also counted in BatchesSent).
	DirectFlushes uint64
	// FramesPerBatch is a histogram of sent batch sizes with buckets
	// 1, 2–3, 4–7, 8–15 and ≥16 frames.
	FramesPerBatch [5]uint64
}

// coalCounters is the atomic backing store for CoalescerStats.
type coalCounters struct {
	batchesSent, framesBatched, singleSends atomic.Uint64
	batchesRecv, framesUnpacked             atomic.Uint64
	badFrames, overflows                    atomic.Uint64
	directFlushes                           atomic.Uint64
	buckets                                 [5]atomic.Uint64
}

func sizeBucket(n int) int {
	switch {
	case n <= 1:
		return 0
	case n <= 3:
		return 1
	case n <= 7:
		return 2
	case n <= 15:
		return 3
	default:
		return 4
	}
}

// CoalescerOption configures a Coalescer.
type CoalescerOption func(*Coalescer)

// WithPendingLimit bounds the bytes queued per destination. When the
// limit is reached further frames are dropped (and counted), matching
// the best-effort contract of the endpoint beneath.
func WithPendingLimit(n int) CoalescerOption {
	return func(c *Coalescer) {
		if n > 0 {
			c.pendingLimit = n
		}
	}
}

// Coalescer wraps an Endpoint with per-destination write coalescing. It
// is itself an Endpoint, and the Batcher every rpc endpoint is built on.
type Coalescer struct {
	inner Endpoint
	clk   clock.Clock

	pendingLimit int

	handler atomic.Value // Handler

	mu     sync.Mutex
	peers  map[string]*batchPeer
	closed bool
	stop   chan struct{}
	wg     sync.WaitGroup

	// obs, when non-nil, is the node's span collector; here it records a
	// flush span per batch write.
	obs *obs.Collector

	stats coalCounters
	// flushDelay is the queue delay per batch claimed: from its first
	// frame queued behind a write in flight to the claim, or 0, read from
	// no clock, when none was (direct writes, lazy frames on a free wire).
	flushDelay obs.Histogram
}

// Batcher is implemented by endpoints that coalesce outgoing frames
// (see Coalescer). SendLazy queues a frame for to without writing
// anything itself: the frame rides in whichever batch next leaves for
// that destination — the next Send's, or the flusher's, whichever comes
// first. The rpc layer uses it for what need not, or should not, pay for
// a write of its own: acks and announcements, and interrogations and
// replies while others are in flight.
//
// A Batcher also carries its node's clock and span collector, so every
// layer built on it reads the one instant and records into the one ring.
type Batcher interface {
	Endpoint
	SendLazy(to string, pkt []byte) error
	BatchStats() CoalescerStats
	// Clock is the node's time source; never nil.
	Clock() clock.Clock
	// Observer is the node's span collector; nil means untraced.
	Observer() *obs.Collector
}

var (
	_ Endpoint = (*Coalescer)(nil)
	_ Batcher  = (*Coalescer)(nil)
)

// NewCoalescer wraps ep for a node whose clock is clk (required) and
// whose span collector is col (nil means untraced). The clock times the
// frames that queue behind a write in flight and says when the instant a
// flusher was woken in is over; the collector records a flush span per
// batch write (an infrastructure trace, subject to the same sampling knob
// as invocation roots). Every layer built on the Coalescer reads both
// from it. The Coalescer takes over ep's inbound handler; install the
// application handler on the Coalescer, and close the Coalescer (which
// closes ep) rather than ep directly.
func NewCoalescer(ep Endpoint, clk clock.Clock, col *obs.Collector, opts ...CoalescerOption) *Coalescer {
	c := &Coalescer{
		inner:        ep,
		clk:          clk,
		obs:          col,
		pendingLimit: defaultPendingLimit,
		peers:        make(map[string]*batchPeer),
		stop:         make(chan struct{}),
	}
	for _, o := range opts {
		o(c)
	}
	if c.pendingLimit > MaxPacket {
		c.pendingLimit = MaxPacket
	}
	ep.SetHandler(c.demux)
	return c
}

// batchPeer is the per-destination coalescing state. The batch under
// construction is a list of per-frame segments — each one pooled and
// already carrying its sub-frame length prefix — rather than one
// contiguous buffer: a frame is framed exactly once, at enqueue, and
// the whole batch goes to the inner endpoint as a segment vector
// (writev via VecSender) without ever being recopied.
type batchPeer struct {
	c    *Coalescer
	dest string

	mu       sync.Mutex
	segs     []*[]byte // queued sub-frames, each [u32 len][bytes], pooled
	bytes    int       // queued bytes across segs (excluding the batch header)
	count    int       // sub-frames queued
	firstAt  time.Time // when the first frame queued behind a write in flight
	timed    bool      // firstAt is set for the queued batch
	inFlight bool      // a claimed write is in progress; queue behind it
	spare    []*[]byte // recycled seg-slice header, ping-ponged with segs

	// Write-path scratch, owned by whichever goroutine holds the
	// inFlight token (never touched under mu).
	hdr    [batchHdrLen]byte
	vec    net.Buffers
	gather []byte // contiguous fallback when the inner endpoint lacks SendVec

	wake chan struct{} // 1-buffered flusher doorbell
}

// segPool recycles per-frame segment buffers.
var segPool = sync.Pool{
	New: func() interface{} {
		b := make([]byte, 0, 512)
		return &b
	},
}

// maxPooledSeg bounds retained segment capacity.
const maxPooledSeg = 64 << 10

// Addr implements Endpoint.
func (c *Coalescer) Addr() string { return c.inner.Addr() }

// Clock implements Batcher.
func (c *Coalescer) Clock() clock.Clock { return c.clk }

// Observer implements Batcher.
func (c *Coalescer) Observer() *obs.Collector { return c.obs }

// SetHandler implements Endpoint.
func (c *Coalescer) SetHandler(h Handler) { c.handler.Store(h) }

func (c *Coalescer) loadHandler() Handler {
	h, _ := c.handler.Load().(Handler)
	return h
}

// Send implements Endpoint. The error reflects only local admission;
// transmission failures surface as drops, which is the contract of the
// unreliable endpoint beneath.
//
// When no write is in progress the sender claims the whole queue — its
// own frame plus anything parked by SendLazy or earlier senders — and
// writes the batch synchronously. Serial traffic then skips the flusher
// hand-off (two scheduler hops per frame) entirely; the flusher remains
// the drain for frames that arrive while a claimed write is on the wire.
func (c *Coalescer) Send(to string, pkt []byte) error { return c.send(to, pkt, false) }

// SendLazy implements Batcher: pkt is queued for to but no write is
// triggered on the caller's dime — the frame rides in the next batch a
// substantive Send claims, or the flusher's next drain, whichever comes
// first.
func (c *Coalescer) SendLazy(to string, pkt []byte) error { return c.send(to, pkt, true) }

func (c *Coalescer) send(to string, pkt []byte, lazy bool) error {
	if len(pkt) > MaxPacket {
		return ErrTooLarge
	}
	p := c.peer(to)
	if p == nil {
		return ErrClosed
	}
	if batchHdrLen+subHdrLen+len(pkt) > c.pendingLimit {
		// Too big to share a datagram with anything else; batching
		// could not amortise it anyway.
		c.stats.singleSends.Add(1)
		return c.inner.Send(to, pkt)
	}
	p.mu.Lock()
	queued := p.enqueueLocked(pkt)
	if p.inFlight || (lazy && queued) {
		p.mu.Unlock()
		if !queued {
			// Full behind a write that is not finishing: shed load.
			c.stats.overflows.Add(1)
			return nil
		}
		// A lazy frame's flusher backstops delivery if no Send follows;
		// under serial request/reply traffic the next Send usually claims
		// the frame first.
		p.wakeFlusher()
		return nil
	}
	// The wire is free. A full queue is written rather than dropped from
	// — queued is never lossier than direct — and pkt, alone in the
	// emptied queue, follows with the flusher.
	segs, n := p.claimLocked()
	if !queued {
		p.enqueueLocked(pkt)
	}
	p.mu.Unlock()
	c.stats.directFlushes.Add(1)
	p.writeSegs(segs, n)
	p.finishWrite(segs)
	return nil
}

// DeliversConcurrently reports whether the inner endpoint delivers on
// independent goroutines; the coalescer adds no serialisation of its
// own (it unpacks in the inner delivery goroutine), so it simply
// delegates.
func (c *Coalescer) DeliversConcurrently() bool {
	cd, ok := c.inner.(ConcurrentDeliverer)
	return ok && cd.DeliversConcurrently()
}

// Close flushes whatever is pending, stops the flushers and closes the
// inner endpoint.
func (c *Coalescer) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	close(c.stop)
	c.wg.Wait()
	return c.inner.Close()
}

// BatchStats implements Batcher.
func (c *Coalescer) BatchStats() CoalescerStats {
	s := CoalescerStats{
		BatchesSent:     c.stats.batchesSent.Load(),
		FramesBatched:   c.stats.framesBatched.Load(),
		SingleSends:     c.stats.singleSends.Load(),
		BatchesReceived: c.stats.batchesRecv.Load(),
		FramesUnpacked:  c.stats.framesUnpacked.Load(),
		BadFrames:       c.stats.badFrames.Load(),
		Overflows:       c.stats.overflows.Load(),
		DirectFlushes:   c.stats.directFlushes.Load(),
	}
	for i := range s.FramesPerBatch {
		s.FramesPerBatch[i] = c.stats.buckets[i].Load()
	}
	return s
}

// FlushDelay snapshots the batch queue-delay histogram (first enqueue
// to claim).
func (c *Coalescer) FlushDelay() obs.HistogramSnapshot {
	return c.flushDelay.Snapshot()
}

// PeerBatching reports true: every peer reads batches. It survives, name
// only, for its one caller, cmd/odpload's warmFrames, and goes when that
// caller stops waiting on it.
func (c *Coalescer) PeerBatching(string) bool { return true }

// peer returns the state for addr, or nil if the coalescer is closed. The
// first send to addr creates the record and starts its flusher.
func (c *Coalescer) peer(addr string) *batchPeer {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	p := c.peers[addr]
	if p == nil {
		p = &batchPeer{c: c, dest: addr, wake: make(chan struct{}, 1)}
		c.peers[addr] = p
		c.wg.Add(1)
		go p.flusher()
	}
	return p
}

// IsBatch reports whether pkt is marked as a BATCH frame: whether it
// starts with the byte no other frame starts with.
func IsBatch(pkt []byte) bool { return len(pkt) > 0 && pkt[0] == batchMagic }

// demux is installed as the inner endpoint's handler: it unpacks batches
// and forwards everything else untouched.
func (c *Coalescer) demux(from string, pkt []byte) {
	h := c.loadHandler()
	if !IsBatch(pkt) {
		if h != nil {
			h(from, pkt)
		}
		return
	}
	n, err := DecodeBatch(pkt, func(sub []byte) {
		if h != nil {
			h(from, sub)
		}
	})
	if err != nil {
		c.stats.badFrames.Add(1)
		return
	}
	c.stats.batchesRecv.Add(1)
	c.stats.framesUnpacked.Add(uint64(n))
}

// enqueueLocked frames pkt into a pooled segment and queues it for the
// destination. It reports false when the pending limit would be
// exceeded (best-effort semantics; the rpc layer's retransmission
// recovers interrogations). Caller holds p.mu.
func (p *batchPeer) enqueueLocked(pkt []byte) bool {
	if batchHdrLen+p.bytes+subHdrLen+len(pkt) > p.c.pendingLimit {
		return false
	}
	sp := segPool.Get().(*[]byte)
	var lb [subHdrLen]byte
	binary.BigEndian.PutUint32(lb[:], uint32(len(pkt)))
	*sp = append(append((*sp)[:0], lb[:]...), pkt...)
	if p.count == 0 && p.segs == nil {
		p.segs, p.spare = p.spare, nil
	}
	if p.inFlight && !p.timed {
		p.firstAt, p.timed = p.c.clk.Now(), true
	}
	p.segs = append(p.segs, sp)
	p.bytes += subHdrLen + len(pkt)
	p.count++
	return true
}

// claimLocked takes ownership of the queued segments and the inFlight
// write token. Caller holds p.mu and must call writeSegs followed by
// finishWrite with the returned slice.
func (p *batchPeer) claimLocked() ([]*[]byte, int) {
	p.inFlight = true
	segs, n := p.segs, p.count
	p.segs = nil
	p.bytes, p.count = 0, 0
	if n > 0 {
		var waited time.Duration
		if p.timed {
			waited, p.timed = p.c.clk.Since(p.firstAt), false
		}
		p.c.flushDelay.Observe(waited)
	}
	return segs, n
}

// finishWrite releases the inFlight token, recycles the spent segment
// slice and, if frames queued up behind the write, hands them to the
// flusher.
func (p *batchPeer) finishWrite(spent []*[]byte) {
	p.mu.Lock()
	p.inFlight = false
	if p.spare == nil && cap(spent) <= 1024 {
		p.spare = spent[:0]
	}
	more := p.count > 0
	p.mu.Unlock()
	if more {
		p.wakeFlusher()
	}
}

func (p *batchPeer) wakeFlusher() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// flusher drains one destination. It starts with the peer's record and
// exits when the coalescer stops, draining a final time so Close does
// not strand queued frames. With a direct-write fast path in
// Send it handles the leftovers: frames enqueued while a claimed write
// was in flight, and lazy frames with no follow-up send.
func (p *batchPeer) flusher() {
	c := p.c
	defer c.wg.Done()
	for {
		select {
		case <-p.wake:
			// The ringer is rarely alone: the callers (or dispatches) a
			// burst of replies (or requests) made runnable are queued
			// behind it. Woken, this goroutine would run next and claim
			// a batch of one; waiting out the instant (on a virtual clock,
			// in event order) lets them enqueue first.
			select {
			case <-c.clk.EndOfInstant():
			case <-c.stop:
			}
			p.flushNow()
		case <-c.stop:
			p.flushNow()
			return
		}
	}
}

// flushNow writes whatever is pending as one batch, unless a direct
// writer owns the wire: that writer rings the doorbell again when it
// finishes with frames still queued (at shutdown those frames are
// abandoned, which the best-effort contract permits).
func (p *batchPeer) flushNow() {
	p.mu.Lock()
	if p.count == 0 || p.inFlight {
		p.mu.Unlock()
		return
	}
	segs, n := p.claimLocked()
	p.mu.Unlock()
	p.writeSegs(segs, n)
	p.finishWrite(segs)
}

// writeSegs emits one batch from its segment list. When the inner
// endpoint is a VecSender the segments go out as a scatter-gather
// vector — the batch is never materialised contiguously; otherwise they
// are gathered into a retained scratch buffer first. Caller holds the
// inFlight token (not p.mu), which makes the per-peer scratch fields
// safe. A batch of one is still sent as a BATCH frame: every peer reads
// one, and the header costs only 7 bytes.
func (p *batchPeer) writeSegs(segs []*[]byte, n int) {
	c := p.c
	p.hdr[0], p.hdr[1], p.hdr[2] = batchMagic, batchKind, batchVersion
	binary.BigEndian.PutUint32(p.hdr[3:batchHdrLen], uint32(n))
	sp := c.obs.Begin(obs.KindFlush, p.dest)
	var err error
	if vs, ok := c.inner.(VecSender); ok {
		vec := append(p.vec[:0], p.hdr[:])
		for _, s := range segs {
			vec = append(vec, *s)
		}
		err = vs.SendVec(p.dest, vec)
		for i := range vec {
			vec[i] = nil
		}
		p.vec = vec[:0]
	} else {
		buf := append(p.gather[:0], p.hdr[:]...)
		for _, s := range segs {
			buf = append(buf, *s...)
		}
		err = c.inner.Send(p.dest, buf)
		if cap(buf) <= maxRetainedBuf {
			p.gather = buf[:0]
		} else {
			p.gather = nil
		}
	}
	c.obs.End(sp)
	for i, s := range segs {
		if cap(*s) <= maxPooledSeg {
			*s = (*s)[:0]
			segPool.Put(s)
		}
		segs[i] = nil
	}
	if err != nil {
		return
	}
	c.stats.batchesSent.Add(1)
	c.stats.framesBatched.Add(uint64(n))
	c.stats.buckets[sizeBucket(n)].Add(1)
}

// DecodeBatch validates pkt as a BATCH frame and invokes fn once per
// sub-frame, in order. The whole frame is validated before the first
// callback, so a corrupt batch delivers nothing rather than a prefix; a
// sub-frame that is itself marked as a batch makes the frame corrupt.
// Sub-frame slices alias pkt and are only valid during the callback
// (the Handler contract). It returns the sub-frame count.
func DecodeBatch(pkt []byte, fn func(sub []byte)) (int, error) {
	if len(pkt) < batchHdrLen || pkt[0] != batchMagic || pkt[1] != batchKind {
		return 0, ErrBatchCorrupt
	}
	if pkt[2] != batchVersion {
		return 0, ErrBatchCorrupt
	}
	count := binary.BigEndian.Uint32(pkt[3:batchHdrLen])
	// Validation pass: every sub-frame complete and not a batch, nothing
	// trailing.
	off := batchHdrLen
	for i := uint32(0); i < count; i++ {
		if off+subHdrLen > len(pkt) {
			return 0, ErrBatchCorrupt
		}
		n := int(binary.BigEndian.Uint32(pkt[off : off+subHdrLen]))
		off += subHdrLen
		if n < 0 || n > len(pkt)-off || IsBatch(pkt[off:off+n]) {
			return 0, ErrBatchCorrupt
		}
		off += n
	}
	if off != len(pkt) {
		return 0, ErrBatchCorrupt
	}
	// Delivery pass.
	off = batchHdrLen
	for i := uint32(0); i < count; i++ {
		n := int(binary.BigEndian.Uint32(pkt[off : off+subHdrLen]))
		off += subHdrLen
		if fn != nil {
			fn(pkt[off : off+n])
		}
		off += n
	}
	return int(count), nil
}
