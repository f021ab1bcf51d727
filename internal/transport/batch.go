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
	"context"
	"encoding/binary"
	"errors"
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

// CoalescerStats counts a Coalescer's batching events.
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
	// stats is counted in place with atomic.AddUint64; first, so its
	// words are 64-bit aligned on 32-bit platforms too.
	stats CoalescerStats

	inner Endpoint
	clk   clock.Clock

	pendingLimit int

	handler atomic.Value // ChainHandler

	// peers (address → *batchPeer) is read on every send without a lock:
	// the first frame to or batch from an address stores its record, and
	// RetireIdle deletes an idle one. mu is taken only to start a flusher
	// or to close, so no flusher starts after Close has begun waiting for
	// them.
	peers  sync.Map
	closed atomic.Bool
	mu     sync.Mutex
	stop   chan struct{}
	wg     sync.WaitGroup

	// obs, when non-nil, is the node's span collector, the one every
	// layer built on the Coalescer records into (Observer).
	obs *obs.Collector
	// flush is the batch-write stage: a write's root span, one in n
	// sampled, and the writes counted (BatchesSent: its passes that did
	// not fail).
	flush obs.Stage

	// flushDelay is the queue delay per batch claimed: from its first
	// frame queued behind a write in flight to the claim, or 0, read from
	// no clock, when none was (direct writes, lazy frames on a free wire).
	flushDelay obs.Histogram

	// watched is whether the inner endpoint delivers concurrently: then a
	// batch's frames are delivered under a stall watch and the replies to
	// it held for its end (see unpacking). In virtual time deliveries are
	// handed off, nothing blocks one, and batches unpack unwatched.
	watched bool
}

// Batcher is implemented by endpoints that coalesce outgoing frames
// (see Coalescer). SendLazy queues a frame for to without writing
// anything itself: the frame rides in whichever batch next leaves for
// that destination — the next Send's, or the flusher's, whichever comes
// first. The rpc layer uses it for what need not, or should not, pay for
// a write of its own: acks and announcements, and interrogations and
// replies while others are in flight.
//
// SendHeld is Send for a reply: while a batch from to is being delivered
// with frames still to come, the frame waits for that batch's end, and
// the replies to one batch leave in one write.
//
// A Batcher also carries its node's clock and span collector, so every
// layer built on it reads the one instant and records into the one ring.
type Batcher interface {
	Endpoint
	SetChainHandler(h ChainHandler) // SetHandler for a handler that takes the cursor
	SendLazy(to string, pkt []byte) error
	SendHeld(to string, pkt []byte) error
	BatchStats() CoalescerStats
	// RetireIdle is the retirement tick of per-peer state; the node's rpc
	// server calls it on each janitor tick (see Coalescer.RetireIdle).
	RetireIdle()
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
// sampled batch write (an infrastructure trace: the flush samples one in
// n of its own writes, as the stub does of invocations). Every layer
// built on the Coalescer reads both from it. The Coalescer takes over
// ep's inbound handler; install the application handler on the
// Coalescer, and close the Coalescer (which closes ep) rather than ep
// directly.
func NewCoalescer(ep Endpoint, clk clock.Clock, col *obs.Collector, opts ...CoalescerOption) *Coalescer {
	c := &Coalescer{
		inner:        ep,
		clk:          clk,
		obs:          col,
		pendingLimit: defaultPendingLimit,
		stop:         make(chan struct{}),
	}
	c.flush.Init(obs.KindFlush, col, clk, false)
	for _, o := range opts {
		o(c)
	}
	if c.pendingLimit > MaxPacket {
		c.pendingLimit = MaxPacket
	}
	cd, ok := ep.(ConcurrentDeliverer)
	c.watched = ok && cd.DeliversConcurrently()
	ep.SetHandler(c.demux)
	if t, ok := ep.(*TCPEndpoint); ok {
		// Its readers deliver under watches of their own: a batch is
		// unpacked under the watch of the reader that read it (deliverOn),
		// so a stall hands the rest of the batch on with the connection.
		t.co.Store(c)
	}
	return c
}

// batchPeer is the per-destination coalescing state. The batch under
// construction is one contiguous buffer: room for the batch header, then
// each frame copied in behind its length prefix as it is queued. A claim
// fills in the header and the buffer goes to the inner endpoint as it
// stands, in one Send. Two buffers take turns — one being written, one
// filling — so a peer's steady-state sends allocate nothing.
type batchPeer struct {
	c    *Coalescer
	dest string

	mu       sync.Mutex
	buf      []byte    // the batch being built: header room, then count × [u32 len][frame]
	spare    []byte    // the buffer last written, kept for the next batch
	count    int       // sub-frames queued in buf
	firstAt  time.Time // when the first frame queued behind a write in flight
	timed    bool      // firstAt is set for the queued batch
	inFlight bool      // a claimed write is in progress; queue behind it

	// held counts the batches from this peer being delivered with frames
	// still to come: the end of each writes what queued meanwhile, so
	// while it is above zero SendHeld queues and neither it nor SendLazy
	// rings the flusher.
	held atomic.Int32
	// queued mirrors count > 0 for a batch's end, which reads it without
	// mu: set after a frame is queued and before held is read, it cannot
	// be missed by an end that leaves held after that read.
	queued atomic.Bool
	// owed is set when a batch ended during a write in flight: that
	// write's end writes what was held for it, not the flusher.
	owed bool
	// idle counts the retirement ticks in a row that found the peer with
	// nothing queued, written or held, and no frame queued since the last.
	idle int
	// retired is set under mu when RetireIdle removes the record: a sender
	// that resolved it before then looks again, and its flusher exits.
	retired atomic.Bool

	wake     chan struct{} // 1-buffered flusher doorbell
	flushing atomic.Bool   // the flusher was started, by the first doorbell
}

// Addr implements Endpoint.
func (c *Coalescer) Addr() string { return c.inner.Addr() }

// Clock implements Batcher.
func (c *Coalescer) Clock() clock.Clock { return c.clk }

// Observer implements Batcher.
func (c *Coalescer) Observer() *obs.Collector { return c.obs }

// SetHandler implements Endpoint.
func (c *Coalescer) SetHandler(h Handler) { c.SetChainHandler(chained(h)) }

// SetChainHandler implements Batcher.
func (c *Coalescer) SetChainHandler(h ChainHandler) { c.handler.Store(h) }

func (c *Coalescer) loadHandler() ChainHandler {
	h, _ := c.handler.Load().(ChainHandler)
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
func (c *Coalescer) Send(to string, pkt []byte) error { return c.send(to, pkt, sendDirect) }

// SendLazy implements Batcher: pkt is queued for to but no write is
// triggered on the caller's dime — the frame rides in the next batch a
// substantive Send claims, or the flusher's next drain, whichever comes
// first.
func (c *Coalescer) SendLazy(to string, pkt []byte) error { return c.send(to, pkt, sendLazy) }

// SendHeld implements Batcher: Send, unless a batch from to is being
// delivered with frames still to come. Then pkt waits for that batch's
// end, whose write carries everything held for it.
func (c *Coalescer) SendHeld(to string, pkt []byte) error { return c.send(to, pkt, sendHeld) }

// How a frame leaves: written now if the wire is free, queued, or queued
// only while a batch from its destination is being delivered.
const (
	sendDirect = iota
	sendLazy
	sendHeld
)

func (c *Coalescer) send(to string, pkt []byte, mode int) error {
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
		atomic.AddUint64(&c.stats.SingleSends, 1)
		return c.inner.Send(to, pkt)
	}
	p.mu.Lock()
	if p.retired.Load() { // retired between the lookup and the lock: look again
		p.mu.Unlock()
		return c.send(to, pkt, mode)
	}
	queued := p.enqueueLocked(pkt)
	// Read after queued is set: a batch's end that leaves held after this
	// read finds the frame queued, so a frame held for it is never
	// stranded.
	held := mode != sendDirect && p.held.Load() > 0
	if p.inFlight || (queued && (mode == sendLazy || held)) {
		p.mu.Unlock()
		if !queued {
			// Full behind a write that is not finishing: shed load.
			atomic.AddUint64(&c.stats.Overflows, 1)
			return nil
		}
		// A lazy frame's flusher backstops delivery if no Send follows;
		// under serial request/reply traffic the next Send usually claims
		// the frame first. A held frame leaves at its batch's end.
		if !held {
			p.wakeFlusher()
		}
		return nil
	}
	// The wire is free. A full queue is written rather than dropped from
	// — queued is never lossier than direct — and pkt, alone in the
	// emptied queue, follows with the flusher.
	batch, n := p.claimLocked()
	if !queued {
		p.enqueueLocked(pkt)
	}
	p.mu.Unlock()
	atomic.AddUint64(&c.stats.DirectFlushes, 1)
	p.writeBatch(batch, n)
	p.finishWrite(batch)
	return nil
}

// DeliversConcurrently implements ConcurrentDeliverer: it does iff the
// inner endpoint does, since a batch frame whose delivery stalls hands
// the frames after it to a fresh goroutine (see unpacking).
func (c *Coalescer) DeliversConcurrently() bool { return c.watched }

// Close flushes whatever is pending, stops the flushers and closes the
// inner endpoint.
func (c *Coalescer) Close() error {
	c.mu.Lock()
	if c.closed.Swap(true) {
		c.mu.Unlock()
		return nil
	}
	c.mu.Unlock()
	close(c.stop)
	c.wg.Wait()
	return c.inner.Close()
}

// BatchStats implements Batcher.
func (c *Coalescer) BatchStats() CoalescerStats {
	st := obs.Load(&c.stats)
	fl := c.flush.Stats()
	st.BatchesSent = fl.Calls - min(fl.Errors, fl.Calls) // an error is counted before its call
	return st
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

// peer returns the state for addr, or nil if the coalescer is closed. A
// known peer is found without a lock, and the first frame to or from addr
// stores its record; a caller that locks it finds it retired, or not.
func (c *Coalescer) peer(addr string) *batchPeer {
	if c.closed.Load() {
		return nil
	}
	v, ok := c.peers.Load(addr)
	if !ok {
		v, _ = c.peers.LoadOrStore(addr, &batchPeer{c: c, dest: addr, wake: make(chan struct{}, 1)})
	}
	return v.(*batchPeer)
}

// Peers counts the addresses the coalescer holds a record for.
func (c *Coalescer) Peers() (n int) {
	c.peers.Range(func(_, _ any) bool { n++; return true })
	return n
}

// RetireIdle implements Batcher. A peer found with nothing queued, no
// write in flight and no batch being delivered by two calls in a row, with
// no frame queued between them, is removed and its flusher exits: per-peer
// state ends with the peer. It runs on the rpc janitor's tick, since a
// timer of its own on the node's clock would reorder a virtual-time run.
func (c *Coalescer) RetireIdle() {
	c.peers.Range(func(addr, v any) bool {
		p := v.(*batchPeer)
		p.mu.Lock()
		if p.count > 0 || p.inFlight || p.held.Load() > 0 {
			p.idle = 0
		} else if p.idle++; p.idle >= 2 {
			p.retired.Store(true)
			c.peers.Delete(addr)
		}
		p.mu.Unlock()
		if p.retired.Load() {
			p.ring()
		}
		return true
	})
}

// IsBatch reports whether pkt is marked as a BATCH frame: whether it
// starts with the byte no other frame starts with.
func IsBatch(pkt []byte) bool { return len(pkt) > 0 && pkt[0] == batchMagic }

// demux is installed as the inner endpoint's handler: it unpacks batches
// and forwards everything else untouched. An inner endpoint that delivers
// under stall watches of its own (TCP) hands packets to deliverOn
// instead.
func (c *Coalescer) demux(from string, pkt []byte) {
	h := c.loadHandler()
	n := c.frames(pkt)
	if h == nil || n < 0 {
		return
	}
	if n == 0 {
		h(from, pkt, time.Time{})
		return
	}
	if c.watched && n > 1 {
		if p := c.peer(from); p != nil {
			u := newUnpacking()
			u.start(p, h, from)
			u.deliver(pkt[batchHdrLen:], n)
			u.release()
			return
		}
	}
	deliverBatch(pkt, func(sub []byte) { h(from, sub, time.Time{}) })
}

// deliverOn is demux for a reader that delivers under its own watch,
// u.w, and unpacks its batches into u: every frame is delivered under
// that watch, so a long batch whose frames keep finishing never looks
// stalled, and a frame that stalls has the reader hand the rest of its
// batch and its connection to one fresh goroutine, in order. It reports
// false when the watch took them.
func (c *Coalescer) deliverOn(u *unpacking, from string, pkt []byte) bool {
	h := c.loadHandler()
	n := c.frames(pkt)
	switch {
	case h == nil || n < 0:
		return true
	case n == 0:
		return u.deliverOne(h, from, pkt)
	case n == 1:
		return u.deliverOne(h, from, pkt[batchHdrLen+subHdrLen:])
	}
	p := c.peer(from)
	if p == nil { // closed: nothing holds replies
		deliverBatch(pkt, func(sub []byte) { h(from, sub, time.Time{}) })
		return true
	}
	u.start(p, h, from)
	return u.deliver(pkt[batchHdrLen:], n)
}

// frames counts pkt in and returns how many sub-frames it carries: 0 for
// a packet that is not a batch, -1 for a corrupt batch, which is dropped.
func (c *Coalescer) frames(pkt []byte) int {
	if !IsBatch(pkt) {
		return 0
	}
	n, err := checkBatch(pkt)
	if err != nil {
		atomic.AddUint64(&c.stats.BadFrames, 1)
		return -1
	}
	atomic.AddUint64(&c.stats.BatchesReceived, 1)
	atomic.AddUint64(&c.stats.FramesUnpacked, uint64(n))
	return n
}

// unpacking is the delivery of one batch under a stall watch: the frames
// not yet delivered wait behind the one being delivered, and a delivery
// that stalls — a handler blocked on a call whose reply is queued behind
// it, say — has them handed to a fresh goroutine. Replies SendHeld to
// the batch's sender while frames are still to come leave in one write
// at its end: with the last frame's reply, or after it.
//
// A TCP reader keeps one, under its connection's watch, and hands it on
// with the connection. On an endpoint whose deliveries are each on a
// goroutine of their own (the real-time fabric) a batch takes one from
// a pool, whose watch is its own: own is set, and a stall hands the rest
// to a fresh unpacking. Such an endpoint keeps no order among its
// deliveries anyway, so that watch counts no writes and bounds every
// frame by clock.StallBound.
type unpacking struct {
	w    *clock.Watch
	own  bool
	p    *batchPeer // the batch's sender; nil between batches
	h    ChainHandler
	from string
	rest []byte    // the frames after the one being delivered
	left int       // how many
	at   time.Time // the cursor: zero at each read and batch end, never handed on
}

// unpackings pools the unpackings that own their watches, so a watch's
// timer is made once and re-armed, not made, per batch.
var unpackings sync.Pool

func newUnpacking() *unpacking {
	u, _ := unpackings.Get().(*unpacking)
	if u == nil {
		u = &unpacking{own: true}
		u.w = clock.NewWatch(nil, u.handOff)
	}
	return u
}

func (u *unpacking) release() {
	*u = unpacking{w: u.w, own: true}
	unpackings.Put(u)
}

// start begins a batch of more than one frame from p.
func (u *unpacking) start(p *batchPeer, h ChainHandler, from string) {
	p.held.Add(1)
	u.p, u.h, u.from = p, h, from
}

// deliverOne delivers one packet under u's watch and reports whether the
// watch left what follows it with the caller.
func (u *unpacking) deliverOne(h ChainHandler, from string, pkt []byte) bool {
	t := u.w.Begin()
	u.at = h(from, pkt, u.at)
	return u.w.End(t)
}

// deliver delivers the left framed sub-frames in body, then ends the
// batch. The batch stops holding replies as its last frame starts, so
// that frame's reply carries the held ones; what is still queued after
// it is written then. A stall hands that end on as it hands on the
// frames, so a held reply never waits on a blocked delivery. When
// nothing follows the batch (own) and no reply is held, its last frame
// goes unwatched. It reports false when the watch took the rest.
func (u *unpacking) deliver(body []byte, left int) bool {
	for left > 0 {
		sz := subHdrLen + int(binary.BigEndian.Uint32(body))
		frame := body[subHdrLen:sz]
		u.rest, u.left = body[sz:], left-1
		if u.left == 0 {
			u.p.held.Add(-1)
			if u.own && !u.p.queued.Load() {
				u.h(u.from, frame, u.at)
				u.p = nil
				return true
			}
		}
		if !u.deliverOne(u.h, u.from, frame) {
			return false
		}
		body, left = u.rest, u.left
	}
	u.p.flushHeld() // a write, which no frame's interval holds
	u.p, u.h, u.rest, u.at = nil, nil, nil, time.Time{}
	return true
}

// handOff runs on an own watch's goroutine while u's delivery is
// stalled: the frames after it move, copied, to a fresh unpacking, since
// the packet they are in dies when the stalled delivery returns.
func (u *unpacking) handOff() {
	v := newUnpacking()
	v.p, v.h, v.from = u.p, u.h, u.from
	rest, left := append([]byte(nil), u.rest...), u.left
	go func() {
		v.deliver(rest, left)
		v.release()
	}()
}

// enqueueLocked appends pkt, behind its length prefix, to the batch
// being built for the destination; a batch's first frame starts it with
// room for the header. It reports false when the pending limit would be
// exceeded (best-effort semantics; the rpc layer's retransmission
// recovers interrogations). Caller holds p.mu.
func (p *batchPeer) enqueueLocked(pkt []byte) bool {
	if p.count == 0 {
		p.buf = append(p.buf[:0], batchMagic, batchKind, batchVersion, 0, 0, 0, 0)
	}
	if len(p.buf)+subHdrLen+len(pkt) > p.c.pendingLimit {
		return false
	}
	if p.inFlight && !p.timed {
		p.firstAt, p.timed = p.c.clk.Now(), true
	}
	p.buf = append(binary.BigEndian.AppendUint32(p.buf, uint32(len(pkt))), pkt...)
	p.count++
	p.idle = 0
	if !p.queued.Load() { // a store only for a queue's first frame
		p.queued.Store(true)
	}
	return true
}

// claimLocked takes the queued batch, its header filled in, and the
// inFlight write token; the spare buffer takes its place. Caller holds
// p.mu and must call writeBatch followed by finishWrite with the
// returned buffer.
func (p *batchPeer) claimLocked() ([]byte, int) {
	p.inFlight, p.owed = true, false
	batch, n := p.buf, p.count
	p.buf, p.spare = p.spare, nil
	p.count = 0
	p.queued.Store(false)
	if n > 0 {
		binary.BigEndian.PutUint32(batch[3:batchHdrLen], uint32(n))
		var waited time.Duration
		if p.timed {
			waited, p.timed = p.c.clk.Since(p.firstAt), false
		}
		p.c.flushDelay.Observe(waited)
	}
	return batch, n
}

// flushHeld ends a delivered batch: what was held for it is written now
// or, if a write is in flight, as soon as that write is done — by its
// writer, never by the flusher, so it waits on no clock.
func (p *batchPeer) flushHeld() {
	if !p.queued.Load() {
		return
	}
	p.mu.Lock()
	if p.count == 0 || p.inFlight {
		p.owed = p.count > 0
		p.mu.Unlock()
		return
	}
	batch, n := p.claimLocked()
	p.mu.Unlock()
	atomic.AddUint64(&p.c.stats.DirectFlushes, 1)
	p.writeBatch(batch, n)
	p.finishWrite(batch)
}

// finishWrite keeps the spent buffer as the spare and releases the
// inFlight token. Frames owed to a batch that ended meanwhile are
// written first, by this writer; any other frames queued behind the
// write are handed to the flusher. A buffer grown past maxRetainedBuf is
// let go: one burst must not pin its storage for the peer's lifetime.
func (p *batchPeer) finishWrite(spent []byte) {
	p.mu.Lock()
	for {
		if cap(spent) <= maxRetainedBuf {
			p.spare = spent[:0]
		}
		if !p.owed || p.count == 0 {
			break
		}
		batch, n := p.claimLocked()
		p.mu.Unlock()
		atomic.AddUint64(&p.c.stats.DirectFlushes, 1)
		p.writeBatch(batch, n)
		spent = batch
		p.mu.Lock()
	}
	p.inFlight, p.owed = false, false
	more := p.count > 0
	p.mu.Unlock()
	if more {
		p.wakeFlusher()
	}
}

// wakeFlusher rings the doorbell, and the first ring starts the flusher:
// a peer whose frames all leave by direct write never has one, and a busy
// one keeps its own until it is retired.
func (p *batchPeer) wakeFlusher() {
	p.ring()
	if p.flushing.Load() || !p.flushing.CompareAndSwap(false, true) {
		return
	}
	c := p.c
	c.mu.Lock()
	if !c.closed.Load() {
		c.wg.Add(1)
		go p.flusher()
	}
	c.mu.Unlock()
}

func (p *batchPeer) ring() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// flusher drains one destination. It exits when its peer is retired,
// which leaves it nothing to drain, or when the coalescer stops, draining
// a final time so Close does not strand queued frames. With a
// direct-write fast path in Send it handles the leftovers: frames
// enqueued while a claimed write was in flight, and lazy frames with no
// follow-up send.
func (p *batchPeer) flusher() {
	c := p.c
	defer c.wg.Done()
	for {
		select {
		case <-p.wake:
			if p.retired.Load() {
				return
			}
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
	batch, n := p.claimLocked()
	p.mu.Unlock()
	p.writeBatch(batch, n)
	p.finishWrite(batch)
}

// writeBatch hands one claimed batch of n frames to the inner endpoint
// in one Send. Caller holds the inFlight token, not p.mu. A batch of one
// is still sent as a BATCH frame: every peer reads one, and the header
// costs only 7 bytes.
func (p *batchPeer) writeBatch(batch []byte, n int) {
	c := p.c
	_, st := c.flush.Begin(context.Background(), obs.SpanContext{}, p.dest, time.Time{})
	err := c.inner.Send(p.dest, batch)
	c.flush.End(st, err)
	if err != nil {
		return
	}
	atomic.AddUint64(&c.stats.FramesBatched, uint64(n))
	atomic.AddUint64(&c.stats.FramesPerBatch[sizeBucket(n)], 1)
}

// DecodeBatch validates pkt as a BATCH frame and invokes fn once per
// sub-frame, in order. The whole frame is validated before the first
// callback, so a corrupt batch delivers nothing rather than a prefix; a
// sub-frame that is itself marked as a batch makes the frame corrupt.
// Sub-frame slices alias pkt and are only valid during the callback
// (the Handler contract). It returns the sub-frame count.
func DecodeBatch(pkt []byte, fn func(sub []byte)) (int, error) {
	n, err := checkBatch(pkt)
	if err == nil && fn != nil {
		deliverBatch(pkt, fn)
	}
	return n, err
}

// checkBatch validates pkt as a BATCH frame — every sub-frame complete and
// not a batch, nothing trailing — and returns its sub-frame count.
func checkBatch(pkt []byte) (int, error) {
	if len(pkt) < batchHdrLen || pkt[0] != batchMagic || pkt[1] != batchKind {
		return 0, ErrBatchCorrupt
	}
	if pkt[2] != batchVersion {
		return 0, ErrBatchCorrupt
	}
	count := binary.BigEndian.Uint32(pkt[3:batchHdrLen])
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
	return int(count), nil
}

// deliverBatch calls fn on each sub-frame of pkt, a checked BATCH frame.
func deliverBatch(pkt []byte, fn func(sub []byte)) {
	for off := batchHdrLen; off < len(pkt); {
		n := int(binary.BigEndian.Uint32(pkt[off : off+subHdrLen]))
		off += subHdrLen
		fn(pkt[off : off+n])
		off += n
	}
}
