package rpc

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"odp/internal/clock"
	"odp/internal/obs"
	"odp/internal/transport"
	"odp/internal/wire"
)

// QoS is the communications quality-of-service constraint attached to an
// invocation ("for both kinds of invocation, communications quality of
// service constraints must be specified — either explicitly or by
// default", §5.1).
type QoS struct {
	// Timeout bounds the whole interrogation. Zero means DefaultTimeout.
	Timeout time.Duration
	// Retransmit is the interval between request retransmissions. Zero
	// means DefaultRetransmit.
	Retransmit time.Duration
	// Repeats is the number of extra transmissions for an announcement
	// (announcements have no reply, so repetition is the only delivery
	// lever).
	Repeats int
}

// Default QoS parameters.
const (
	DefaultTimeout    = 2 * time.Second
	DefaultRetransmit = 20 * time.Millisecond
)

func (q QoS) withDefaults() QoS {
	if q.Timeout <= 0 {
		q.Timeout = DefaultTimeout
	}
	if q.Retransmit <= 0 {
		q.Retransmit = DefaultRetransmit
	}
	return q
}

// ClientStats counts protocol events on the client side.
type ClientStats struct {
	Calls           uint64
	Retransmissions uint64
	Timeouts        uint64
	Announcements   uint64
	// BadReplies counts replies whose body failed to decode: without
	// this counter, corrupt replies vanish silently.
	BadReplies uint64
	// OrphanReplies counts well-formed replies that matched no pending
	// call — duplicates of already-completed interrogations, or replies
	// from a confused peer.
	OrphanReplies uint64
	// AcksDeferred counts acks queued for piggybacking instead of sent
	// in their own datagram.
	AcksDeferred uint64
	// AcksPiggybacked counts deferred acks later flushed ahead of a
	// request, retransmission or announcement to the same destination,
	// so they shared that send's batch.
	AcksPiggybacked uint64
	// PackedUpgrades counts invocations sent with an ansa-packed/1 body:
	// Calls + Announcements when that is the session codec, zero
	// otherwise. The name is from when packed was negotiated per peer;
	// it stays because odpload's warm-up reads
	// rpc.client.packed_upgrades.
	PackedUpgrades uint64
}

// clientCounters is the hot-path form of ClientStats: independent atomics
// instead of one mutex, so concurrent calls do not serialize on counting.
type clientCounters struct {
	calls           atomic.Uint64
	retransmissions atomic.Uint64
	timeouts        atomic.Uint64
	announcements   atomic.Uint64
	badReplies      atomic.Uint64
	orphanReplies   atomic.Uint64
	acksDeferred    atomic.Uint64
	acksPiggybacked atomic.Uint64
}

// numShards splits the pending-call table. Shard count is a power of two
// so the selector is a mask, sized to exceed typical core counts without
// bloating the fixed footprint.
const numShards = 16

// pendingShard is one stripe of the pending-call table.
type pendingShard struct {
	mu sync.Mutex
	m  map[uint64]*pendingCall
}

// pendingCall is one interrogation awaiting its reply. Whoever removes it
// from its shard — the reply's deliverer, the pass, a caller giving up,
// Close — is ch's sole sender and sends once (Close closes it). Once
// entered, only the pass writes due. Instants are ns since epoch.
type pendingCall struct {
	ch                   chan replyBody
	id                   uint64
	dest, op             string
	pkt                  []byte // valid while the entry is pending
	span                 obs.SpanContext
	due, deadline, every int64
}

// pendingPool recycles entries with their one-slot channels. Only the
// caller that received its remover's one value pools an entry, so a
// recycled channel never carries a stale reply; a closed one is dropped.
var pendingPool = sync.Pool{
	New: func() interface{} { return &pendingCall{ch: make(chan replyBody, 1)} },
}

const never = math.MaxInt64 // no pass armed at a known instant

// Client issues invocations from one endpoint. It multiplexes any number
// of concurrent calls; concurrency is shard-level, so parallel calls only
// contend when their ids collide modulo numShards.
type Client struct {
	ep    transport.Batcher
	codec wire.Codec
	clk   clock.Clock

	nextID atomic.Uint64
	closed atomic.Bool
	shards [numShards]pendingShard

	// The retransmission clock (see pass): armed is the instant the one
	// timer fires, never while a pass runs or nothing is armed. tmu
	// guards the rest and is taken before a shard lock, never after.
	epoch   time.Time
	armed   atomic.Int64
	tmu     sync.Mutex
	timer   clock.Timer
	passing bool
	wantAt  int64 // earliest due registered while passing

	// A reply's delivery defers its ack in acks; the next substantive
	// send to the same destination takes it along in its datagram.
	sharing     // active: calls between entry and return
	ackMu       sync.Mutex
	acks        []pendingAck
	ackFlushing bool // the ackFlushBound flush is waiting for its instant to end

	// obs, the node's span collector (ep's), records protocol-layer
	// spans (send, retransmit, ack, announce) under the span context
	// carried by the call's ctx. Nil means tracing off; the hot path pays
	// one nil check.
	obs *obs.Collector

	stats clientCounters
	// lat is the send→reply latency distribution: first transmission to
	// reply delivery, retransmissions included. Unlike spans it is
	// always on — recording is one atomic increment.
	lat obs.Histogram
}

// pendingAck is one deferred acknowledgement awaiting piggybacking.
type pendingAck struct {
	dest string
	id   uint64
}

// ackFlushBound caps the deferred-ack queue: reaching it flushes
// everything at the end of the instant (clock.Clock's EndOfInstant) —
// every ack that instant queued, not the first ackFlushBound in goroutine
// order — so acks to a destination the client never contacts again still
// leave (and at the latest on Close). The server's reply cache tolerates
// the delay: it holds unacked replies for a full replyTTL anyway.
const ackFlushBound = 32

// NewClient wraps ep, a coalescing endpoint (transport.Coalescer). The
// client takes over the endpoint's handler; a process that is both client
// and server should use a Peer (see NewPeer) so requests and replies
// share one endpoint.
func NewClient(ep transport.Batcher, codec wire.Codec) *Client {
	c := newClientNoHandler(ep, codec)
	ep.SetHandler(func(from string, pkt []byte) { route(c, nil, from, pkt) })
	return c
}

// newClientNoHandler is used by Peer, which demultiplexes packets itself.
func newClientNoHandler(ep transport.Batcher, codec wire.Codec) *Client {
	c := &Client{
		ep:    ep,
		codec: codec,
		clk:   ep.Clock(),
		obs:   ep.Observer(),
	}
	for i := range c.shards {
		c.shards[i].m = make(map[uint64]*pendingCall)
	}
	c.epoch, c.wantAt = c.clk.Now(), never
	c.armed.Store(never)
	return c
}

// shard selects the pending stripe for a call id. Ids are sequential, so
// the low bits alone spread consecutive calls across all stripes.
func (c *Client) shard(id uint64) *pendingShard {
	return &c.shards[id&(numShards-1)]
}

// Stats returns a snapshot of client counters.
func (c *Client) Stats() ClientStats {
	st := ClientStats{
		Calls:           c.stats.calls.Load(),
		Retransmissions: c.stats.retransmissions.Load(),
		Timeouts:        c.stats.timeouts.Load(),
		Announcements:   c.stats.announcements.Load(),
		BadReplies:      c.stats.badReplies.Load(),
		OrphanReplies:   c.stats.orphanReplies.Load(),
		AcksDeferred:    c.stats.acksDeferred.Load(),
		AcksPiggybacked: c.stats.acksPiggybacked.Load(),
	}
	if _, packed := c.codec.(wire.PackedCodec); packed {
		st.PackedUpgrades = st.Calls + st.Announcements
	}
	return st
}

// CallLatency snapshots the send→reply latency histogram.
func (c *Client) CallLatency() obs.HistogramSnapshot {
	return c.lat.Snapshot()
}

// Close releases the client. In-flight calls fail with ErrClosed.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.tmu.Lock()
	if c.timer != nil {
		c.timer.Stop()
	}
	c.tmu.Unlock()
	c.flushAcks("")
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		calls := make([]*pendingCall, 0, len(sh.m))
		for id, pc := range sh.m {
			calls = append(calls, pc)
			delete(sh.m, id)
		}
		sh.mu.Unlock()
		for _, pc := range calls {
			close(pc.ch)
		}
	}
	return nil
}

// take removes id's entry, making the caller its channel's sole sender;
// nil means another got there first.
func (c *Client) take(id uint64) *pendingCall {
	sh := c.shard(id)
	sh.mu.Lock()
	pc := sh.m[id]
	if pc != nil {
		delete(sh.m, id)
	}
	sh.mu.Unlock()
	return pc
}

// fail ends call id with err unless its result is already on the way.
func (c *Client) fail(id uint64, err error) {
	if pc := c.take(id); pc != nil {
		pc.ch <- replyBody{err: err} // buffered, sole sender: never blocks
	}
}

// newRequest assembles the packet of one outbound invocation — request
// or announcement — in a pooled buffer: header, trace ids when the
// invocation is sampled, argument vector. The sampling decision was
// taken at the trace root: an untraced ctx leaves sp nil and the flag
// clear, so unsampled invocations put nothing extra on the wire (or the
// heap). On success the caller owns bufp and sp.
func (c *Client) newRequest(ctx context.Context, kind byte, objID, op string, args []wire.Value) (bufp *[]byte, id uint64, sp *obs.Span, err error) {
	h := header{kind: kind, callID: c.nextID.Add(1), objID: objID, op: op}
	if c.obs != nil {
		spanKind := obs.KindSend
		if kind == msgAnnounce {
			spanKind = obs.KindAnnounce
		}
		if sp = c.obs.BeginChild(obs.FromContext(ctx), spanKind, op); sp != nil {
			h.flags, h.trace = flagTraced, sp.Context()
		}
	}
	bufp = wire.GetBuffer()
	pkt, err := wire.EncodeAllInto(c.codec, encodeHeader(*bufp, h), args)
	if err != nil {
		wire.PutBuffer(bufp)
		c.obs.End(sp)
		return nil, 0, nil, err
	}
	*bufp = pkt
	return bufp, h.callID, sp, nil
}

// Call performs an interrogation of op on object objID at dest. It blocks
// until a reply arrives, ctx is cancelled, or the QoS deadline passes.
// The results are the application outcome and its result package; err is
// non-nil only for system-level failures.
func (c *Client) Call(ctx context.Context, dest, objID, op string, args []wire.Value, qos QoS) (string, []wire.Value, error) {
	qos = qos.withDefaults()

	// The send span covers the whole interrogation, first transmission
	// to reply; retransmissions and the ack are instant events under it.
	// The packet is reused across retransmissions (transports do not
	// retain packets) — which is also what guarantees a retransmitted
	// request carries the original span context.
	bufp, id, sp, err := c.newRequest(ctx, msgRequest, objID, op, args)
	if err != nil {
		return "", nil, err
	}
	defer wire.PutBuffer(bufp)
	defer c.obs.End(sp)

	// The retransmission clock (pass) keeps the schedule; the caller
	// waits for whatever its entry's remover sends.
	start := c.clk.Now()
	at := int64(start.Sub(c.epoch))
	due := min(at+int64(qos.Retransmit), at+int64(qos.Timeout))
	pc := pendingPool.Get().(*pendingCall)
	pc.id, pc.dest, pc.pkt, pc.op, pc.span = id, dest, *bufp, op, sp.Context()
	pc.due, pc.deadline, pc.every = due, at+int64(qos.Timeout), int64(qos.Retransmit)
	sh := c.shard(id)
	sh.mu.Lock()
	closed := c.closed.Load() // under the lock: Close sees the entry, or the call sees Close
	if !closed {
		sh.m[id] = pc
	}
	sh.mu.Unlock()
	if closed {
		pendingPool.Put(pc)
		return "", nil, ErrClosed
	}

	c.stats.calls.Add(1)
	c.active.Add(1)
	defer c.active.Add(-1)
	if err := c.transmit(dest, *bufp); err != nil {
		c.fail(id, err)
	} else {
		c.arm(due, at)
	}

	var rb replyBody
	var open bool
	if done := ctx.Done(); done == nil {
		rb, open = <-pc.ch
	} else {
		select {
		case rb, open = <-pc.ch:
		case <-done:
			c.fail(id, ctx.Err())
			rb, open = <-pc.ch // this caller's error, or the result that beat it
		}
	}
	if !open {
		return "", nil, ErrClosed
	}
	pendingPool.Put(pc)
	if rb.err != nil {
		return "", nil, rb.err
	}
	c.lat.Observe(c.clk.Since(start))
	return c.interpret(rb)
}

// arm makes sure a pass runs by due; one armed no later will find the
// entry, so a steady-state call arms nothing and takes no lock. While a
// pass runs armed reads never, and due is left for its re-arm.
func (c *Client) arm(due, now int64) {
	if due >= c.armed.Load() {
		return
	}
	c.tmu.Lock()
	defer c.tmu.Unlock()
	switch {
	case c.closed.Load():
	case c.passing:
		c.wantAt = min(c.wantAt, due)
	case due < c.armed.Load():
		if c.timer != nil {
			c.timer.Stop()
		}
		c.timer = c.clk.AfterFunc(time.Duration(due-now), c.pass)
		c.armed.Store(due)
	}
}

// pass is the retransmission clock's one-shot callback: it retransmits
// each call that is due (moving due on by Retransmit, up to the
// deadline), fails each call past its deadline with ErrTimeout as its
// entry's remover, and re-arms for the earliest due instant left.
func (c *Client) pass() {
	c.tmu.Lock()
	if c.passing || c.closed.Load() {
		c.tmu.Unlock()
		return
	}
	c.passing = true
	c.armed.Store(never)
	c.tmu.Unlock()

	now := int64(c.clk.Since(c.epoch))
	next := int64(never)
	var owed []pendingCall // copies: pkt cloned to resend, nil to expire
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for id, pc := range sh.m {
			switch {
			case pc.due > now:
			case now >= pc.deadline:
				delete(sh.m, id)
				owed = append(owed, pendingCall{id: id, ch: pc.ch})
				continue
			default:
				owed = append(owed, *pc)
				owed[len(owed)-1].pkt = slices.Clone(pc.pkt) // the caller's buffer dies with the entry
				pc.due = min(pc.due+pc.every, pc.deadline)
			}
			next = min(next, pc.due)
		}
		sh.mu.Unlock()
	}
	// Map order is random; call order is what a replay can repeat.
	slices.SortFunc(owed, func(a, b pendingCall) int { return cmp.Compare(a.id, b.id) })
	for _, o := range owed {
		if o.pkt == nil {
			c.stats.timeouts.Add(1)
			o.ch <- replyBody{err: ErrTimeout} // buffered, sole sender: never blocks
			continue
		}
		c.stats.retransmissions.Add(1)
		c.obs.Event(o.span, obs.KindRetransmit, o.op)
		if err := c.transmit(o.dest, o.pkt); err != nil {
			c.fail(o.id, err)
		}
	}

	c.tmu.Lock()
	defer c.tmu.Unlock()
	c.passing = false
	next, c.wantAt = min(next, c.wantAt), never
	if next != never && !c.closed.Load() {
		c.timer = c.clk.AfterFunc(time.Duration(next-now), c.pass)
		c.armed.Store(next)
	}
}

// transmit sends one request (re)transmission. Deferred acks for dest
// leave first, packed into the same batch.
func (c *Client) transmit(dest string, pkt []byte) error {
	c.flushAcks(dest)
	return c.sendShared(c.ep, dest, pkt)
}

// sharing is the rule by which interrogation traffic — requests at a
// Client, replies at a Server — shares datagrams. active counts the
// owner's interrogations in flight. At one
// the frame is written directly: nothing would share its datagram and
// the flusher hand-off is all cost. Above one it is queued, and one
// write carries the burst. In flight is not "about to send": a call
// parked on a slow reply makes a serial caller beside it pay the
// hand-off (+4 %, TestSerialCallerBesideParkedCall) for nobody.
type sharing struct {
	active atomic.Int32
}

func (s *sharing) sendShared(ep transport.Batcher, to string, pkt []byte) error {
	if s.active.Load() > 1 {
		return ep.SendLazy(to, pkt)
	}
	return ep.Send(to, pkt)
}

// noteAck defers the acknowledgement of a completed call onto the
// piggyback queue.
func (c *Client) noteAck(dest string, id uint64) {
	c.ackMu.Lock()
	c.acks = append(c.acks, pendingAck{dest: dest, id: id})
	flush := len(c.acks) >= ackFlushBound && !c.ackFlushing
	c.ackFlushing = c.ackFlushing || flush
	c.ackMu.Unlock()
	c.stats.acksDeferred.Add(1)
	if flush {
		go func() {
			<-c.clk.EndOfInstant()
			c.flushAcks("")
		}()
	}
}

// flushAcks sends deferred acks for dest (all destinations when dest is
// empty). Callers invoke it immediately before a substantive send, so
// the flushed acks and that send coalesce into one batch.
func (c *Client) flushAcks(dest string) {
	c.ackMu.Lock()
	c.ackFlushing = c.ackFlushing && dest != "" // a full flush is what the bound waits for
	if len(c.acks) == 0 {
		c.ackMu.Unlock()
		return
	}
	var few [8]pendingAck // a call seldom has more to flush: no allocation
	take := few[:0]
	if dest == "" {
		take = c.acks
		c.acks = nil
	} else {
		kept := c.acks[:0]
		for _, a := range c.acks {
			if a.dest == dest {
				take = append(take, a)
			} else {
				kept = append(kept, a)
			}
		}
		c.acks = kept
	}
	c.ackMu.Unlock()
	for _, a := range take {
		c.sendAck(a.dest, a.id)
		c.stats.acksPiggybacked.Add(1)
	}
}

// sendAck queues one ack packet, built in a pooled buffer, without a
// write: it rides in the batch the next substantive send to that peer
// claims, sharing its datagram instead of paying for a write of its own.
func (c *Client) sendAck(dest string, id uint64) {
	ackp := wire.GetBuffer()
	ack := encodeHeader(*ackp, header{kind: msgAck, callID: id})
	_ = c.ep.SendLazy(dest, ack)
	*ackp = ack
	wire.PutBuffer(ackp)
}

// Announce performs a request-only invocation: no reply, no outcome, no
// failure report (§5.1). QoS.Repeats extra copies are sent back to back.
func (c *Client) Announce(dest, objID, op string, args []wire.Value, qos QoS) error {
	return c.AnnounceCtx(context.Background(), dest, objID, op, args, qos)
}

// AnnounceCtx is Announce with a caller context. The announcement still
// cannot block or fail-report (its semantics are unchanged), but a span
// context carried by ctx propagates to the announcee, so announcements
// triggered inside a traced invocation join its tree.
func (c *Client) AnnounceCtx(ctx context.Context, dest, objID, op string, args []wire.Value, qos QoS) error {
	bufp, _, sp, err := c.newRequest(ctx, msgAnnounce, objID, op, args)
	if err != nil {
		return err
	}
	defer wire.PutBuffer(bufp)
	defer c.obs.End(sp)
	pkt := *bufp
	c.stats.announcements.Add(1)
	// Announcements are fire-and-forget, so nothing is gained by paying
	// the direct-write path on the caller's dime: a lazy enqueue lets the
	// flusher pack concurrent announcers' bursts into shared datagrams.
	c.flushAcks(dest)
	for i := 0; i <= qos.Repeats; i++ {
		if err := c.ep.SendLazy(dest, pkt); err != nil {
			return err
		}
	}
	return nil
}

func (c *Client) interpret(rb replyBody) (string, []wire.Value, error) {
	switch rb.status {
	case statusOK:
		return rb.outcome, rb.results, nil
	case statusSysError:
		return "", nil, &RemoteError{Msg: rb.msg}
	case statusNoObject:
		return "", nil, ErrNoObject
	case statusMoved:
		return "", nil, &MovedError{Forward: rb.fwd}
	case statusDenied:
		return "", nil, ErrDenied
	case statusBusy:
		return "", nil, ErrServerBusy
	default:
		return "", nil, ErrBadMessage
	}
}

// deliverReply routes a reply to the waiting call. Decoding is
// synchronous (body aliases a transport buffer that is reused after
// this returns) and fully copying. Undecodable and unmatched replies are
// counted, not silently dropped. Claiming the pending entry before the
// send makes this goroutine the channel's sole sender, which is what
// lets completed calls recycle their channels.
// The ack (none for a busy reply, which is not cached) is queued before
// the caller wakes: on a virtual-time fabric a delivery is a callback on
// the clock's one FIFO runner, so which batch carries an ack follows
// event order, not the order goroutines happen to run in.
func (c *Client) deliverReply(callID uint64, body []byte) {
	rb, err := decodeReplyBody(c.codec, body)
	if err != nil {
		c.stats.badReplies.Add(1)
		return
	}
	pc := c.take(callID)
	if pc == nil {
		c.stats.orphanReplies.Add(1)
		return
	}
	if rb.status != statusBusy {
		c.noteAck(pc.dest, callID)
		c.obs.Event(pc.span, obs.KindAck, pc.op)
	}
	pc.ch <- rb // buffered, sole sender: never blocks
}
