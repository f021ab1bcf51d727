package rpc

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"odp/internal/clock"
	"odp/internal/obs"
	"odp/internal/transport"
	"odp/internal/wire"
)

// Incoming describes one inbound invocation as seen by a Handler. The
// descriptor itself is pooled, and ObjID and Op may alias the request
// packet: all three are valid only for the duration of the Handler call
// (strings.Clone what must outlive it). Args owns its storage — the
// slice and everything reachable from it may be kept or handed off
// freely, in reply results included.
type Incoming struct {
	// From is the transport address the invocation arrived from.
	From string
	// ObjID names the destination interface.
	ObjID string
	// Op names the operation.
	Op string
	// Args is the decoded argument vector.
	Args []wire.Value
	// Announcement is true for request-only invocations; the handler's
	// outcome and results are discarded in that case.
	Announcement bool
	// At is the dispatch instant on the server's clock, the one its
	// dispatch latency runs from (see Server.DispatchLatency): the
	// handler's layers read it instead of the clock.
	At time.Time
	// Span is the dispatch span's context, zero when the call is
	// unsampled: the handler's layers open their spans under it.
	Span obs.SpanContext
}

// Handler executes one invocation. Returning a nil error delivers
// (outcome, results) to the invoker. Returning ErrNoObject, ErrDenied or
// a *MovedError maps onto the corresponding protocol status; any other
// error becomes a RemoteError at the client.
type Handler func(ctx context.Context, in *Incoming) (outcome string, results []wire.Value, err error)

// ServerStats counts protocol events on the server side.
type ServerStats struct {
	Requests       uint64 // distinct executions started
	Duplicates     uint64 // retransmissions suppressed by at-most-once
	RepliesResent  uint64 // cached replies retransmitted
	Announcements  uint64 // announcement executions
	AnnounceDedup  uint64 // duplicate announcements suppressed
	CacheEvictions uint64

	// AdmissionRejects counts interrogations shed with a busy reply;
	// AdmissionDrops counts announcements silently dropped. Both zero
	// unless the server was built WithAdmission.
	AdmissionRejects uint64
	AdmissionDrops   uint64
}

// peerCalls is the at-most-once state of one calling address: protocol
// state lives in the channel between two parties, not in a process-wide
// table. A frame resolves its record once; every check is under mu.
//
// Live calls sit in a two-generation map pair: claims go into cur,
// lookups consult cur then prev, and the janitor rotates cur→prev every
// replyTTL, so an unacknowledged reply survives one to two TTLs. An
// acknowledged call leaves the live map at once: only its id is
// remembered, as a range in acked, for one to two janitor ticks — long
// enough to recognise a retransmission that was in flight when the
// client got the reply. Announcements are remembered the same way, so
// neither window grows with volume and neither reads a clock.
type peerCalls struct {
	mu sync.Mutex
	// retired marks a record the janitor removed from the peer table: a
	// delivery that resolved it before then looks again, or the address
	// would have two records and at-most-once none.
	retired   bool
	idleTicks int // consecutive janitor ticks that found nothing held

	cur, prev map[uint64]*serverCall // built by the first interrogation
	free      []*serverCall          // records, with their reply buffers, for reuse

	acked     idWindow // calls the client said it holds the reply of
	announced idWindow // announcements executed or shed
	bucket    tokenBucket
}

const (
	// announceWindow caps the ranges of one announcement generation: ids
	// that never merge lose their oldest half, as a ring would forget them.
	announceWindow = 512
	// maxKeptReply caps the buffer a free record keeps: a bulk reply's goes
	// back to the pool.
	maxKeptReply = 512
)

// live returns id's call record, or nil. Called with p.mu held.
func (p *peerCalls) live(id uint64) *serverCall {
	if sc, ok := p.cur[id]; ok {
		return sc
	}
	return p.prev[id]
}

// claim opens the at-most-once slot for id in the current generation.
// Called with p.mu held.
func (p *peerCalls) claim(id uint64) *serverCall {
	var sc *serverCall
	if n := len(p.free); n > 0 {
		sc, p.free = p.free[n-1], p.free[:n-1]
		sc.state.Store(callRunning)
	} else {
		sc = new(serverCall)
	}
	if p.cur == nil {
		p.cur, p.prev = make(map[uint64]*serverCall), make(map[uint64]*serverCall)
	}
	p.cur[id] = sc
	return sc
}

// recycle frees a record nothing references any more: out of the live
// maps, its reply's Send returned. A small reply buffer stays with the
// record; a large one goes back to the pool, for the next large reply to
// any peer. Called with p.mu held.
func (p *peerCalls) recycle(sc *serverCall) {
	if sc.reply != nil && cap(*sc.reply) > maxKeptReply {
		wire.PutBuffer(sc.reply)
		sc.reply = nil
	}
	p.free = append(p.free, sc)
}

// tick moves the id windows on one generation and, every replyTTL
// (rotate), the live calls: done ones in prev are a TTL old and go,
// running ones carry forward. It reports the replies evicted and whether
// the record held nothing at two ticks running. Called with p.mu held.
func (p *peerCalls) tick(rotate bool, cfg *AdmissionConfig, now time.Time) (evicted uint64, idle bool) {
	p.acked.rotate()
	p.announced.rotate()
	if rotate {
		for id, sc := range p.prev {
			if sc.state.Load() == callRunning {
				p.cur[id] = sc
			} else {
				evicted++
			}
		}
		clear(p.prev)
		p.cur, p.prev = p.prev, p.cur
	}
	if len(p.cur)+len(p.prev) == 0 && p.acked.empty() && p.announced.empty() && p.bucket.idle(cfg, now) {
		p.idleTicks++
	} else {
		p.idleTicks = 0
	}
	return evicted, p.idleTicks >= 2
}

// Server dispatches inbound invocations from one endpoint to a Handler,
// enforcing at-most-once execution per (client, call id). The call table
// is one record per calling address, found without a lock, so concurrent
// clients contend on nothing shared.
type Server struct {
	// stats is counted in place with atomic.AddUint64; first, so its
	// words are 64-bit aligned on 32-bit platforms too.
	stats ServerStats

	ep      transport.Batcher
	codec   wire.Codec
	handler Handler

	// inline dispatches handlers synchronously in the delivery
	// goroutine instead of handing them to workers. Safe only on
	// endpoints where a blocked delivery never stalls another
	// (transport.ConcurrentDeliverer: the real-time fabric, and TCP and
	// the coalescer, which hand what follows a stalled delivery — the
	// connection, the rest of the batch — to a fresh goroutine);
	// otherwise an inline handler blocking on a nested call would
	// deadlock the very replies it waits for. So it is read off the
	// endpoint.
	inline bool
	// workers runs the dispatches that are not inline (a virtual-time
	// fabric's), nil when all are; names holds the header strings they
	// and sampled spans keep beyond the packet.
	workers *transport.Workers[*call]
	names   names

	sharing // active: interrogations admitted and not yet replied to

	closed atomic.Bool
	wg     sync.WaitGroup
	stop   chan struct{}

	// peers holds one *peerCalls per calling address, stored by the first
	// frame from it and deleted, marked retired under its own mu, by the
	// janitor once it holds nothing.
	peers sync.Map

	// ctx is the server-lifetime context handed to every handler; Close
	// cancels it so blocking handlers can unwind instead of stranding
	// Close in wg.Wait.
	ctx    context.Context
	cancel context.CancelFunc

	replyTTL time.Duration
	clk      clock.Clock

	// obs, the node's span collector (ep's), records a dispatch span for
	// every traced request under the span context the packet carried.
	// Nil means tracing off.
	obs *obs.Collector

	// admission, when set, meters inbound invocations per client before
	// they claim a call-table slot. Nil means every invocation admitted.
	admission *AdmissionConfig

	// dispatch is the handler-execution stage, timed for every request
	// and announcement: its histogram is the dispatch latency, and its
	// span, on a sampled request, parents the handler's.
	dispatch obs.Stage
}

// serverCall tracks one at-most-once execution slot. The executing
// goroutine writes state without the peer's mutex; readers hold it, and
// the store that leaves callRunning publishes reply.
type serverCall struct {
	state atomic.Uint32
	reply *[]byte // full reply packet in a wire.GetBuffer cell, cached for retransmission
}

// A slot is running until the handler returns, sending while the Send
// that carries reply is in flight — an ack that arrives then (callAcked)
// leaves the recycling to the sender — and sent after that.
const (
	callRunning = iota
	callSending
	callSent
	callAcked
)

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithReplyTTL sets how long completed replies stay cached when no Ack
// arrives. Default 5s.
func WithReplyTTL(ttl time.Duration) ServerOption {
	return func(s *Server) { s.replyTTL = ttl }
}

// WithAdmission enables per-client token-bucket admission control:
// requests beyond a client's bucket are shed with an immediate busy
// reply (ErrServerBusy at the client) before claiming any call-table
// state, and over-budget announcements are dropped. The buckets run on
// the node's clock (the Batcher's), so admission windows are
// deterministic under a clock.Fake.
func WithAdmission(cfg AdmissionConfig) ServerOption {
	return func(s *Server) { s.admission = &cfg }
}

// NewServer wraps ep, a coalescing endpoint, and dispatches to handler.
// The server takes over the endpoint's handler; use a Peer for combined
// client/server endpoints.
func NewServer(ep transport.Batcher, codec wire.Codec, handler Handler, opts ...ServerOption) *Server {
	s := newServerNoHandler(ep, codec, handler, opts...)
	ep.SetChainHandler(func(from string, pkt []byte, at time.Time) time.Time { return route(nil, s, from, pkt, at) })
	return s
}

func newServerNoHandler(ep transport.Batcher, codec wire.Codec, handler Handler, opts ...ServerOption) *Server {
	s := &Server{
		ep:       ep,
		codec:    codec,
		handler:  handler,
		stop:     make(chan struct{}),
		replyTTL: 5 * time.Second,
		clk:      ep.Clock(),
		obs:      ep.Observer(),
	}
	s.dispatch.Init(obs.KindDispatch, s.obs, s.clk, true)
	s.ctx, s.cancel = context.WithCancel(context.Background())
	cd, ok := ep.(transport.ConcurrentDeliverer)
	if s.inline = ok && cd.DeliversConcurrently(); !s.inline {
		s.workers = transport.NewWorkers(dispatchWorkers, func(c *call) { s.run(c, time.Time{}) })
	}
	for _, o := range opts {
		o(s)
	}
	s.wg.Add(1)
	go s.janitor(s.clk.Now())
	return s
}

// Stats returns a snapshot of server counters.
func (s *Server) Stats() ServerStats { return obs.Load(&s.stats) }

// DispatchLatency snapshots each frame's server time on its delivery, from
// the end of the dispatch before it there or its handler's start to its end.
func (s *Server) DispatchLatency() obs.HistogramSnapshot {
	return s.dispatch.Latency()
}

// Close stops the server and waits for running handlers.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	// A claim reads closed under its peer's mutex before it joins wg: past
	// every mutex, no claim that missed the flag is still on its way there.
	// Range reaches every record such a claim can be in: the claim stored
	// or found its record before it read closed, so before closed was set
	// and this walk began, and a record stored before a Range begins is
	// visited unless the janitor deleted it — then marked retired, which
	// sends the claim to look again.
	s.peers.Range(func(_, v any) bool {
		p := v.(*peerCalls)
		p.mu.Lock()
		p.mu.Unlock() // the empty section is the barrier
		return true
	})
	s.cancel()
	close(s.stop)
	s.wg.Wait()
	if s.workers != nil {
		s.workers.Close()
	}
	return nil
}

// route is the inbound half of every endpoint this package owns: it
// parses one frame — the Coalescer beneath has unpacked its batch — and
// hands it by kind to whichever role handles it. A bare Client passes a
// nil server and a bare Server a nil client;
// kinds addressed to the absent role are dropped. h and body alias a
// transport buffer, so everything that outlives this call is decoded or
// copied before it returns. at is the delivery's cursor (see
// transport.ChainHandler), and route returns the next one: only an
// announcement's dispatch passes its end on, so a chained interval holds
// no reply, ack or dropped frame.
func route(c *Client, s *Server, from string, pkt []byte, at time.Time) time.Time {
	h, body, err := decodeRawHeader(pkt)
	if err != nil {
		return time.Time{}
	}
	if h.kind == msgReply {
		if c != nil {
			c.deliverReply(h.callID, body)
		}
		return time.Time{}
	}
	if s == nil {
		return time.Time{}
	}
	switch h.kind {
	case msgRequest:
		s.onRequest(from, h, body, at)
	case msgAnnounce:
		return s.onAnnounce(from, h, body, at)
	case msgAck:
		if len(body) == 0 { // an ack carries nothing
			s.onAck(from, h.callID)
		}
	}
	return time.Time{}
}

// lockPeer returns from's record locked, or nil when there is none and
// create is false. Only an address's first frame stores a record.
func (s *Server) lockPeer(from string, create bool) *peerCalls {
	for {
		v, ok := s.peers.Load(from)
		if !ok {
			if !create {
				return nil
			}
			v, _ = s.peers.LoadOrStore(from, new(peerCalls))
		}
		p := v.(*peerCalls)
		p.mu.Lock()
		if !p.retired {
			return p
		}
		p.mu.Unlock() // removed between the lookup and the lock: look again
	}
}

func (s *Server) onRequest(from string, h header, body []byte, at time.Time) {
	p := s.lockPeer(from, true)
	if s.closed.Load() {
		p.mu.Unlock()
		return
	}
	// Duplicate: no new execution starts, so a retransmitted traced
	// request cannot produce a second dispatch span. One the client
	// acknowledged is dropped (it has said it holds the reply), one still
	// running is suppressed, one that finished unacknowledged is answered
	// from the cache — from a copy, because an ack may recycle the cached
	// buffer the moment the mutex is released.
	old := p.live(h.callID)
	if old != nil || p.acked.has(h.callID) {
		var resend *[]byte
		if old != nil && old.state.Load() != callRunning {
			resend = wire.GetBuffer()
			*resend = append(*resend, *old.reply...)
		}
		p.mu.Unlock()
		atomic.AddUint64(&s.stats.Duplicates, 1)
		if resend != nil {
			atomic.AddUint64(&s.stats.RepliesResent, 1)
			_ = s.ep.Send(from, *resend)
			wire.PutBuffer(resend)
		}
		return
	}

	// Admission runs after duplicate suppression (a retransmission of an
	// admitted call must not pay twice) and before the slot is claimed: a
	// rejected request leaves no state and its busy reply is uncached, so
	// a retransmission re-attempts admission against a refilled bucket.
	if s.admission != nil && !p.bucket.admit(s.admission, s.clk.Now()) {
		p.mu.Unlock()
		atomic.AddUint64(&s.stats.AdmissionRejects, 1)
		s.noteReject(h)
		_ = s.ep.Send(from, s.encodeReply(nil, h.callID, statusBusy, "", nil, "", wire.Ref{}))
		return
	}
	sc := p.claim(h.callID)
	s.wg.Add(1)
	p.mu.Unlock()

	atomic.AddUint64(&s.stats.Requests, 1)
	s.active.Add(1)
	s.startExecute(from, h, body, p, sc, at)
}

// noteReject leaves the only trace of a sampled invocation that
// admission shed before dispatch.
func (s *Server) noteReject(h header) {
	if s.obs != nil && h.trace.Valid() {
		// The op string must outlive the packet: the span ring keeps it.
		s.obs.Event(h.trace, obs.KindReject, s.names.intern(h.op))
	}
}

func (s *Server) onAnnounce(from string, h header, body []byte, at time.Time) time.Time {
	p := s.lockPeer(from, true)
	if s.closed.Load() {
		p.mu.Unlock()
		return time.Time{}
	}
	if p.announced.has(h.callID) {
		// Repeated announcement (QoS.Repeats): execute once only.
		p.mu.Unlock()
		atomic.AddUint64(&s.stats.AnnounceDedup, 1)
		return time.Time{}
	}
	p.announced.cur.add(h.callID)
	if len(p.announced.cur) > announceWindow {
		p.announced.cur.forgetOldestHalf()
	}
	// Over-budget announcements are dropped, not answered (§5.1: their
	// failures cannot be reported). The id stays remembered, so Repeats
	// copies of a dropped announcement dedup as usual.
	if s.admission != nil && !p.bucket.admit(s.admission, s.clk.Now()) {
		p.mu.Unlock()
		atomic.AddUint64(&s.stats.AdmissionDrops, 1)
		s.noteReject(h)
		return time.Time{}
	}
	s.wg.Add(1)
	p.mu.Unlock()

	atomic.AddUint64(&s.stats.Announcements, 1)
	return s.startExecute(from, h, body, nil, nil, at)
}

// call is one admitted invocation on its way through a handler:
// everything run needs, in one pooled record. in is what the handler
// sees (handlers must not retain it — see Incoming).
type call struct {
	in    Incoming
	id    uint64
	trace obs.SpanContext // the caller's span, when the request was sampled
	p     *peerCalls      // the caller's record, which holds sc
	sc    *serverCall     // at-most-once slot; nil for announcements
	err   error           // argument decode failure, reported in the reply
}

var callPool = sync.Pool{New: func() interface{} { return new(call) }}

// dispatchWorkers bounds the server's resident dispatch workers, and so
// the stacks kept parked between bursts. Measured on tcp_pipelined and
// tcp_announce when TCP dispatch was handed off (EXPERIMENTS.md,
// Hot-path engineering): 4 keeps too few warm; from 8 up, unbounded
// included, throughput is flat within noise.
const dispatchWorkers = 32

// startExecute decodes the argument vector and runs the handler —
// inline iff the endpoint delivers concurrently. Inline, the handler
// finishes before the delivery callback returns, so the header strings
// alias the packet outright; handed to a worker, the packet dies when
// this call returns and they are interned. The arguments own their
// storage either way. It returns what an inline run does, else zero.
func (s *Server) startExecute(from string, h header, body []byte, p *peerCalls, sc *serverCall, at time.Time) time.Time {
	c := callPool.Get().(*call)
	c.id, c.trace, c.p, c.sc = h.callID, h.trace, p, sc
	c.in = Incoming{From: from, ObjID: h.objID, Op: h.op, Announcement: sc == nil}
	c.in.Args, c.err = wire.DecodeAll(s.codec, body)
	if s.inline {
		if s.obs != nil && h.trace.Valid() {
			// The span ring retains the operation name beyond the dispatch.
			c.in.Op = s.names.intern(h.op)
		}
		return s.run(c, at)
	}
	c.in.ObjID, c.in.Op = s.names.intern(h.objID), s.names.intern(h.op)
	s.workers.Submit(c)
	return time.Time{}
}

// onAck retires an answered call: the row leaves the live map at once,
// its id joins the acknowledged window (a retransmission sent just before
// the client got the reply may still be in flight, and must not be
// re-executed when it lands) and the record goes back to the free list —
// by reply's tail if the Send of its reply has yet to return.
func (s *Server) onAck(from string, callID uint64) {
	p := s.lockPeer(from, false)
	if p == nil {
		return
	}
	if sc := p.live(callID); sc != nil && sc.state.Load() != callRunning {
		delete(p.cur, callID)
		delete(p.prev, callID)
		p.acked.cur.add(callID)
		if !sc.state.CompareAndSwap(callSending, callAcked) {
			p.recycle(sc)
		}
		atomic.AddUint64(&s.stats.CacheEvictions, 1)
	}
	p.mu.Unlock()
}

// run executes the handler for c and, for interrogations, sends and
// caches the reply. It owns c, and releases the record only after the
// reply encode: c.in is what the handler saw. It times the dispatch from
// at, or from a clock read if at is zero, and returns End's instant.
func (s *Server) run(c *call, at time.Time) (end time.Time) {
	defer s.wg.Done()
	var (
		outcome string
		results []wire.Value
		err     = c.err
	)
	if err == nil {
		// Handlers get the server-lifetime context: Close cancels it,
		// so a handler that blocks (on locks, channels, or nested
		// invocations) can select on ctx.Done() and unwind. A traced
		// request adds a dispatch span under the wire context and hands
		// its own context to the handler, so nested invocations the
		// servant makes join the caller's tree.
		ctx, st := s.dispatch.Begin(s.ctx, c.trace, c.in.Op, at)
		c.in.At, c.in.Span = st.At, st.Span
		outcome, results, err = s.handler(ctx, &c.in)
		end = s.dispatch.End(st, err)
	}
	if c.sc != nil { // announcements have nothing to report, by design
		s.reply(c, outcome, results, err)
	}
	*c = call{}
	callPool.Put(c)
	return end
}

// reply maps the handler's result onto a protocol status, then caches
// and sends the reply packet.
func (s *Server) reply(c *call, outcome string, results []wire.Value, err error) {
	status := byte(statusOK)
	msg := ""
	var fwd wire.Ref
	switch {
	case err == nil:
	case errors.Is(err, ErrNoObject):
		status = statusNoObject
	case errors.Is(err, ErrDenied):
		status, msg = statusDenied, err.Error()
	default:
		var moved *MovedError
		if errors.As(err, &moved) {
			status, fwd = statusMoved, moved.Forward
		} else {
			status, msg = statusSysError, err.Error()
		}
	}
	// Built in the record's own buffer, unread until the store publishes it.
	sc := c.sc
	if sc.reply == nil {
		sc.reply = wire.GetBuffer()
	}
	*sc.reply = s.encodeReply((*sc.reply)[:0], c.id, status, outcome, results, msg, fwd)
	sc.state.Store(callSending)
	// The replies of a burst admitted together share a write. Inline, the
	// burst is a batch, and the replies to it are held for its end;
	// handed off, all but the last to finish are queued.
	switch {
	case s.closed.Load():
	case s.inline:
		_ = s.ep.SendHeld(c.in.From, *sc.reply)
	default:
		_ = s.sendShared(s.ep, c.in.From, *sc.reply)
	}
	s.active.Add(-1)
	if !sc.state.CompareAndSwap(callSending, callSent) {
		// The ack overtook the Send and left the recycling to us.
		c.p.mu.Lock()
		c.p.recycle(sc)
		c.p.mu.Unlock()
	}
}

// encodeReply appends a reply packet to dst, header and body in one
// buffer: the call record's, where it stays cached for retransmission.
func (s *Server) encodeReply(dst []byte, id uint64, status byte, outcome string, results []wire.Value, msg string, fwd wire.Ref) []byte {
	hdr := encodeHeader(dst, header{kind: msgReply, callID: id})
	pkt, err := appendReplyBody(s.codec, hdr, status, outcome, results, msg, fwd)
	if err != nil {
		pkt, _ = appendReplyBody(s.codec, hdr, statusSysError, "", nil,
			"reply encoding: "+err.Error(), wire.Ref{})
	}
	return pkt
}

// janitor visits every peer once a tick (lost Acks must not leak memory;
// the cost is per peer, not per call) and removes the idle ones, each
// marked retired under its own mutex; the tick retires the idle peers of
// the coalescer beneath too. The first rotation is timed from
// lastRotate, the server's start: read by NewServer, not whenever this
// goroutine first runs, it lands in no call's reads.
func (s *Server) janitor(lastRotate time.Time) {
	defer s.wg.Done()
	ticker := s.clk.NewTicker(min(time.Second, s.replyTTL))
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case now := <-ticker.C():
			rotate := now.Sub(lastRotate) >= s.replyTTL
			if rotate {
				lastRotate = now
			}
			s.peers.Range(func(from, v any) bool {
				p := v.(*peerCalls)
				p.mu.Lock()
				evicted, idle := p.tick(rotate, s.admission, now)
				if idle {
					p.retired = true
					s.peers.Delete(from)
				}
				p.mu.Unlock()
				atomic.AddUint64(&s.stats.CacheEvictions, evicted)
				return true
			})
			s.ep.RetireIdle()
		}
	}
}

// Peer combines a Client and a Server on a single endpoint, so one
// capsule can both invoke and be invoked — "some applications may be both
// client and server simultaneously" (§6).
type Peer struct {
	// Client issues outbound invocations.
	Client *Client
	// Server dispatches inbound invocations.
	Server *Server
}

// NewPeer wires both roles onto ep, a coalescing endpoint (see NewClient);
// opts configure the server role.
func NewPeer(ep transport.Batcher, codec wire.Codec, handler Handler, opts ...ServerOption) *Peer {
	p := &Peer{
		Client: newClientNoHandler(ep, codec),
		Server: newServerNoHandler(ep, codec, handler, opts...),
	}
	ep.SetChainHandler(func(from string, pkt []byte, at time.Time) time.Time { return route(p.Client, p.Server, from, pkt, at) })
	return p
}

// Close shuts down both roles.
func (p *Peer) Close() error {
	err1 := p.Client.Close()
	err2 := p.Server.Close()
	if err1 != nil {
		return err1
	}
	return err2
}
