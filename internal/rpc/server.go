package rpc

import (
	"context"
	"errors"
	"strings"
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

// serverCounters is the hot-path form of ServerStats: independent
// atomics, so concurrent dispatches do not serialize on counting.
type serverCounters struct {
	requests         atomic.Uint64
	duplicates       atomic.Uint64
	repliesResent    atomic.Uint64
	announcements    atomic.Uint64
	announceDedup    atomic.Uint64
	cacheEvictions   atomic.Uint64
	admissionRejects atomic.Uint64
	admissionDrops   atomic.Uint64
}

// callShard is one stripe of the at-most-once call table. Interrogations
// live in a two-generation map pair: claims go into cur, lookups consult
// cur then prev, and the janitor rotates cur→prev every replyTTL, so a
// done entry survives at least one full TTL and at most about two — with
// O(1) work per rotation instead of a scan proportional to the table.
// Announcements, which vastly outnumber interrogations in announcement-
// heavy load (E4), use a fixed-capacity ring instead: the dedup window
// the protocol needs only spans a QoS.Repeats burst, so a bounded
// recent-keys set suffices and the shard's footprint stays constant no
// matter how many announcements pass through (this is what made
// E4Announcement ns/op grow with b.N before).
type callShard struct {
	mu   sync.Mutex
	cur  map[callKey]*serverCall // current-generation interrogation slots
	prev map[callKey]*serverCall // previous generation, read-only until swept
	ackq []ackedKey              // acked entries awaiting their grace deadline

	// The ring is built by the shard's first announcement: a server that
	// only answers interrogations never pays its ~54 KB per shard.
	ring    []callKey       // recent announcement keys, oldest overwritten
	ringSet map[callKey]int // ring membership → slot index
	ringPos int
}

// ackedKey queues one acked interrogation for lazy eviction: the janitor
// drains the queue instead of scanning every entry for expiry.
type ackedKey struct {
	key     callKey
	expires time.Time
}

// announceRingSize is the per-shard announcement dedup window. Repeats
// of one announcement arrive back to back, so a window thousands deep
// (numShards × announceRingSize keys process-wide) is far wider than
// any burst the QoS.Repeats lever can produce.
const announceRingSize = 512

// Server dispatches inbound invocations from one endpoint to a Handler,
// enforcing at-most-once execution per (client, call id). The call table
// is sharded by call-key hash so concurrent clients contend only within
// a stripe.
type Server struct {
	ep      transport.Endpoint
	codec   wire.Codec
	handler Handler

	// inline dispatches handlers synchronously in the delivery
	// goroutine instead of spawning one per request. Safe only on
	// endpoints whose deliveries are independently scheduled
	// (transport.ConcurrentDeliverer) — on a serial read loop an
	// inline handler blocking on a nested call would deadlock the
	// very replies it waits for — so it is read off the endpoint.
	inline bool

	sharing // active: interrogations admitted and not yet replied to

	closed atomic.Bool
	shards [numShards]callShard
	wg     sync.WaitGroup
	stop   chan struct{}

	// ctx is the server-lifetime context handed to every handler; Close
	// cancels it so blocking handlers can unwind instead of stranding
	// Close in wg.Wait.
	ctx    context.Context
	cancel context.CancelFunc

	replyTTL time.Duration
	clk      clock.Clock

	// obs, when set, records a dispatch span for every traced request
	// under the span context the packet carried. Nil means tracing off.
	obs *obs.Collector

	// admission, when set, meters inbound invocations per client before
	// they claim a call-table slot. Nil means every invocation admitted.
	admission *admission
	// admissionCfg holds the WithAdmission config until the clock is
	// resolved (options apply in any order).
	admissionCfg *AdmissionConfig

	stats serverCounters
	// dispatchLat is the handler-execution latency distribution,
	// recorded for every request and announcement. Always on: one
	// atomic increment per dispatch.
	dispatchLat obs.Histogram
}

type callKey struct {
	from string
	id   uint64
}

// shard selects the stripe for key by FNV-1a over its fields: ids alone
// are sequential per client, so the source address must participate to
// spread multiple clients.
func (s *Server) shard(key callKey) *callShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key.from); i++ {
		h ^= uint64(key.from[i])
		h *= prime64
	}
	id := key.id
	for i := 0; i < 8; i++ {
		h ^= id & 0xff
		h *= prime64
		id >>= 8
	}
	return &s.shards[h&(numShards-1)]
}

// serverCall tracks one at-most-once execution slot.
type serverCall struct {
	done    bool
	acked   bool   // client confirmed receipt; queued on the shard's ackq
	reply   []byte // full reply packet, cached for retransmission
	expires time.Time
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithReplyTTL sets how long completed replies stay cached when no Ack
// arrives. Default 5s.
func WithReplyTTL(ttl time.Duration) ServerOption {
	return func(s *Server) { s.replyTTL = ttl }
}

// WithClock sets the clock driving reply-cache TTLs and the janitor.
// Default clock.Real{}; tests pass a clock.Fake to exercise expiry
// deterministically.
func WithClock(c clock.Clock) ServerOption {
	return func(s *Server) { s.clk = c }
}

// WithServerObserver installs the span collector that records dispatch
// spans for traced requests. Nil (the default) disables tracing.
func WithServerObserver(col *obs.Collector) ServerOption {
	return func(s *Server) { s.obs = col }
}

// WithAdmission enables per-client token-bucket admission control:
// requests beyond a client's bucket are shed with an immediate busy
// reply (ErrServerBusy at the client) before claiming any call-table
// state, and over-budget announcements are dropped. The buckets run on
// the server clock (WithClock), so admission windows are deterministic
// under a clock.Fake.
func WithAdmission(cfg AdmissionConfig) ServerOption {
	return func(s *Server) { s.admissionCfg = &cfg }
}

// NewServer wraps ep and dispatches to handler. The server takes over the
// endpoint's handler; use a Peer for combined client/server endpoints.
func NewServer(ep transport.Endpoint, codec wire.Codec, handler Handler, opts ...ServerOption) *Server {
	s := newServerNoHandler(ep, codec, handler, opts...)
	ep.SetHandler(func(from string, pkt []byte) { demux(nil, s, from, pkt) })
	return s
}

func newServerNoHandler(ep transport.Endpoint, codec wire.Codec, handler Handler, opts ...ServerOption) *Server {
	s := &Server{
		ep:       ep,
		codec:    codec,
		handler:  handler,
		stop:     make(chan struct{}),
		replyTTL: 5 * time.Second,
		clk:      clock.Real{},
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	cd, ok := ep.(transport.ConcurrentDeliverer)
	s.inline = ok && cd.DeliversConcurrently()
	s.lazy, _ = ep.(transport.Batcher)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.cur = make(map[callKey]*serverCall)
		sh.prev = make(map[callKey]*serverCall)
	}
	for _, o := range opts {
		o(s)
	}
	if s.admissionCfg != nil {
		s.admission = newAdmission(*s.admissionCfg, s.clk)
	}
	s.wg.Add(1)
	go s.janitor()
	return s
}

// Stats returns a snapshot of server counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Requests:         s.stats.requests.Load(),
		Duplicates:       s.stats.duplicates.Load(),
		RepliesResent:    s.stats.repliesResent.Load(),
		Announcements:    s.stats.announcements.Load(),
		AnnounceDedup:    s.stats.announceDedup.Load(),
		CacheEvictions:   s.stats.cacheEvictions.Load(),
		AdmissionRejects: s.stats.admissionRejects.Load(),
		AdmissionDrops:   s.stats.admissionDrops.Load(),
	}
}

// DispatchLatency snapshots the handler-execution latency histogram.
func (s *Server) DispatchLatency() obs.HistogramSnapshot {
	return s.dispatchLat.Snapshot()
}

// Close stops the server and waits for running handlers.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.cancel()
	close(s.stop)
	s.wg.Wait()
	return nil
}

// demux is the inbound half of every endpoint this package owns: it
// parses one packet and routes it by kind to whichever role handles it.
// A bare Client passes a nil server and a bare Server a nil client;
// kinds addressed to the absent role are dropped. h and body alias a
// transport buffer, so everything that outlives this call is decoded or
// copied before it returns.
func demux(c *Client, s *Server, from string, pkt []byte) {
	h, body, err := decodeRawHeader(pkt)
	if err != nil {
		return
	}
	if h.kind == msgReply {
		if c != nil {
			c.deliverReply(h.callID, body)
		}
		return
	}
	if s == nil {
		return
	}
	switch h.kind {
	case msgRequest:
		s.onRequest(from, h, body)
	case msgAnnounce:
		s.onAnnounce(from, h, body)
	case msgAck:
		s.onAck(from, h.callID)
	}
}

// claimRequest reserves the at-most-once slot for an interrogation key
// in the current generation. It returns the new slot, or nil when the
// key is a duplicate (dup reports which, and resend carries the cached
// reply when execution already finished). closed reports a shut server.
func (s *Server) claimRequest(key callKey) (sc *serverCall, dup bool, resend []byte, closed bool) {
	sh := s.shard(key)
	sh.mu.Lock()
	if s.closed.Load() {
		sh.mu.Unlock()
		return nil, true, nil, true
	}
	old, ok := sh.cur[key]
	if !ok {
		old, ok = sh.prev[key]
	}
	if ok {
		if old.done {
			resend = old.reply
		}
		sh.mu.Unlock()
		return nil, true, resend, false
	}
	sc = &serverCall{expires: s.clk.Now().Add(s.replyTTL)}
	sh.cur[key] = sc
	s.wg.Add(1)
	sh.mu.Unlock()
	return sc, false, nil, false
}

// claimAnnounce reserves the dedup slot for an announcement key in the
// shard's fixed ring, displacing the oldest remembered key. No per-call
// state outlives the ring slot, so announcement throughput costs O(1)
// memory regardless of volume.
func (s *Server) claimAnnounce(key callKey) (dup, closed bool) {
	sh := s.shard(key)
	sh.mu.Lock()
	if s.closed.Load() {
		sh.mu.Unlock()
		return false, true
	}
	if sh.ring == nil {
		sh.ring = make([]callKey, announceRingSize)
		sh.ringSet = make(map[callKey]int, announceRingSize)
	}
	if _, seen := sh.ringSet[key]; seen {
		sh.mu.Unlock()
		return true, false
	}
	if old := sh.ring[sh.ringPos]; old != (callKey{}) {
		delete(sh.ringSet, old)
	}
	sh.ring[sh.ringPos] = key
	sh.ringSet[key] = sh.ringPos
	sh.ringPos++
	if sh.ringPos == len(sh.ring) {
		sh.ringPos = 0
	}
	s.wg.Add(1)
	sh.mu.Unlock()
	return false, false
}

func (s *Server) onRequest(from string, h header, body []byte) {
	key := callKey{from: from, id: h.callID}
	sc, dup, resend, closed := s.claimRequest(key)
	if dup {
		if closed {
			return
		}
		// Duplicate: resend the cached reply if execution finished,
		// otherwise suppress (the reply will go out when it does).
		// Either way no new execution starts, so a retransmitted traced
		// request — which carries the original span context verbatim —
		// cannot produce a second dispatch span.
		s.stats.duplicates.Add(1)
		if resend != nil {
			s.stats.repliesResent.Add(1)
			_ = s.ep.Send(from, resend)
		}
		return
	}

	// Admission runs after duplicate suppression (a retransmission of an
	// admitted call must not pay twice) but before execution claims any
	// lasting state: a rejected request surrenders its freshly-claimed
	// slot, so a later retransmission re-attempts admission against a
	// refilled bucket instead of being suppressed into a timeout. The
	// busy reply is likewise uncached.
	if s.admission != nil && !s.admission.admit(from) {
		s.unclaim(key)
		s.stats.admissionRejects.Add(1)
		s.noteReject(h)
		_ = s.ep.Send(from, s.encodeReply(h.callID, statusBusy, "", nil, "", wire.Ref{}))
		return
	}

	s.stats.requests.Add(1)
	s.active.Add(1)
	s.startExecute(from, h, body, sc)
}

// noteReject leaves the only trace of a sampled invocation that
// admission shed before dispatch.
func (s *Server) noteReject(h header) {
	if s.obs != nil && h.trace.Valid() {
		// The op string must outlive the packet: the span ring keeps it.
		s.obs.Event(h.trace, obs.KindReject, strings.Clone(h.op))
	}
}

// unclaim releases a request slot claimed but never executed (admission
// reject). The slot may have rotated into prev if the janitor ticked in
// between, so both generations are checked.
func (s *Server) unclaim(key callKey) {
	sh := s.shard(key)
	sh.mu.Lock()
	if _, ok := sh.cur[key]; ok {
		delete(sh.cur, key)
	} else {
		delete(sh.prev, key)
	}
	sh.mu.Unlock()
	s.wg.Done()
}

func (s *Server) onAnnounce(from string, h header, body []byte) {
	dup, closed := s.claimAnnounce(callKey{from: from, id: h.callID})
	if closed {
		return
	}
	if dup {
		// Repeated announcement (QoS.Repeats): execute once only.
		s.stats.announceDedup.Add(1)
		return
	}

	// Over-budget announcements are dropped, not answered: §5.1 —
	// announcement failures cannot be reported. The ring entry stays, so
	// QoS.Repeats copies of the dropped announcement dedup as usual.
	if s.admission != nil && !s.admission.admit(from) {
		s.stats.admissionDrops.Add(1)
		s.noteReject(h)
		s.wg.Done()
		return
	}

	s.stats.announcements.Add(1)
	s.startExecute(from, h, body, nil)
}

// call is one admitted invocation on its way through a handler:
// everything run needs, in one pooled record. in is what the handler
// sees (handlers must not retain it — see Incoming).
type call struct {
	in    Incoming
	id    uint64
	trace obs.SpanContext // the caller's span, when the request was sampled
	sc    *serverCall     // at-most-once slot; nil for announcements
	err   error           // argument decode failure, reported in the reply
}

var callPool = sync.Pool{New: func() interface{} { return new(call) }}

// startExecute decodes the argument vector and runs the handler —
// inline iff the endpoint delivers concurrently. Inline, the handler
// finishes before the delivery callback returns, so the header strings
// alias the packet outright; spawned, the packet dies when this call
// returns and they are copied. The arguments own their storage either
// way.
func (s *Server) startExecute(from string, h header, body []byte, sc *serverCall) {
	c := callPool.Get().(*call)
	c.id, c.trace, c.sc = h.callID, h.trace, sc
	c.in = Incoming{From: from, ObjID: h.objID, Op: h.op, Announcement: sc == nil}
	c.in.Args, c.err = wire.DecodeAll(s.codec, body)
	if s.inline {
		if s.obs != nil && h.trace.Valid() {
			// The span ring retains the operation name beyond the dispatch;
			// only sampled requests pay the copy.
			c.in.Op = strings.Clone(h.op)
		}
		s.run(c)
	} else {
		c.in.ObjID, c.in.Op = strings.Clone(h.objID), strings.Clone(h.op)
		go s.run(c)
	}
}

// ackGrace is how long a completed call entry survives after the client's
// Ack. Immediate eviction would be unsound: a request retransmission sent
// just before the client received the reply can still be in flight, and
// must be recognised as a duplicate when it lands, not re-executed.
const ackGrace = 250 * time.Millisecond

func (s *Server) onAck(from string, callID uint64) {
	key := callKey{from: from, id: callID}
	sh := s.shard(key)
	sh.mu.Lock()
	sc, ok := sh.cur[key]
	if !ok {
		sc, ok = sh.prev[key]
	}
	if ok && sc.done && !sc.acked {
		sc.acked = true
		if exp := s.clk.Now().Add(ackGrace); exp.Before(sc.expires) {
			sc.expires = exp
		}
		// Queue for lazy eviction: the janitor drains this instead of
		// scanning the whole table. The entry stays resendable until
		// the clock actually passes the grace deadline, so a straggling
		// retransmission still hits the cache.
		sh.ackq = append(sh.ackq, ackedKey{key: key, expires: sc.expires})
	}
	sh.mu.Unlock()
}

// run executes the handler for c and, for interrogations, sends and
// caches the reply. It owns c, and releases the record only after the
// reply encode: c.in is what the handler saw.
func (s *Server) run(c *call) {
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
		ctx := s.ctx
		var sp *obs.Span
		if s.obs != nil {
			if sp = s.obs.BeginChild(c.trace, obs.KindDispatch, c.in.Op); sp != nil {
				ctx = obs.ContextWith(ctx, sp.Context())
			}
		}
		began := s.clk.Now()
		outcome, results, err = s.handler(ctx, &c.in)
		s.dispatchLat.Observe(s.clk.Since(began))
		s.obs.End(sp)
	}
	if c.sc != nil { // announcements have nothing to report, by design
		s.reply(c, outcome, results, err)
	}
	*c = call{}
	callPool.Put(c)
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
	pkt := s.encodeReply(c.id, status, outcome, results, msg, fwd)

	sh := s.shard(callKey{from: c.in.From, id: c.id})
	sh.mu.Lock()
	c.sc.done = true
	c.sc.reply = pkt
	c.sc.expires = s.clk.Now().Add(s.replyTTL)
	sh.mu.Unlock()
	// The replies of a burst admitted together share a write: all but
	// the last to finish are queued.
	if !s.closed.Load() {
		_ = s.sendShared(s.ep, c.in.From, pkt)
	}
	s.active.Add(-1)
}

// encodeReply builds a reply packet. The packet may be retained in the
// at-most-once cache for retransmission, so it is built in its own
// allocation, header and body in one buffer.
func (s *Server) encodeReply(id uint64, status byte, outcome string, results []wire.Value, msg string, fwd wire.Ref) []byte {
	hdr := encodeHeader(nil, header{kind: msgReply, callID: id})
	pkt, err := appendReplyBody(s.codec, hdr, status, outcome, results, msg, fwd)
	if err != nil {
		pkt, _ = appendReplyBody(s.codec, hdr, statusSysError, "", nil,
			"reply encoding: "+err.Error(), wire.Ref{})
	}
	return pkt
}

// janitor evicts reply-cache entries (lost Acks must not leak memory).
// Acked entries drain from the per-shard ack queue once their grace
// passes; everything else ages out by generation rotation every
// replyTTL, which retires a whole map at once instead of scanning every
// entry — janitor cost no longer grows with call volume.
func (s *Server) janitor() {
	defer s.wg.Done()
	tick := time.Second
	if s.replyTTL < tick {
		tick = s.replyTTL
	}
	ticker := s.clk.NewTicker(tick)
	defer ticker.Stop()
	lastRotate := s.clk.Now()
	for {
		select {
		case <-s.stop:
			return
		case now := <-ticker.C():
			rotate := now.Sub(lastRotate) >= s.replyTTL
			if rotate {
				lastRotate = now
			}
			var evicted uint64
			for i := range s.shards {
				sh := &s.shards[i]
				sh.mu.Lock()
				// Drain acked entries whose grace deadline passed.
				kept := sh.ackq[:0]
				for _, a := range sh.ackq {
					if !now.After(a.expires) {
						kept = append(kept, a)
						continue
					}
					if sc, ok := sh.cur[a.key]; ok && sc.acked {
						delete(sh.cur, a.key)
						evicted++
					} else if sc, ok := sh.prev[a.key]; ok && sc.acked {
						delete(sh.prev, a.key)
						evicted++
					}
				}
				sh.ackq = kept
				if rotate {
					// Generation sweep: everything in prev is at least
					// one TTL old. Done entries go; still-running
					// interrogations carry forward, preserving
					// at-most-once for arbitrarily slow handlers.
					evicted += uint64(len(sh.prev))
					for k, sc := range sh.prev {
						if !sc.done {
							sh.cur[k] = sc
							evicted--
						}
					}
					sh.prev = sh.cur
					sh.cur = make(map[callKey]*serverCall)
				}
				sh.mu.Unlock()
			}
			if evicted > 0 {
				s.stats.cacheEvictions.Add(evicted)
			}
			if rotate && s.admission != nil {
				s.admission.prune(now)
			}
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

// PeerOption configures both roles of a Peer.
type PeerOption func(*peerConfig)

type peerConfig struct {
	serverOpts []ServerOption
	clientOpts []ClientOption
}

// WithPeerServerOptions applies server-side options to the peer.
func WithPeerServerOptions(opts ...ServerOption) PeerOption {
	return func(pc *peerConfig) { pc.serverOpts = append(pc.serverOpts, opts...) }
}

// WithPeerObserver installs one span collector on both roles, so a
// capsule's outbound sends and inbound dispatches land in one ring.
func WithPeerObserver(col *obs.Collector) PeerOption {
	return func(pc *peerConfig) {
		pc.serverOpts = append(pc.serverOpts, WithServerObserver(col))
		pc.clientOpts = append(pc.clientOpts, WithClientObserver(col))
	}
}

// WithPeerClock drives both roles — call timeouts, retransmission,
// reply-cache TTLs and the janitor — from one clock, so a whole peer can
// run in virtual time.
func WithPeerClock(c clock.Clock) PeerOption {
	return func(pc *peerConfig) {
		pc.serverOpts = append(pc.serverOpts, WithClock(c))
		pc.clientOpts = append(pc.clientOpts, WithClientClock(c))
	}
}

// NewPeer wires both roles onto ep.
func NewPeer(ep transport.Endpoint, codec wire.Codec, handler Handler, opts ...PeerOption) *Peer {
	var pc peerConfig
	for _, o := range opts {
		o(&pc)
	}
	p := &Peer{
		Client: newClientNoHandler(ep, codec, pc.clientOpts...),
		Server: newServerNoHandler(ep, codec, handler, pc.serverOpts...),
	}
	ep.SetHandler(func(from string, pkt []byte) { demux(p.Client, p.Server, from, pkt) })
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
