// Package netsim is a deterministic simulated network fabric.
//
// It substitutes for the physical networks of the paper's deployment
// environment (the ANSA Testbench ran REX over UDP on 1980s LANs/WANs).
// Each pair of endpoints communicates over a link with configurable
// one-way latency, jitter, loss probability and partition state, so the
// behaviours the paper's transparency claims depend on — variable latency
// (§4.1), transient communication problems (§4.1), persistent failures
// (§3) — can be injected on demand and measured reproducibly.
//
// Delivery scheduling is pluggable. By default delayed packets ride real
// timers (realtime.go, the package's only wall-clock file). Constructed
// with WithClock(*clock.Fake), every in-flight packet becomes an event in
// the fake clock's virtual-time queue — shared with all the platform's
// timers and tickers — and the whole fabric runs in logical time under
// the internal/sim harness.
package netsim

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"odp/internal/clock"
	"odp/internal/obs"
	"odp/internal/transport"
)

// LinkProfile describes one direction of a link.
type LinkProfile struct {
	// Latency is the fixed one-way delay.
	Latency time.Duration
	// Jitter adds a uniform random delay in [0, Jitter).
	Jitter time.Duration
	// Loss is the probability in [0,1] that a packet is silently dropped.
	Loss float64
	// PerPacket is a fixed processing cost charged per datagram,
	// independent of size — the framing/syscall/wakeup overhead a real
	// stack pays for every packet. A coalesced BATCH frame (see
	// transport.Coalescer) is one datagram and so pays it once however
	// many sub-frames it carries.
	PerPacket time.Duration
}

// Profiles for common environments.
var (
	// Loopback is instantaneous and lossless.
	Loopback = LinkProfile{}
	// LAN approximates a local segment.
	LAN = LinkProfile{Latency: 200 * time.Microsecond, Jitter: 50 * time.Microsecond}
	// WAN approximates a wide-area path.
	WAN = LinkProfile{Latency: 5 * time.Millisecond, Jitter: 1 * time.Millisecond}
)

// pktPool recycles in-flight packet copies: the fabric copies every
// packet on send (datagram semantics) and reclaims the copy after the
// receiving handler returns.
var pktPool = sync.Pool{
	New: func() interface{} {
		b := make([]byte, 0, 512)
		return &b
	},
}

// maxPooledPkt bounds retained packet-copy capacity.
const maxPooledPkt = 64 << 10

// TraceFunc observes fabric events for the deterministic-replay trace:
// at is the fabric clock's instant, event a short "kind from>to sizeB"
// line, one per frame a datagram carries (each sub-frame of a BATCH on
// its own line). Only meaningful together with WithClock (real-time runs
// pass a zero instant). Implementations must be safe for concurrent use.
type TraceFunc func(at time.Time, event string)

// pendEntry is one delayed delivery scheduled on a virtual clock.
type pendEntry struct {
	timer  clock.Timer
	cancel func()
}

// Fabric is a set of interconnected simulated endpoints.
type Fabric struct {
	// stats counts packets in place with atomic.AddUint64, so counting
	// takes no lock beside f.mu. First, so its words are 64-bit aligned
	// on 32-bit platforms too.
	stats Stats

	mu          sync.Mutex
	rng         *rand.Rand
	endpoints   map[string]*endpoint
	links       map[pair]LinkProfile // directed from → to overrides
	defaultLink LinkProfile
	partitioned map[pair]bool   // unordered address pairs (pairKey)
	isolated    map[string]bool // addresses cut off by Isolate
	closed      bool
	wg          sync.WaitGroup

	// Sparse topology state (see topology.go): named subnets, address
	// membership, directed gateway profiles and subnet-level faults.
	subnets            map[string]*subnet
	memberOf           map[string]string    // addr -> subnet name
	gateways           map[pair]LinkProfile // directed subnet pair
	partitionedSubnets map[pair]bool        // unordered subnet pairs (pairKey)
	isolatedSubnets    map[string]bool

	// cuts is the cut generation: every mutator that can change what
	// cutLocked decides bumps it under mu. A delivery re-checks cuts only
	// when the generation moved since route saw it.
	cuts atomic.Uint64

	// clk is non-nil when deliveries are scheduled in virtual time.
	clk   clock.Clock
	trace TraceFunc

	// inflight mirrors wg's counter observably: packets scheduled or being
	// delivered.
	inflight atomic.Int64
	// executing counts deliveries actively running (goroutine spawned or
	// callback firing), excluding packets parked on a virtual clock. The
	// sim harness polls it for quiescence: a parked packet is a future
	// event, not pending work.
	executing atomic.Int64

	// pending tracks virtual-time deliveries not yet fired, so Close can
	// cancel them instead of waiting for an Advance that never comes: nil after.
	pendMu  sync.Mutex
	pending map[uint64]pendEntry
	pendSeq uint64

	// workers runs zero-delay deliveries on resident goroutines, started
	// by the deliveries that need them.
	workers *transport.Workers[*delivery]
}

// Stats counts fabric-level events, for loss/duplication experiments.
type Stats struct {
	Sent      uint64
	Delivered uint64
	Dropped   uint64 // lost to the loss probability
	Cut       uint64 // dropped because of a partition
}

// Option configures a fabric.
type Option func(*Fabric)

// WithSeed fixes the RNG seed for deterministic loss/jitter sequences.
func WithSeed(seed int64) Option {
	return func(f *Fabric) { f.rng = rand.New(rand.NewSource(seed)) }
}

// WithDefaultLink sets the profile used by links with no override.
func WithDefaultLink(p LinkProfile) Option {
	return func(f *Fabric) { f.defaultLink = p }
}

// WithClock schedules deliveries on clk instead of real timers. With a
// *clock.Fake this turns every in-flight packet into a virtual-time event
// on the same queue as the platform's timers: time stands still until the
// clock is advanced, and a whole latency/partition scenario executes in
// microseconds of wall time (see internal/sim).
func WithClock(clk clock.Clock) Option {
	return func(f *Fabric) { f.clk = clk }
}

// WithTrace installs an event observer; see TraceFunc.
func WithTrace(fn TraceFunc) Option {
	return func(f *Fabric) { f.trace = fn }
}

// deliveryWorkers bounds the resident zero-delay delivery workers.
const deliveryWorkers = 4

// NewFabric creates an empty fabric. The default link is Loopback.
func NewFabric(opts ...Option) *Fabric {
	f := &Fabric{
		rng:         rand.New(rand.NewSource(1)),
		endpoints:   make(map[string]*endpoint),
		links:       make(map[pair]LinkProfile),
		defaultLink: Loopback,
		partitioned: make(map[pair]bool),
		isolated:    make(map[string]bool),

		subnets:            make(map[string]*subnet),
		memberOf:           make(map[string]string),
		gateways:           make(map[pair]LinkProfile),
		partitionedSubnets: make(map[pair]bool),
		isolatedSubnets:    make(map[string]bool),

		pending: make(map[uint64]pendEntry),
		workers: transport.NewWorkers(deliveryWorkers, (*delivery).run),
	}
	for _, o := range opts {
		o(f)
	}
	return f
}

// Endpoint creates (or returns the existing) endpoint with the given
// address.
func (f *Fabric) Endpoint(addr string) (transport.Endpoint, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, transport.ErrClosed
	}
	if ep, ok := f.endpoints[addr]; ok {
		return ep, nil
	}
	ep := &endpoint{fabric: f, addr: addr}
	f.endpoints[addr] = ep
	return ep, nil
}

// SetLink overrides the profile for the directed link from → to.
func (f *Fabric) SetLink(from, to string, p LinkProfile) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.links[pair{from, to}] = p
}

// Partition cuts (or heals, when cut is false) bidirectional connectivity
// between a and b. Partitioned packets are counted in Stats.Cut.
func (f *Fabric) Partition(a, b string, cut bool) {
	setCut(f, f.partitioned, pairKey(a, b), cut)
}

// Isolate cuts (or heals) every link touching addr, simulating a crashed
// or unplugged node as seen by the network.
//
// Isolation is a single per-address flag, not an expansion over the
// endpoints registered at call time: it is idempotent (two Isolates need
// one Heal), covers endpoints that register later, leaves pairwise
// Partition state untouched, and isolating an address nobody has claimed
// records one flag instead of silently manufacturing per-pair override
// entries. Healing an address that was never isolated is a no-op.
func (f *Fabric) Isolate(addr string, cut bool) {
	setCut(f, f.isolated, addr, cut)
}

// setCut opens (or heals) the cut k in m, one of the fabric's cut sets,
// and moves the cut generation.
func setCut[K comparable](f *Fabric, m map[K]bool, k K, cut bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cuts.Add(1)
	if cut {
		m[k] = true
	} else {
		delete(m, k)
	}
}

// Stats returns a snapshot of fabric counters. Each counter is read
// atomically; under traffic the four need not belong to one instant.
func (f *Fabric) Stats() Stats { return obs.Load(&f.stats) }

// Executing reports deliveries actively running — spawned or firing, as
// opposed to parked on a virtual clock awaiting an Advance.
func (f *Fabric) Executing() int { return int(f.executing.Load()) }

// InFlight reports packets scheduled for delivery or currently being
// handled. The sim harness polls it as part of quiescence detection.
func (f *Fabric) InFlight() int { return int(f.inflight.Load()) }

// Close shuts the fabric down and waits for in-flight deliveries to
// settle. Deliveries scheduled on a virtual clock that has not reached
// their instant are cancelled — nobody will advance the clock for them —
// while already-running ones are waited for, preserving the real-time
// contract that Close does not return mid-delivery.
func (f *Fabric) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.mu.Unlock()
	f.pendMu.Lock()
	pend := f.pending
	f.pending = nil // closed: scheduleVirtual arms nothing from here on
	f.pendMu.Unlock()
	for _, p := range pend {
		if p.timer.Stop() {
			p.cancel()
		}
	}
	f.wg.Wait()
	f.workers.Close() // Submit runs only inside the window route counted in wg
	return nil
}

// now reads the fabric clock for trace stamps; real-time runs (no
// injected clock) stamp zero, keeping this file off the wall clock.
func (f *Fabric) now() time.Time {
	if f.clk != nil {
		return f.clk.Now()
	}
	return time.Time{}
}

// tracef records one event. Callers on the send/deliver hot path must
// guard with `if f.trace != nil` at the call site — the variadic slice
// and interface boxing are built by the caller, so an unguarded call
// costs several allocations even when tracing is off.
func (f *Fabric) tracef(format string, args ...interface{}) {
	if f.trace == nil {
		return
	}
	f.trace(f.now(), fmt.Sprintf(format, args...))
}

// tracePkt records one event per frame pkt carries, a BATCH as its
// sub-frames, so the trace reads the same however a coalescer happened to
// cut its batches. Callers guard with `if f.trace != nil`.
func (f *Fabric) tracePkt(kind, from, to string, pkt []byte) {
	if _, err := transport.DecodeBatch(pkt, func(sub []byte) {
		f.tracef("%s %s>%s %dB", kind, from, to, len(sub))
	}); err != nil {
		f.tracef("%s %s>%s %dB", kind, from, to, len(pkt))
	}
}

// route performs admission for one packet from → to: closed and
// reachability checks, partition and loss decisions, delay computation
// and the Sent-side stats, all under one hold of f.mu. dst is nil when
// the packet was consumed without delivery (cut or dropped — err nil,
// the sender cannot tell) or rejected (err non-nil); otherwise gen is the
// cut generation the decision was taken at. Called with no locks held.
func (f *Fabric) route(from, to string, pkt []byte) (dst *endpoint, gen uint64, delay time.Duration, err error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, 0, 0, transport.ErrClosed
	}
	dst, found := f.endpoints[to]
	if !found {
		f.mu.Unlock()
		return nil, 0, 0, fmt.Errorf("%w: %q", transport.ErrUnreachable, to)
	}
	if f.cutLocked(from, to) {
		f.mu.Unlock()
		atomic.AddUint64(&f.stats.Sent, 1)
		atomic.AddUint64(&f.stats.Cut, 1)
		if f.trace != nil {
			f.tracePkt("cut", from, to, pkt)
		}
		return nil, 0, 0, nil // silently dropped: the sender cannot tell
	}
	profile, perr := f.profileLocked(from, to)
	if perr != nil {
		// Subnets with no gateway link between them: there is no channel,
		// which the sender can tell (unlike a partition, which silently
		// swallows traffic on an existing route).
		f.mu.Unlock()
		return nil, 0, 0, perr
	}
	drop := profile.Loss > 0 && f.rng.Float64() < profile.Loss
	if !drop {
		delay = profile.Latency + profile.PerPacket
		if profile.Jitter > 0 {
			delay += time.Duration(f.rng.Int63n(int64(profile.Jitter)))
		}
		// Counted under the hold that saw closed false: Close sets closed
		// under f.mu before it waits, so it never meets a late Add.
		f.wg.Add(1)
		gen = f.cuts.Load()
	}
	f.mu.Unlock()

	if drop {
		atomic.AddUint64(&f.stats.Sent, 1)
		atomic.AddUint64(&f.stats.Dropped, 1)
		if f.trace != nil {
			f.tracePkt("drop", from, to, pkt)
		}
		return nil, 0, 0, nil
	}
	atomic.AddUint64(&f.stats.Sent, 1)
	if f.trace != nil {
		f.tracePkt("send", from, to, pkt)
	}
	return dst, gen, delay, nil
}

// delivery is one scheduled packet delivery. The zero-delay path pools
// these and hands them to the worker pool as data rather than closures,
// keeping the per-packet capture allocation off the hot path; the
// delayed paths wrap run in a closure, which only sim and latency
// scenarios pay for.
type delivery struct {
	f        *Fabric
	from, to string
	dst      *endpoint
	gen      uint64 // the cut generation route admitted the packet at
	cpp      *[]byte
	cp       []byte
}

var deliveryPool = sync.Pool{New: func() interface{} { return new(delivery) }}

// run performs the delivery, releases the packet copy and recycles the
// descriptor. The delivery must not be touched after run returns. A
// partition that appeared while the packet was in flight cuts it; only a
// moved cut generation can mean one did, so an unmoved one skips f.mu.
func (d *delivery) run() {
	f, from, to, dst, gen, cpp, cp := d.f, d.from, d.to, d.dst, d.gen, d.cpp, d.cp
	*d = delivery{}
	deliveryPool.Put(d)
	defer f.release(cpp, cp)
	defer f.executing.Add(-1)
	cut := false
	if f.cuts.Load() != gen {
		f.mu.Lock()
		cut = f.cutLocked(from, to)
		f.mu.Unlock()
	}
	if cut {
		atomic.AddUint64(&f.stats.Cut, 1)
		if f.trace != nil {
			f.tracePkt("cut-inflight", from, to, cp)
		}
		return
	}
	dst.deliver(from, cp)
	atomic.AddUint64(&f.stats.Delivered, 1)
	if f.trace != nil {
		f.tracePkt("deliver", from, to, cp)
	}
}

// dispatch schedules the delivery of cp (a pooled copy owned by the
// fabric from here on) to dst after delay. The delivery is already in
// wg: route counted it.
func (f *Fabric) dispatch(from, to string, dst *endpoint, gen uint64, delay time.Duration, cpp *[]byte, cp []byte) {
	f.inflight.Add(1)
	d := deliveryPool.Get().(*delivery)
	*d = delivery{f: f, from: from, to: to, dst: dst, gen: gen, cpp: cpp, cp: cp}
	// executing is incremented before control leaves this goroutine (or,
	// on the virtual path, inside the clock callback, which the clock's
	// own firing counter already covers), so a quiescence poller never
	// observes a gap between "scheduled" and "running".
	switch {
	case delay <= 0:
		f.executing.Add(1)
		f.workers.Submit(d)
	case f.clk != nil:
		// The two closures allocate, but only virtual-time (sim) runs
		// take this branch.
		f.scheduleVirtual(delay, d.run, func() { f.release(cpp, cp) })
	default:
		f.executing.Add(1)
		scheduleReal(delay, d.run)
	}
}

// send routes one packet. Called with no locks held. The packet is
// copied into a pooled buffer first: the sender may reuse its buffer the
// moment Send returns, and the Handler contract forbids receivers
// retaining pkt, so the copy can be recycled after delivery.
func (f *Fabric) send(from, to string, pkt []byte) error {
	if len(pkt) > transport.MaxPacket {
		// Rejected before any stats change: a packet the fabric would
		// never carry is the sender's error, not traffic.
		return transport.ErrTooLarge
	}
	cpp := pktPool.Get().(*[]byte)
	cp := append((*cpp)[:0], pkt...)
	dst, gen, delay, err := f.route(from, to, cp)
	if dst == nil {
		putPkt(cpp, cp)
		return err
	}
	f.dispatch(from, to, dst, gen, delay, cpp, cp)
	return nil
}

func putPkt(cpp *[]byte, cp []byte) {
	if cap(cp) <= maxPooledPkt {
		*cpp = cp[:0]
		pktPool.Put(cpp)
	}
}

// release recycles a delivered (or cancelled) packet copy and retires it
// from the in-flight accounting.
func (f *Fabric) release(cpp *[]byte, cp []byte) {
	putPkt(cpp, cp)
	f.inflight.Add(-1)
	f.wg.Done()
}

// scheduleVirtual parks a delivery on the virtual clock, registering it
// so Close can cancel deliveries whose instant will never arrive. A send
// that passed route before Close and gets here after Close took the
// table is cancelled on the spot: Close is already waiting for it.
func (f *Fabric) scheduleVirtual(delay time.Duration, deliver, cancel func()) {
	f.pendMu.Lock()
	if f.pending == nil {
		f.pendMu.Unlock()
		cancel()
		return
	}
	id := f.pendSeq
	f.pendSeq++
	tm := f.clk.AfterFunc(delay, func() {
		f.pendMu.Lock()
		delete(f.pending, id)
		f.pendMu.Unlock()
		f.executing.Add(1)
		deliver()
	})
	f.pending[id] = pendEntry{timer: tm, cancel: cancel}
	f.pendMu.Unlock()
}

// pair keys the fabric's per-pair maps: a directed pair as given, an
// unordered one through pairKey. Two strings, never joined, so no name
// can collide with another pair's.
type pair struct{ a, b string }

func pairKey(a, b string) pair {
	if a > b {
		a, b = b, a
	}
	return pair{a, b}
}

// endpoint is a simulated transport.Endpoint. Its state is atomic, so
// sending and delivering take no lock of its own.
type endpoint struct {
	fabric *Fabric
	addr   string

	handler atomic.Value // transport.Handler
	closed  atomic.Bool
}

var (
	_ transport.Endpoint            = (*endpoint)(nil)
	_ transport.ConcurrentDeliverer = (*endpoint)(nil)
)

// Addr implements transport.Endpoint.
func (e *endpoint) Addr() string { return e.addr }

// Send implements transport.Endpoint.
func (e *endpoint) Send(to string, pkt []byte) error {
	if e.closed.Load() {
		return transport.ErrClosed
	}
	return e.fabric.send(e.addr, to, pkt)
}

// DeliversConcurrently implements transport.ConcurrentDeliverer: every
// delivery runs on its own worker or goroutine, so handlers may block
// on nested invocations without stalling other deliveries.
//
// It reports false under an injected clock: inline dispatch would run
// the handler inside the delivery job, holding Executing() nonzero
// while the handler parks on a virtual timer — and the sim harness
// only advances the clock once Executing() reaches zero, so the two
// would deadlock. A delayed packet's delivery job is moreover a clock
// callback, so the parked handler would block the clock's sequential
// callback runner itself. Virtual-time deliveries stay asynchronous.
func (e *endpoint) DeliversConcurrently() bool { return e.fabric.clk == nil }

// SetHandler implements transport.Endpoint.
func (e *endpoint) SetHandler(h transport.Handler) { e.handler.Store(h) }

// Close implements transport.Endpoint. The endpoint stays registered (its
// name remains claimed) but drops all traffic, like a crashed process.
func (e *endpoint) Close() error {
	e.closed.Store(true)
	return nil
}

func (e *endpoint) deliver(from string, pkt []byte) {
	if h, _ := e.handler.Load().(transport.Handler); h != nil && !e.closed.Load() {
		h(from, pkt)
	}
}
