// Package gc implements distributed garbage collection (§7.3).
//
// "The ODP computational model is based on interfaces to objects being
// accessed via references: this implies that objects must persist for at
// least as long as there are clients holding references to their
// interfaces. This potentially puts a server's resources at the mercy of
// its clients."
//
// The resolution here is lease-based: a client holding a reference renews
// a lease at the object's collector; an object whose leases have all
// expired is garbage — but "only passive objects need be considered —
// active ones cannot be garbage by definition", so recently-invoked
// objects are skipped regardless of lease state. §7.3's other escape
// hatch, explicitly closing an interface so "subsequent attempts to
// access the interface produce an error indication as their outcome", is
// Close.
package gc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"odp/internal/capsule"
	"odp/internal/clock"
	"odp/internal/obs"
	"odp/internal/wire"
)

// Errors returned by the collector.
var (
	// ErrUnknownObject reports a lease for an untracked object.
	ErrUnknownObject = errors.New("gc: unknown object")
	// ErrClosedInterface is the error produced by invoking an explicitly
	// closed interface.
	ErrClosedInterface = errors.New("gc: interface explicitly closed")
)

// tracked is one object's collection state.
type tracked struct {
	leases map[string]time.Time // holder -> expiry
	// lastActive is the instant of the last invocation, as nanoseconds
	// since the collector's epoch. The object's interceptor stores it
	// without taking the collector's lock.
	lastActive atomic.Int64
	onCollect  func(id string)
}

// Collector manages leases and collection for one capsule's objects.
type Collector struct {
	stats Stats // atomic.AddUint64; first, for 64-bit alignment

	cap   *capsule.Capsule
	grace time.Duration
	now   func() time.Time
	epoch time.Time // origin of every tracked.lastActive

	mu      sync.Mutex
	objects map[string]*tracked
	ref     wire.Ref
}

// Stats counts the collector's work.
type Stats struct {
	Collected uint64 // objects collected
	Renewals  uint64 // lease renewals processed
}

// New creates a collector on c and exports its lease interface. grace is
// how long after its last invocation an object is still considered
// active (default 1s).
func New(c *capsule.Capsule, grace time.Duration) (*Collector, error) {
	if grace <= 0 {
		grace = time.Second
	}
	g := &Collector{
		cap:     c,
		grace:   grace,
		now:     c.Clock().Now,
		objects: make(map[string]*tracked),
	}
	g.epoch = g.now()
	ref, err := c.Export(capsule.ServantFunc(g.dispatch),
		capsule.WithID(c.Name()+"/gc"))
	if err != nil {
		return nil, err
	}
	g.ref = ref
	return g, nil
}

// Ref returns the collector's lease interface reference, distributed to
// clients alongside object references.
func (g *Collector) Ref() wire.Ref { return g.ref }

// Stats returns a snapshot of the collector's counters.
func (g *Collector) Stats() Stats { return obs.Load(&g.stats) }

// Track begins collection management for object id. onCollect runs when
// the object is collected (it should release the object's resources; the
// collector already unexports). Returns an interceptor that must be
// installed on the object's dispatch path so invocations count as
// activity, stamped with their dispatch instant. Tracking an id already
// tracked keeps its entry — its leases, its last activity and its
// onCollect — so a new incarnation of a live object is not mistaken for
// a new object; only an unknown or collected id starts afresh.
func (g *Collector) Track(id string, onCollect func(id string)) capsule.Interceptor {
	g.mu.Lock()
	tr, ok := g.objects[id]
	if !ok {
		tr = &tracked{leases: make(map[string]time.Time), onCollect: onCollect}
		tr.lastActive.Store(int64(g.now().Sub(g.epoch)))
		g.objects[id] = tr
	}
	g.mu.Unlock()
	return func(next capsule.Link) capsule.Link {
		return func(ctx context.Context, inv capsule.Invocation) (string, []wire.Value, error) {
			tr.lastActive.Store(int64(inv.At.Sub(g.epoch)))
			return next(ctx, inv)
		}
	}
}

// Renew extends holder's lease on id by ttl (local form).
func (g *Collector) Renew(id, holder string, ttl time.Duration) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	tr, ok := g.objects[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownObject, id)
	}
	tr.leases[holder] = g.now().Add(ttl)
	atomic.AddUint64(&g.stats.Renewals, 1)
	return nil
}

// Release drops holder's lease on id.
func (g *Collector) Release(id, holder string) {
	g.mu.Lock()
	if tr, ok := g.objects[id]; ok {
		delete(tr.leases, holder)
	}
	g.mu.Unlock()
}

// Sweep collects every tracked object that is passive (no invocation
// within the grace window) and unreferenced (no unexpired lease),
// returning the collected ids.
func (g *Collector) Sweep() []string {
	now := g.now()
	sinceEpoch := int64(now.Sub(g.epoch))
	var victims []string
	var callbacks []func(string)
	g.mu.Lock()
	for id, tr := range g.objects {
		if time.Duration(sinceEpoch-tr.lastActive.Load()) < g.grace {
			continue // active objects cannot be garbage
		}
		live := false
		for holder, exp := range tr.leases {
			if exp.After(now) {
				live = true
				break
			}
			delete(tr.leases, holder) // scavenge expired leases
		}
		if live {
			continue
		}
		victims = append(victims, id)
		callbacks = append(callbacks, tr.onCollect)
		delete(g.objects, id)
	}
	g.mu.Unlock()
	for i, id := range victims {
		g.cap.Unexport(id)
		if callbacks[i] != nil {
			callbacks[i](id)
		}
	}
	atomic.AddUint64(&g.stats.Collected, uint64(len(victims)))
	return victims
}

// Close explicitly closes interface id: it is collected immediately and
// replaced by a tombstone, so "subsequent attempts to access the
// interface produce an error indication" rather than a silent miss.
func (g *Collector) Close(id string) {
	g.mu.Lock()
	tr, ok := g.objects[id]
	delete(g.objects, id)
	g.mu.Unlock()
	g.cap.Unexport(id)
	_, _ = g.cap.Export(capsule.ServantFunc(
		func(context.Context, string, []wire.Value) (string, []wire.Value, error) {
			return "", nil, fmt.Errorf("%w: %q", ErrClosedInterface, id)
		}), capsule.WithID(id))
	if ok && tr.onCollect != nil {
		tr.onCollect(id)
	}
}

// dispatch is the collector's lease interface.
func (g *Collector) dispatch(_ context.Context, op string, args []wire.Value) (string, []wire.Value, error) {
	switch op {
	case "renew":
		if len(args) != 3 {
			return "", nil, errors.New("gc: renew wants (id, holder, ttlMs)")
		}
		id, _ := args[0].(string)
		holder, _ := args[1].(string)
		ttlMs, _ := args[2].(int64)
		if err := g.Renew(id, holder, time.Duration(ttlMs)*time.Millisecond); err != nil {
			return "unknown", nil, nil
		}
		return "ok", nil, nil
	case "release":
		if len(args) != 2 {
			return "", nil, errors.New("gc: release wants (id, holder)")
		}
		id, _ := args[0].(string)
		holder, _ := args[1].(string)
		g.Release(id, holder)
		return "ok", nil, nil
	default:
		return "", nil, fmt.Errorf("gc: no operation %q", op)
	}
}

// Holder renews leases from the client side for every reference it is
// told to keep alive.
type Holder struct {
	cap  *capsule.Capsule
	name string
	ttl  time.Duration

	mu   sync.Mutex
	held map[string]wire.Ref // object id -> collector ref

	clk clock.Clock

	stop chan struct{}
	done chan struct{}
}

// NewHolder creates a lease holder named name (typically the client
// capsule's name) renewing every ttl/2.
func NewHolder(c *capsule.Capsule, name string, ttl time.Duration) *Holder {
	h := &Holder{
		cap:  c,
		name: name,
		ttl:  ttl,
		clk:  c.Clock(),
		held: make(map[string]wire.Ref),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go h.loop()
	return h
}

// Hold starts renewing a lease on objID at the collector gcRef.
func (h *Holder) Hold(objID string, gcRef wire.Ref) {
	h.mu.Lock()
	h.held[objID] = gcRef
	h.mu.Unlock()
	h.renew(objID, gcRef) // immediately, then periodically
}

// Drop stops renewing (and releases) the lease on objID.
func (h *Holder) Drop(objID string) {
	h.mu.Lock()
	gcRef, ok := h.held[objID]
	delete(h.held, objID)
	h.mu.Unlock()
	if ok {
		_, _, _ = h.cap.Invoke(context.Background(), gcRef, "release",
			[]wire.Value{objID, h.name})
	}
}

// Stop halts the renewal loop.
func (h *Holder) Stop() {
	select {
	case <-h.stop:
	default:
		close(h.stop)
	}
	<-h.done
}

func (h *Holder) loop() {
	defer close(h.done)
	interval := h.ttl / 2
	if interval <= 0 {
		interval = time.Second
	}
	// Re-armed one-shot timer, not a free-running ticker: a renewal that
	// blocks on a cut link outlasts the interval, and whether the
	// saturated ticker's ticks are delivered or dropped would depend on
	// real drain timing — felt as nondeterminism under virtual time.
	timer := h.clk.NewTimer(interval)
	defer func() { timer.Stop() }()
	for {
		select {
		case <-h.stop:
			return
		case <-timer.C():
		}
		h.mu.Lock()
		entries := make(map[string]wire.Ref, len(h.held))
		for id, ref := range h.held {
			entries[id] = ref
		}
		h.mu.Unlock()
		for id, ref := range entries {
			h.renew(id, ref)
		}
		timer = h.clk.NewTimer(interval)
	}
}

func (h *Holder) renew(objID string, gcRef wire.Ref) {
	_, _, _ = h.cap.Invoke(context.Background(), gcRef, "renew",
		[]wire.Value{objID, h.name, h.ttl.Milliseconds()})
}
