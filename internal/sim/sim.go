// Package sim is the deterministic simulation harness: it runs the whole
// ODP platform in logical time.
//
// A Sim owns one fake clock and one netsim fabric scheduled on it, so
// every in-flight packet, retransmission timer, janitor tick, lock-wait
// bound, failure-detector heartbeat and lease expiry is an event in a
// single virtual-time priority queue. Time advances only when the system
// is quiescent — every goroutine parked on the clock, no packet mid-
// delivery — so a partition-heal-reconverge scenario that takes seconds
// of protocol time executes in microseconds of wall time, and a failing
// run is replayed exactly from its seed.
//
// This is the FoundationDB-style simulation-testing discipline applied to
// an ODP platform: the paper's engineering-model claims are all about
// behaviour under variable latency, transient loss and partitions
// (§3, §4.1), and logical time makes those behaviours schedulable,
// instantaneous and reproducible. As there, a universe is single-threaded:
// New pins the process to one P, so idleness is observed, not inferred
// (see Settle). testing/synctest is that definition inside the runtime; it
// replaces the pin, clock.Fake.Gen and Settle once go.mod's floor is 1.25.
//
// The harness itself is one of the platform's sanctioned real-time
// observers (with internal/clock and netsim's realtime.go): its watchdog
// reads the wall clock, so the detclock pass exempts this package.
package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"odp/internal/clock"
	"odp/internal/netsim"
)

// Epoch is the virtual instant every simulation starts at: the year the
// paper was presented. A fixed epoch keeps virtual timestamps — and with
// them the event-trace hash — identical across runs and machines.
var Epoch = time.Date(1991, time.October, 7, 0, 0, 0, 0, time.UTC)

// Sim is one deterministic simulation universe.
type Sim struct {
	// Clock is the universe's only time source; share it with every
	// platform via odp.WithClock.
	Clock *clock.Fake
	// Fabric is the simulated network, scheduled on Clock.
	Fabric *netsim.Fabric
	// Trace accumulates the replay event trace; Trace.Hash() fingerprints
	// a run for determinism assertions.
	Trace *Trace

	seed  int64
	rng   *rand.Rand
	unpin func() // undoes New's GOMAXPROCS(1); nil once Close has run
}

// Option configures New.
type Option func(*cfg)

type cfg struct{ link netsim.LinkProfile }

// WithDefaultLink sets the fabric's default link profile (default
// Loopback: zero latency, lossless).
func WithDefaultLink(p netsim.LinkProfile) Option {
	return func(c *cfg) { c.link = p }
}

// pinned is set while a universe holds the process at one P: GOMAXPROCS
// is process-wide, so a second live universe is a test bug and panics.
var pinned atomic.Bool

// pin takes the process down to one P and returns the undo.
func pin() (unpin func()) {
	if !pinned.CompareAndSwap(false, true) {
		panic("sim: a universe is already live in this process")
	}
	prev := runtime.GOMAXPROCS(1)
	return func() {
		runtime.GOMAXPROCS(prev)
		pinned.Store(false)
	}
}

// New creates a simulation universe from a seed. The same seed yields the
// same fabric randomness and the same scenario randomness (Rand). It pins
// GOMAXPROCS to 1 until Close; DESIGN.md says why that is not an option.
func New(seed int64, opts ...Option) *Sim {
	c := cfg{}
	for _, o := range opts {
		o(&c)
	}
	s := &Sim{
		Clock: clock.NewFake(Epoch),
		Trace: NewTrace(),
		seed:  seed,
		rng:   rand.New(rand.NewSource(seed ^ 0x5DEECE66D)),
		unpin: pin(),
	}
	s.Fabric = netsim.NewFabric(
		netsim.WithSeed(seed),
		netsim.WithClock(s.Clock),
		netsim.WithTrace(s.Trace.Record),
		netsim.WithDefaultLink(c.link),
	)
	return s
}

// Seed returns the universe's seed.
func (s *Sim) Seed() int64 { return s.seed }

// Rand is the scenario's own deterministic randomness source (fault
// instants, key choices). Not safe for concurrent use; draw from the
// driving goroutine only.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Elapsed returns how much virtual time has passed since the epoch.
func (s *Sim) Elapsed() time.Duration { return s.Clock.Now().Sub(Epoch) }

// Mark records a scenario checkpoint in the trace.
func (s *Sim) Mark(format string, args ...interface{}) {
	s.Trace.Record(s.Clock.Now(), "mark "+fmt.Sprintf(format, args...))
}

// Close shuts the fabric down, cancelling undelivered virtual packets,
// and restores the GOMAXPROCS that New found.
func (s *Sim) Close() {
	_ = s.Fabric.Close()
	if s.unpin != nil {
		s.unpin()
		s.unpin = nil
	}
}

// drive is the one loop behind Run, RunFor and Drain: settle, test the
// condition, fire the earliest deadline — one deadline at a time, so an
// event scheduled by an earlier one (a retransmission answering a heal)
// fires in order. False means nothing is scheduled at or before limit.
func (s *Sim) drive(limit time.Time, until func() bool) bool {
	for {
		s.Settle()
		if until() {
			return true
		}
		next, ok := s.Clock.NextDeadline()
		if !ok || next.After(limit) {
			return false
		}
		s.Clock.Advance(next.Sub(s.Clock.Now()))
	}
}

// Run advances virtual time until the condition holds, failing the test
// if the budget runs out or the simulation stalls (condition unmet with
// nothing scheduled: every goroutine waits on what will never happen).
func (s *Sim) Run(t testing.TB, budget time.Duration, until func() bool) {
	t.Helper()
	if s.drive(s.Clock.Now().Add(budget), until) {
		return
	}
	if _, ok := s.Clock.NextDeadline(); !ok {
		t.Fatalf("sim[seed=%d]: stalled at +%v: condition unmet and no scheduled events", s.seed, s.Elapsed())
	}
	t.Fatalf("sim[seed=%d]: virtual budget %v exhausted at +%v before condition", s.seed, budget, s.Elapsed())
}

// RunFor advances exactly d of virtual time, firing every event inside
// the window, including those scheduled by earlier events in it.
func (s *Sim) RunFor(d time.Duration) {
	target := s.Clock.Now().Add(d)
	s.drive(target, func() bool { return false })
	s.Clock.Advance(target.Sub(s.Clock.Now())) // fires nothing: drive left no deadline ≤ target
}

// Drain runs fn — typically teardown: group stops, platform closes — on
// its own goroutine while advancing virtual time until it returns, since
// shutdown paths park on timers too (a failure detector mid-heartbeat
// waits out its call timeout). After Close, as in a t.Cleanup that runs
// after a deferred Close, it re-pins for its own duration.
func (s *Sim) Drain(fn func()) {
	if s.unpin == nil {
		defer pin()()
	}
	var done atomic.Bool
	go func() { defer done.Store(true); fn() }()
	start := time.Now()
	stop := func() bool { return done.Load() || time.Since(start) > settleTimeout }
	for !s.drive(s.Clock.Now().Add(1<<63-1), stop) {
		// Nothing scheduled, fn not back: teardown is blocked outside virtual
		// time (a system call). The one real-time wait in the package.
		time.Sleep(50 * time.Microsecond)
	}
	if !done.Load() {
		panic(fmt.Sprintf("sim[seed=%d]: drain stalled for %v of real time at +%v",
			s.seed, settleTimeout, s.Elapsed()))
	}
}

// settleTimeout is the real-time watchdog on one Settle or Drain: a
// universe that stays busy this long is livelocked, not slow.
const settleTimeout = 30 * time.Second

// Settle blocks until the universe is idle: every goroutine parked, no
// packet mid-delivery, no clock callback running.
//
// On one P, runtime.Gosched returns only after every other runnable
// goroutine, and every goroutine those wake, has run to its next block:
// a yield across which Gen, Executing and FiringCallbacks stand still is
// idleness observed, and the counters name what is busy if the watchdog
// fires. Two quiet polls, not one, because a yield can be cut short:
// every 61st pick the scheduler serves the global queue (where the yielded
// driver sits) ahead of local work, and a goroutine preempted after 10 ms
// on the CPU requeues behind the driver.
func (s *Sim) Settle() {
	start := time.Now()
	last := s.Clock.Gen()
	for quiet := 0; quiet < 2; {
		runtime.Gosched()
		gen, exec, firing := s.Clock.Gen(), s.Fabric.Executing(), s.Clock.FiringCallbacks()
		if gen == last && exec == 0 && firing == 0 {
			quiet++
		} else {
			quiet = 0
		}
		last = gen
		if time.Since(start) > settleTimeout {
			panic(fmt.Sprintf("sim[seed=%d]: settle stalled for %v of real time at +%v: %d deliveries executing, %d clock callbacks firing",
				s.seed, settleTimeout, s.Elapsed(), exec, firing))
		}
	}
}
