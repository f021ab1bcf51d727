// Package clock is the platform's single sanctioned gateway to wall-clock
// time.
//
// Every transparency mechanism that reasons about elapsed time — the RPC
// reply-cache janitor, the transaction lock-wait bound, the group failure
// detector, lease-based collection — takes a Clock instead of calling the
// time package directly, so that tests (and the virtual-time netsim, see
// internal/sim) can drive those mechanisms deterministically. The detclock
// static-analysis pass (internal/lint) enforces the discipline: outside
// this package, the sim harness, the single real-time netsim file and the
// benchmark harness, mentions of time.Now, time.Sleep, timers, tickers or
// the global math/rand source are diagnostics.
//
// Timers are plain; none is pooled. A hot path arms no timer per
// operation: the rpc client keeps one one-shot timer for all its calls,
// re-armed after each pass for the earliest instant any of them names.
package clock

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Clock abstracts the passage of time.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
	// Since returns the elapsed time since t.
	Since(t time.Time) time.Duration
	// Sleep blocks for d.
	Sleep(d time.Duration)
	// After returns a channel that delivers the instant after d elapses.
	After(d time.Duration) <-chan time.Time
	// AfterFunc runs f in its own goroutine after d elapses, returning a
	// Timer whose Stop cancels the pending run.
	AfterFunc(d time.Duration, f func()) Timer
	// NewTicker returns a ticker firing every d.
	NewTicker(d time.Duration) Ticker
	// NewTimer returns a one-shot timer firing after d.
	NewTimer(d time.Duration) Timer
	// EndOfInstant returns a channel that receives once whatever else is
	// due at the current instant has had its turn.
	EndOfInstant() <-chan time.Time
}

// Ticker delivers repeated instants on C until stopped.
type Ticker interface {
	C() <-chan time.Time
	Stop()
}

// Timer delivers one instant on C unless stopped first.
type Timer interface {
	C() <-chan time.Time
	// Stop prevents the timer from firing, reporting whether it did.
	Stop() bool
}

// Real is the wall clock.
type Real struct{}

var _ Clock = Real{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Since implements Clock.
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// AfterFunc implements Clock.
func (Real) AfterFunc(d time.Duration, f func()) Timer {
	return realTimer{time.AfterFunc(d, f)}
}

// NewTicker implements Clock.
func (Real) NewTicker(d time.Duration) Ticker { return realTicker{time.NewTicker(d)} }

// NewTimer implements Clock.
func (Real) NewTimer(d time.Duration) Timer { return realTimer{time.NewTimer(d)} }

// instantOver is always ready: the real clock's EndOfInstant.
var instantOver = make(chan time.Time)

func init() { close(instantOver) }

// EndOfInstant implements Clock. The wall clock cannot see an instant
// end: it yields the processor once and returns a ready channel.
func (Real) EndOfInstant() <-chan time.Time {
	runtime.Gosched()
	return instantOver
}

type realTicker struct{ t *time.Ticker }

func (t realTicker) C() <-chan time.Time { return t.t.C }
func (t realTicker) Stop()               { t.t.Stop() }

type realTimer struct{ t *time.Timer }

func (t realTimer) C() <-chan time.Time { return t.t.C }
func (t realTimer) Stop() bool          { return t.t.Stop() }

// Fake is a manually advanced clock for deterministic tests and the
// virtual-time simulation harness. Time stands still until Advance is
// called; timers and tickers whose deadlines fall inside an advance fire
// in deadline order, observing the fired instant. Like the real clock, a
// one-shot timer (or After/Sleep) with a non-positive duration fires
// immediately rather than parking until the next Advance.
//
// AfterFunc callbacks run off the caller's goroutine, like
// time.AfterFunc — but sequentially, in firing order, on a single runner
// goroutine. Real timers give no ordering guarantee for coincident
// deadlines; the fake resolves the tie deterministically (registration
// order), which is what lets a simulation replay a seed exactly when a
// packet delivery and a fault-plan step share an instant. The price is a
// contract: a callback must never block on work only a *later* callback
// can do (none of this platform's callbacks block at all — they enqueue,
// spawn, or flip state and return). A callback that schedules further
// work lands it after the Advance call that fired it; drivers that must
// observe such rescheduling (the sim harness) advance deadline-by-
// deadline and let the system settle between steps rather than jumping a
// whole window at once. A timer *channel* send only makes its receiver
// runnable; when it has run is for the driver to establish (sim.Settle,
// on one P), until testing/synctest replaces that and Gen at a go.mod
// floor of 1.25.
type Fake struct {
	mu  sync.Mutex
	now time.Time

	// waiters is a binary min-heap ordered by (deadline, seq): earliest
	// deadline first, registration order breaking ties — the same
	// deterministic coincident-deadline order the original linear scan
	// gave, at O(log n) per scheduling event instead of O(n). A swarm
	// simulation parks thousands of timers (every platform's janitor
	// tick, every in-flight packet) on one fake clock, which is where the
	// scan showed up. Stopped waiters are discarded lazily when they
	// surface at the root; dead counts them so compactLocked can bound
	// the garbage they pin.
	waiters []*fakeWaiter
	seq     uint64
	live    int // waiters in the heap not yet stopped
	dead    int // stopped waiters still in the heap

	// gen counts scheduling-state changes (waiter added, stopped, fired,
	// callback completed); the sim harness polls it to confirm quiescence.
	gen atomic.Uint64
	// firing counts AfterFunc callbacks that have been enqueued but have
	// not yet returned.
	firing atomic.Int64

	// cbMu guards the callback FIFO; cbBusy is true while the runner
	// goroutine is draining it.
	cbMu   sync.Mutex
	cbQ    []func()
	cbBusy bool
}

// fakeWaiter is one pending timer, ticker channel or callback.
type fakeWaiter struct {
	deadline time.Time
	seq      uint64        // registration order, the coincident tie-break
	interval time.Duration // 0 for one-shot timers
	ch       chan time.Time
	fn       func() // non-nil for AfterFunc waiters; ch is then unused
	stopped  bool
}

// NewFake returns a Fake clock reading start.
func NewFake(start time.Time) *Fake {
	return &Fake{now: start}
}

var _ Clock = (*Fake)(nil)

// Now implements Clock.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// Since implements Clock.
func (f *Fake) Since(t time.Time) time.Duration { return f.Now().Sub(t) }

// Sleep implements Clock: it blocks until another goroutine advances the
// clock past d. Sleep(0) and negative durations return immediately.
func (f *Fake) Sleep(d time.Duration) { <-f.After(d) }

// After implements Clock. After(0) delivers the current instant at once.
func (f *Fake) After(d time.Duration) <-chan time.Time {
	return f.addWaiter(d, 0, nil, false).ch
}

// AfterFunc implements Clock. A non-positive duration runs fn immediately
// in its own goroutine.
func (f *Fake) AfterFunc(d time.Duration, fn func()) Timer {
	return &fakeTimer{fakeStopper{f: f, w: f.addWaiter(d, 0, fn, false)}}
}

// NewTicker implements Clock.
func (f *Fake) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("clock: non-positive ticker interval")
	}
	return &fakeTicker{fakeStopper{f: f, w: f.addWaiter(d, d, nil, false)}}
}

// NewTimer implements Clock. A non-positive duration fires immediately,
// like the real clock.
func (f *Fake) NewTimer(d time.Duration) Timer {
	return &fakeTimer{fakeStopper{f: f, w: f.addWaiter(d, 0, nil, false)}}
}

// EndOfInstant implements Clock: the channel receives at the next
// Advance, Advance(0) included, never at once. The sim harness advances
// only once the universe is idle: after everything else at this instant.
func (f *Fake) EndOfInstant() <-chan time.Time {
	return f.addWaiter(0, 0, nil, true).ch
}

// addWaiter registers a waiter d from now. A one-shot whose deadline has
// passed fires at once unless park is set.
func (f *Fake) addWaiter(d, interval time.Duration, fn func(), park bool) *fakeWaiter {
	f.mu.Lock()
	w := &fakeWaiter{
		deadline: f.now.Add(d),
		interval: interval,
		fn:       fn,
		ch:       make(chan time.Time, 1),
	}
	if d <= 0 && interval == 0 && !park {
		// The deadline has already passed: fire now instead of parking
		// until the next Advance, matching time.NewTimer(0)/time.After(0).
		w.stopped = true
		now := f.now
		f.mu.Unlock()
		if fn != nil {
			f.spawn(fn)
		} else {
			w.ch <- now
		}
		f.bump()
		return w
	}
	w.seq = f.seq
	f.seq++
	f.heapPush(w)
	f.live++
	f.mu.Unlock()
	f.bump()
	return w
}

// waiterLess orders the heap: deadline first, registration order breaking
// coincident deadlines, so replays fire ties identically every run.
func waiterLess(a, b *fakeWaiter) bool {
	if !a.deadline.Equal(b.deadline) {
		return a.deadline.Before(b.deadline)
	}
	return a.seq < b.seq
}

// heapPush, heapPop, siftUp and siftDown are a plain binary heap over
// waiters; all called with f.mu held.
func (f *Fake) heapPush(w *fakeWaiter) {
	f.waiters = append(f.waiters, w)
	f.siftUp(len(f.waiters) - 1)
}

func (f *Fake) heapPop() *fakeWaiter {
	n := len(f.waiters) - 1
	w := f.waiters[0]
	f.waiters[0] = f.waiters[n]
	f.waiters[n] = nil
	f.waiters = f.waiters[:n]
	if n > 0 {
		f.siftDown(0)
	}
	return w
}

func (f *Fake) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !waiterLess(f.waiters[i], f.waiters[parent]) {
			return
		}
		f.waiters[i], f.waiters[parent] = f.waiters[parent], f.waiters[i]
		i = parent
	}
}

func (f *Fake) siftDown(i int) {
	n := len(f.waiters)
	for {
		least := i
		if l := 2*i + 1; l < n && waiterLess(f.waiters[l], f.waiters[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && waiterLess(f.waiters[r], f.waiters[least]) {
			least = r
		}
		if least == i {
			return
		}
		f.waiters[i], f.waiters[least] = f.waiters[least], f.waiters[i]
		i = least
	}
}

// dropStoppedRootLocked pops stopped waiters off the heap root. Called
// with f.mu held.
func (f *Fake) dropStoppedRootLocked() {
	for len(f.waiters) > 0 && f.waiters[0].stopped {
		f.heapPop()
		f.dead--
	}
}

// compactLocked rebuilds the heap without its stopped entries once they
// dominate it: a stopped far-deadline timer (a bounded wait that ended
// early, say) never surfaces at the root on its own, and a long
// simulation may stop thousands of them. Called with f.mu held.
func (f *Fake) compactLocked() {
	if f.dead <= 64 || f.dead*2 < len(f.waiters) {
		return
	}
	liveW := f.waiters[:0]
	for _, w := range f.waiters {
		if !w.stopped {
			liveW = append(liveW, w)
		}
	}
	for i := len(liveW); i < len(f.waiters); i++ {
		f.waiters[i] = nil
	}
	f.waiters = liveW
	f.dead = 0
	// Re-heapify: filtering breaks the shape property. waiterLess is a
	// total order, so pop order — and with it determinism — is unchanged.
	for i := len(f.waiters)/2 - 1; i >= 0; i-- {
		f.siftDown(i)
	}
}

// spawn enqueues an AfterFunc callback for the runner goroutine, tracked
// by the firing counter so quiescence pollers can wait it out. Callbacks
// execute strictly in enqueue order, one at a time — coincident-deadline
// ties resolve the same way every run.
func (f *Fake) spawn(fn func()) {
	f.firing.Add(1)
	f.cbMu.Lock()
	f.cbQ = append(f.cbQ, fn)
	if f.cbBusy {
		f.cbMu.Unlock()
		return
	}
	f.cbBusy = true
	f.cbMu.Unlock()
	go f.runCallbacks()
}

func (f *Fake) runCallbacks() {
	for {
		f.cbMu.Lock()
		if len(f.cbQ) == 0 {
			f.cbBusy = false
			f.cbMu.Unlock()
			return
		}
		fn := f.cbQ[0]
		f.cbQ = f.cbQ[1:]
		f.cbMu.Unlock()
		fn()
		f.firing.Add(-1)
		f.bump()
	}
}

func (f *Fake) bump() { f.gen.Add(1) }

// Advance moves the clock forward by d, firing every timer, ticker and
// callback whose deadline is reached, in deadline order. Channel sends
// that find a full buffer are dropped, like time.Ticker; callbacks are
// handed to the sequential runner goroutine and may still be running
// when Advance returns (see FiringCallbacks).
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	target := f.now.Add(d)
	for len(f.waiters) > 0 {
		next := f.waiters[0]
		if next.stopped {
			f.heapPop()
			f.dead--
			continue
		}
		if next.deadline.After(target) {
			break
		}
		f.now = next.deadline
		if next.fn != nil {
			next.stopped = true
			f.live--
			f.heapPop()
			f.spawn(next.fn)
			continue
		}
		select {
		case next.ch <- f.now:
		default: // receiver hasn't drained the last tick; drop, like time.Ticker
		}
		if next.interval > 0 {
			// Re-arm in place: the ticker keeps its registration seq, so
			// among coincident deadlines it still fires in its original
			// registration order, exactly as the linear scan did.
			next.deadline = next.deadline.Add(next.interval)
			f.siftDown(0)
		} else {
			next.stopped = true
			f.live--
			f.heapPop()
		}
	}
	f.now = target
	f.compactLocked()
	f.mu.Unlock()
	f.bump()
}

// NextDeadline reports the earliest pending waiter deadline, if any: the
// instant a driver must advance to for the next scheduled event to fire.
func (f *Fake) NextDeadline() (time.Time, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dropStoppedRootLocked()
	if len(f.waiters) == 0 {
		return time.Time{}, false
	}
	return f.waiters[0].deadline, true
}

// PendingWaiters reports how many timers, tickers and callbacks are
// scheduled.
func (f *Fake) PendingWaiters() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.live
}

// FiringCallbacks reports AfterFunc callbacks spawned but not yet
// returned.
func (f *Fake) FiringCallbacks() int { return int(f.firing.Load()) }

// Gen returns a counter that changes whenever the scheduling state does:
// a waiter is added, stopped or fired, or a callback completes. The sim
// harness's settle loop requires an unchanged Gen and zero
// FiringCallbacks across a yield before it calls the universe idle.
func (f *Fake) Gen() uint64 { return f.gen.Load() }

// fakeStopper is the shared half of the Ticker and Timer adapters.
type fakeStopper struct {
	f *Fake
	w *fakeWaiter
}

func (s *fakeStopper) C() <-chan time.Time { return s.w.ch }

func (s *fakeStopper) stop() bool {
	s.f.mu.Lock()
	was := !s.w.stopped
	s.w.stopped = true
	if was {
		// The waiter stays heap-resident until it surfaces at the root or
		// compaction reclaims it; only the counters move now.
		s.f.live--
		s.f.dead++
	}
	s.f.mu.Unlock()
	s.f.bump()
	return was
}

type fakeTicker struct{ fakeStopper }

func (t *fakeTicker) Stop() { t.stop() }

type fakeTimer struct{ fakeStopper }

func (t *fakeTimer) Stop() bool { return t.stop() }
