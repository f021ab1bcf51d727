package clock

import (
	"runtime"
	"sync/atomic"
	"time"
)

// A Watch tells a blocked delivery from a slow one by two bounds. A stall
// is a wall-clock fact — a handler blocked on a nested call, a lock or a
// full socket — so a watch runs on the wall clock whatever clock the node
// keeps; a node in virtual time hands its dispatches off instead and
// watches nothing. But a delivery the host merely paused looks the same
// on the wall clock, and taking it lets the deliveries behind it overtake
// it. So the bound depends on what the owner did during the delivery.
//
// Measured (EXPERIMENTS.md, Hot-path engineering). A delivery during
// which its owner wrote to the peer — the handler asked the peer
// something and waits for the answer, which may be queued behind it — is
// taken after StallBound: a nested call back over the connection its
// request came in on pays about two. So is any delivery while one the
// watch took earlier is still running: the owner's handlers block, and
// the next one to run long is taken as quickly. Any other delivery is
// taken after QuietStallBound: beside two CPU hogs on two cores, one
// bound for every delivery let frames of the transport's ordering stress
// test overtake a paused one in about one run in seven at 1 ms and one
// in two hundred at 10 ms; these two bounds, in none of two hundred.
const (
	StallBound      = time.Millisecond
	QuietStallBound = 25 * time.Millisecond
)

// Watch keeps one owner's deliveries from stalling what follows them. An
// owner — a connection's reader, or the unpacking of one batch — delivers
// one thing at a time and holds the rest (the connection, the batch's
// remaining frames) while it does. When a delivery has run for its bound,
// the watch takes the rest from it: it calls stall, which must move the
// rest to a fresh goroutine before it returns.
//
// One timer per owner serves every delivery. The first Begin after an
// idle spell arms it, and its check re-arms it every StallBound only while
// deliveries keep running: a busy owner pays one timer run per bound, an
// idle one none. A delivery is taken at the first check that finds it
// running for its whole bound — between one bound and one bound plus a
// StallBound after it began.
type Watch struct {
	seq    atomic.Uint64 // odd while a delivery runs; Begin, End and a stall each move it on
	last   atomic.Uint64 // seq at the previous check, or at the Begin that armed the timer
	seen   atomic.Int64  // checks in a row, that Begin included, that have seen seq at last
	mark   atomic.Uint64 // *wrote at the running delivery's Begin
	wrote  *atomic.Uint64
	handed atomic.Uint64 // the ticket of the latest delivery stalled, stored once stall returned
	taken  atomic.Int64  // deliveries taken and still running
	armed  atomic.Bool
	timer  *time.Timer
	stall  func()
}

// NewWatch returns a watch whose stalls call stall, on the watch's own
// goroutine, while the stalled delivery is still running. wrote counts
// the owner's writes to its peer; a nil wrote bounds every delivery by
// StallBound.
func NewWatch(wrote *atomic.Uint64, stall func()) *Watch {
	w := &Watch{wrote: wrote, stall: stall}
	w.timer = time.AfterFunc(time.Hour, w.check)
	w.timer.Stop()
	return w
}

// Begin marks the start of a delivery and returns its ticket for End.
// Only whoever holds the owner's rest calls it, one delivery at a time.
func (w *Watch) Begin() uint64 {
	if w.wrote != nil {
		w.mark.Store(w.wrote.Load()) // before seq: a check that sees this delivery sees its mark
	}
	t := w.seq.Add(1)
	if !w.armed.Load() && w.armed.CompareAndSwap(false, true) {
		w.watchFrom(t, 1) // the first check can find this delivery stalled
	}
	return t
}

// End marks the delivery with ticket t finished. It reports false when
// the watch took the rest from it: the caller holds nothing any more and
// must return without touching it. End returns only after stall has.
func (w *Watch) End(t uint64) bool {
	if w.seq.CompareAndSwap(t, t+1) {
		return true
	}
	for w.handed.Load() < t { // stall is still copying what the caller held
		runtime.Gosched()
	}
	w.taken.Add(-1)
	return false
}

// watchFrom notes that n checks have seen seq s and sets the timer for the
// next.
func (w *Watch) watchFrom(s uint64, n int64) {
	w.last.Store(s)
	w.seen.Store(n)
	w.timer.Reset(StallBound)
}

// check runs on the timer. A delivery seen running for its whole bound has
// stalled. An owner found idle — one whose stalled delivery was just
// taken, too — stands the timer down, so the next delivery, the taker's
// first among them, is watched from its Begin.
func (w *Watch) check() {
	s, n := w.seq.Load(), int64(1)
	if s == w.last.Load() {
		n = w.seen.Load() + 1
	}
	if s&1 == 1 && time.Duration(n-1)*StallBound >= w.bound() && w.seq.CompareAndSwap(s, s+1) {
		w.taken.Add(1)
		w.stall()
		w.handed.Store(s)
		s++
	}
	if s&1 == 0 {
		w.armed.Store(false)
		if w.seq.Load() == s || !w.armed.CompareAndSwap(false, true) {
			return // idle, or a Begin re-armed the timer itself
		}
		// A Begin found the timer armed as it stood down: watch on.
		s, n = w.seq.Load(), 1
	}
	w.watchFrom(s, n)
}

// bound is the running delivery's: StallBound once the owner wrote to its
// peer since the delivery began or while a delivery taken earlier still
// runs, QuietStallBound otherwise.
func (w *Watch) bound() time.Duration {
	if w.wrote == nil || w.taken.Load() > 0 || w.wrote.Load() != w.mark.Load() {
		return StallBound
	}
	return QuietStallBound
}
