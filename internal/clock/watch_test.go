package clock

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestWatchTakesAStalledDelivery: a delivery that outruns the bound is
// taken — stall runs once, while the delivery is still running, and its
// End reports the loss — no sooner than the bound after it began. Quick
// deliveries around it are never taken, and an owner that stalled once
// is watched as before.
func TestWatchTakesAStalledDelivery(t *testing.T) {
	var stalls atomic.Int32
	w := NewWatch(nil, func() { stalls.Add(1) })
	for round := int32(1); round <= 5; round++ {
		for i := 0; i < 10; i++ {
			if !w.End(w.Begin()) {
				t.Fatalf("round %d: a quick delivery was taken", round)
			}
		}
		start := time.Now()
		tk := w.Begin()
		took := waitStall(t, &stalls, round, start)
		if took < StallBound {
			t.Fatalf("round %d: taken after %v, before the bound %v", round, took, StallBound)
		}
		if w.End(tk) {
			t.Fatalf("round %d: End kept a delivery the watch took", round)
		}
		t.Logf("round %d: taken after %v", round, took)
	}
}

// TestWatchQuietDeliveryGetsTheLongBound: while the owner writes nothing
// to its peer, a delivery runs for QuietStallBound before it is taken;
// one during which the owner wrote is taken after StallBound.
func TestWatchQuietDeliveryGetsTheLongBound(t *testing.T) {
	var wrote atomic.Uint64
	var stalls atomic.Int32
	w := NewWatch(&wrote, func() { stalls.Add(1) })
	start := time.Now()
	tk := w.Begin()
	if took := waitStall(t, &stalls, 1, start); took < QuietStallBound {
		t.Fatalf("a quiet delivery was taken after %v, before %v", took, QuietStallBound)
	}
	w.End(tk)
	start = time.Now()
	tk = w.Begin()
	wrote.Add(1) // the handler asks its peer something, and waits
	took := waitStall(t, &stalls, 2, start)
	if took < StallBound {
		t.Fatalf("taken after %v, before the bound %v", took, StallBound)
	}
	w.End(tk)
	t.Logf("a delivery that wrote was taken after %v", took)
}

// waitStall waits for the n-th stall and returns how long after start it
// came.
func waitStall(t *testing.T, stalls *atomic.Int32, n int32, start time.Time) time.Duration {
	t.Helper()
	for stalls.Load() < n {
		if time.Since(start) > 5*time.Second {
			t.Fatalf("no stall %d after 5s", n)
		}
		time.Sleep(50 * time.Microsecond)
	}
	if got := stalls.Load(); got != n {
		t.Fatalf("%d stalls, want %d", got, n)
	}
	return time.Since(start)
}

// TestWatchEndWaitsForStall: End of a taken delivery returns only after
// stall did, so the owner's rest is never touched by both at once.
func TestWatchEndWaitsForStall(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var returned atomic.Bool
	w := NewWatch(nil, func() {
		close(entered)
		<-release
		returned.Store(true)
	})
	tk := w.Begin()
	<-entered
	ended := make(chan bool)
	go func() { ended <- w.End(tk) }()
	select {
	case <-ended:
		t.Fatal("End returned while stall was running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if <-ended || !returned.Load() {
		t.Fatal("End kept the delivery, or returned before stall did")
	}
}

// TestWatchStandsDownWhenIdle: the timer runs only while deliveries do.
// An owner idle for a few bounds has its timer stood down, and the next
// delivery arms it again.
func TestWatchStandsDownWhenIdle(t *testing.T) {
	w := NewWatch(nil, func() {})
	w.End(w.Begin())
	deadline := time.Now().Add(5 * time.Second)
	for w.armed.Load() {
		if time.Now().After(deadline) {
			t.Fatal("timer still armed 5s after the last delivery")
		}
		time.Sleep(StallBound)
	}
	tk := w.Begin()
	if !w.armed.Load() {
		t.Fatal("a delivery after an idle spell did not arm the timer")
	}
	w.End(tk)
}
