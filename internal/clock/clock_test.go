package clock

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestFakeNowAndSince(t *testing.T) {
	start := time.Unix(1000, 0)
	f := NewFake(start)
	if !f.Now().Equal(start) {
		t.Fatalf("Now = %v, want %v", f.Now(), start)
	}
	f.Advance(3 * time.Second)
	if got := f.Since(start); got != 3*time.Second {
		t.Fatalf("Since = %v, want 3s", got)
	}
}

func TestFakeTimerFiresOnce(t *testing.T) {
	f := NewFake(time.Unix(0, 0))
	tm := f.NewTimer(time.Second)
	select {
	case <-tm.C():
		t.Fatal("timer fired before advance")
	default:
	}
	f.Advance(time.Second)
	at := <-tm.C()
	if !at.Equal(time.Unix(1, 0)) {
		t.Fatalf("fired at %v, want t+1s", at)
	}
	f.Advance(10 * time.Second)
	select {
	case <-tm.C():
		t.Fatal("one-shot timer fired twice")
	default:
	}
}

func TestFakeTimerStop(t *testing.T) {
	f := NewFake(time.Unix(0, 0))
	tm := f.NewTimer(time.Second)
	if !tm.Stop() {
		t.Fatal("Stop on pending timer = false")
	}
	f.Advance(2 * time.Second)
	select {
	case <-tm.C():
		t.Fatal("stopped timer fired")
	default:
	}
	if tm.Stop() {
		t.Fatal("second Stop = true")
	}
}

func TestFakeTickerFiresPerInterval(t *testing.T) {
	f := NewFake(time.Unix(0, 0))
	tk := f.NewTicker(time.Second)
	defer tk.Stop()
	// Each advance crossing a deadline delivers a tick; the buffered
	// channel holds at most one undrained tick, like time.Ticker.
	for i := 1; i <= 3; i++ {
		f.Advance(time.Second)
		at := <-tk.C()
		if !at.Equal(time.Unix(int64(i), 0)) {
			t.Fatalf("tick %d at %v", i, at)
		}
	}
	tk.Stop()
	f.Advance(5 * time.Second)
	select {
	case <-tk.C():
		t.Fatal("stopped ticker ticked")
	default:
	}
}

func TestFakeAdvanceFiresInDeadlineOrder(t *testing.T) {
	f := NewFake(time.Unix(0, 0))
	late := f.After(3 * time.Second)
	early := f.After(1 * time.Second)
	f.Advance(5 * time.Second)
	e := <-early
	l := <-late
	if !e.Before(l) {
		t.Fatalf("fire order: early %v, late %v", e, l)
	}
}

func TestFakeSleepUnblocksOnAdvance(t *testing.T) {
	f := NewFake(time.Unix(0, 0))
	done := make(chan struct{})
	go func() {
		f.Sleep(time.Second)
		close(done)
	}()
	// Wait for the sleeper to register, then advance past its deadline.
	for {
		f.mu.Lock()
		n := len(f.waiters)
		f.mu.Unlock()
		if n > 0 {
			break
		}
	}
	f.Advance(2 * time.Second)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Sleep did not unblock")
	}
}

func TestRealClockBasics(t *testing.T) {
	var c Clock = Real{}
	t0 := c.Now()
	if c.Since(t0) < 0 {
		t.Fatal("negative Since")
	}
	tm := c.NewTimer(time.Hour)
	if !tm.Stop() {
		t.Fatal("Stop on fresh real timer = false")
	}
	tk := c.NewTicker(time.Hour)
	tk.Stop()
}

func TestFakeZeroDurationFiresImmediately(t *testing.T) {
	f := NewFake(time.Unix(100, 0))
	// After(0): the instant is already due; no Advance needed.
	select {
	case at := <-f.After(0):
		if !at.Equal(time.Unix(100, 0)) {
			t.Fatalf("After(0) delivered %v, want now", at)
		}
	default:
		t.Fatal("After(0) parked until the next Advance")
	}
	// Negative durations behave the same way.
	select {
	case <-f.After(-time.Second):
	default:
		t.Fatal("After(-1s) parked until the next Advance")
	}
	// NewTimer(0) fires at once and reports already-fired from Stop.
	tm := f.NewTimer(0)
	select {
	case <-tm.C():
	default:
		t.Fatal("NewTimer(0) parked until the next Advance")
	}
	if tm.Stop() {
		t.Fatal("Stop on an immediately-fired timer = true")
	}
	// Sleep(0) returns without an Advance (would deadlock before the fix).
	done := make(chan struct{})
	go func() {
		f.Sleep(0)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Sleep(0) did not return")
	}
}

// TestEndOfInstant: the real clock's end of an instant is ready at once;
// a Fake's parks, unlike After(0), until the next Advance — Advance(0)
// included — and is delivered at the instant it was asked in.
func TestEndOfInstant(t *testing.T) {
	select {
	case <-Real{}.EndOfInstant():
	default:
		t.Fatal("Real.EndOfInstant is not ready")
	}
	f := NewFake(time.Unix(100, 0))
	ch := f.EndOfInstant()
	select {
	case <-ch:
		t.Fatal("Fake.EndOfInstant fired before the clock advanced")
	default:
	}
	if next, ok := f.NextDeadline(); !ok || !next.Equal(time.Unix(100, 0)) {
		t.Fatalf("NextDeadline = %v %v, want the current instant", next, ok)
	}
	f.Advance(0)
	select {
	case at := <-ch:
		if !at.Equal(time.Unix(100, 0)) {
			t.Fatalf("delivered %v, want the instant it was asked in", at)
		}
	default:
		t.Fatal("Advance(0) did not end the instant")
	}
}

func TestFakeAfterFunc(t *testing.T) {
	f := NewFake(time.Unix(0, 0))
	fired := make(chan struct{})
	tm := f.AfterFunc(time.Second, func() { close(fired) })
	select {
	case <-fired:
		t.Fatal("callback ran before advance")
	default:
	}
	f.Advance(time.Second)
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("callback did not run after advance")
	}
	// Wait out the spawned goroutine, then confirm it is accounted for.
	for f.FiringCallbacks() != 0 {
	}
	if tm.Stop() {
		t.Fatal("Stop after firing = true")
	}
}

func TestFakeAfterFuncStop(t *testing.T) {
	f := NewFake(time.Unix(0, 0))
	tm := f.AfterFunc(time.Second, func() { t.Error("stopped callback ran") })
	if !tm.Stop() {
		t.Fatal("Stop on pending AfterFunc = false")
	}
	f.Advance(2 * time.Second)
	for f.FiringCallbacks() != 0 {
	}
}

// TestFakeAfterFuncCoincidentOrderDeterministic pins the guarantee the
// simulation harness leans on: callbacks whose deadlines coincide fire
// sequentially in registration order, every run — a packet delivery and
// a fault-plan step sharing an instant cannot race.
func TestFakeAfterFuncCoincidentOrderDeterministic(t *testing.T) {
	for round := 0; round < 50; round++ {
		f := NewFake(time.Unix(0, 0))
		var mu sync.Mutex
		var order []int
		for i := 0; i < 8; i++ {
			i := i
			f.AfterFunc(time.Second, func() {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			})
		}
		f.Advance(time.Second)
		for f.FiringCallbacks() != 0 {
			runtime.Gosched()
		}
		mu.Lock()
		for i, got := range order {
			if got != i {
				t.Fatalf("round %d: callback order %v, want registration order", round, order)
			}
		}
		mu.Unlock()
	}
}

func TestFakeAfterFuncZeroRunsImmediately(t *testing.T) {
	f := NewFake(time.Unix(0, 0))
	fired := make(chan struct{})
	f.AfterFunc(0, func() { close(fired) })
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("AfterFunc(0) did not run without an Advance")
	}
}

func TestFakeNextDeadline(t *testing.T) {
	f := NewFake(time.Unix(0, 0))
	if _, ok := f.NextDeadline(); ok {
		t.Fatal("NextDeadline on an idle clock = ok")
	}
	f.After(3 * time.Second)
	tm := f.NewTimer(time.Second)
	if at, ok := f.NextDeadline(); !ok || !at.Equal(time.Unix(1, 0)) {
		t.Fatalf("NextDeadline = %v,%v want t+1s", at, ok)
	}
	tm.Stop()
	if at, ok := f.NextDeadline(); !ok || !at.Equal(time.Unix(3, 0)) {
		t.Fatalf("NextDeadline after stop = %v,%v want t+3s", at, ok)
	}
	if n := f.PendingWaiters(); n != 1 {
		t.Fatalf("PendingWaiters = %d, want 1", n)
	}
}

func TestFakeGenChangesOnScheduling(t *testing.T) {
	f := NewFake(time.Unix(0, 0))
	g0 := f.Gen()
	tm := f.NewTimer(time.Second)
	if f.Gen() == g0 {
		t.Fatal("Gen unchanged by NewTimer")
	}
	g1 := f.Gen()
	tm.Stop()
	if f.Gen() == g1 {
		t.Fatal("Gen unchanged by Stop")
	}
	g2 := f.Gen()
	f.Advance(time.Minute)
	if f.Gen() == g2 {
		t.Fatal("Gen unchanged by Advance")
	}
}

// TestFakeHeapScale drives the waiter heap at swarm scale: thousands of
// timers with shuffled deadlines fire in exact deadline order, ties in
// registration order, and stopped far-deadline timers don't accumulate
// (the compaction that keeps a long simulation's heap bounded).
func TestFakeHeapScale(t *testing.T) {
	f := NewFake(time.Unix(0, 0))
	const n = 5000
	var mu sync.Mutex
	fired := make([]int, 0, n)
	// Deadlines descend as registration ascends, with every 10th timer
	// sharing a deadline with its predecessor to exercise the tie-break.
	deadlines := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		d := time.Duration(n-i) * time.Millisecond
		if i%10 == 9 {
			d = deadlines[i-1]
		}
		deadlines[i] = d
		i := i
		f.AfterFunc(d, func() {
			mu.Lock()
			fired = append(fired, i)
			mu.Unlock()
		})
	}
	if got := f.PendingWaiters(); got != n {
		t.Fatalf("PendingWaiters = %d, want %d", got, n)
	}
	f.Advance(time.Duration(n+1) * time.Millisecond)
	for f.FiringCallbacks() != 0 {
		runtime.Gosched()
	}
	mu.Lock()
	defer mu.Unlock()
	if len(fired) != n {
		t.Fatalf("fired %d of %d", len(fired), n)
	}
	for k := 1; k < n; k++ {
		a, b := fired[k-1], fired[k]
		da, db := deadlines[a], deadlines[b]
		if da > db || (da == db && a > b) {
			t.Fatalf("firing %d (waiter %d, +%v) before %d (waiter %d, +%v) breaks (deadline, registration) order",
				k-1, a, da, k, b, db)
		}
	}
}

// TestFakeStoppedWaitersCompacted: arming and releasing far-deadline
// timers — the per-call QoS pattern at swarm scale — must not pin their
// memory until the simulation reaches deadlines it never will.
func TestFakeStoppedWaitersCompacted(t *testing.T) {
	f := NewFake(time.Unix(0, 0))
	for i := 0; i < 10000; i++ {
		tm := f.NewTimer(time.Hour) // far future: never fired
		tm.Stop()
		f.Advance(time.Microsecond) // the per-call advance triggers compaction
	}
	if n := f.PendingWaiters(); n != 0 {
		t.Fatalf("PendingWaiters = %d, want 0", n)
	}
	f.mu.Lock()
	held := len(f.waiters)
	f.mu.Unlock()
	if held > 128 {
		t.Fatalf("heap retains %d stopped waiters; compaction should bound them", held)
	}
}

// TestFakeTickerKeepsRegistrationOrderAcrossRearm: a ticker re-armed
// inside an Advance keeps its registration seq, so among coincident
// deadlines it still beats waiters registered after it — the property
// that makes replays stable when a ticker and a delivery share a grid.
func TestFakeTickerKeepsRegistrationOrderAcrossRearm(t *testing.T) {
	f := NewFake(time.Unix(0, 0))
	tick := f.NewTicker(time.Second)
	var mu sync.Mutex
	var order []string
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 3; i++ {
			<-tick.C()
			mu.Lock()
			order = append(order, "tick")
			mu.Unlock()
		}
	}()
	for i := 0; i < 3; i++ {
		f.Advance(time.Second)
		// The ticker consumer records between advances; give it a chance.
		for {
			mu.Lock()
			n := len(order)
			mu.Unlock()
			if n == i+1 {
				break
			}
			runtime.Gosched()
		}
	}
	<-done
	tick.Stop()
	if len(order) != 3 {
		t.Fatalf("ticker fired %d times, want 3", len(order))
	}
}
