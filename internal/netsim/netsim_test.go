package netsim

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"odp/internal/clock"
	"odp/internal/transport"
)

func TestDeliverBasic(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	a, err := f.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan string, 1)
	b.SetHandler(func(from string, pkt []byte) {
		got <- from + ":" + string(pkt)
	})
	if err := a.Send("b", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-got:
		if s != "a:hello" {
			t.Fatalf("got %q", s)
		}
	case <-time.After(time.Second):
		t.Fatal("no delivery")
	}
}

func TestSenderBufferReuse(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	a, _ := f.Endpoint("a")
	b, _ := f.Endpoint("b")
	got := make(chan []byte, 1)
	b.SetHandler(func(_ string, pkt []byte) { got <- pkt })
	buf := []byte("original")
	if err := a.Send("b", buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "mutated!")
	pkt := <-got
	if string(pkt) != "original" {
		t.Fatalf("delivery saw sender mutation: %q", pkt)
	}
}

func TestUnknownDestination(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	a, _ := f.Endpoint("a")
	if err := a.Send("nowhere", []byte("x")); err == nil {
		t.Fatal("expected unreachable error")
	}
}

func TestLatencyApplied(t *testing.T) {
	f := NewFabric(WithDefaultLink(LinkProfile{Latency: 30 * time.Millisecond}))
	defer f.Close()
	a, _ := f.Endpoint("a")
	b, _ := f.Endpoint("b")
	got := make(chan time.Time, 1)
	b.SetHandler(func(string, []byte) { got <- time.Now() })
	start := time.Now()
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	at := <-got
	if d := at.Sub(start); d < 25*time.Millisecond {
		t.Fatalf("delivered after %v, want >= ~30ms", d)
	}
}

// TestPerPacketOverheadApplied: the per-datagram cost is charged once
// per Send, so a BATCH frame carrying many sub-frames pays it once —
// the amortisation model the batching experiments rely on.
func TestPerPacketOverheadApplied(t *testing.T) {
	f := NewFabric(WithDefaultLink(LinkProfile{PerPacket: 30 * time.Millisecond}))
	defer f.Close()
	a, _ := f.Endpoint("a")
	b, _ := f.Endpoint("b")
	got := make(chan time.Time, 1)
	b.SetHandler(func(string, []byte) { got <- time.Now() })
	start := time.Now()
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	at := <-got
	if d := at.Sub(start); d < 25*time.Millisecond {
		t.Fatalf("delivered after %v, want >= ~30ms of per-packet cost", d)
	}
}

func TestLossStatistics(t *testing.T) {
	f := NewFabric(WithSeed(42), WithDefaultLink(LinkProfile{Loss: 0.5}))
	a, _ := f.Endpoint("a")
	b, _ := f.Endpoint("b")
	var delivered atomic.Int64
	b.SetHandler(func(string, []byte) { delivered.Add(1) })
	const n = 2000
	for i := 0; i < n; i++ {
		if err := a.Send("b", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil { // waits for in-flight deliveries
		t.Fatal(err)
	}
	st := f.Stats()
	if st.Sent != n {
		t.Fatalf("sent %d, want %d", st.Sent, n)
	}
	frac := float64(st.Dropped) / float64(n)
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("loss fraction %.2f far from 0.5", frac)
	}
	if got := delivered.Load(); got != int64(st.Delivered) {
		t.Fatalf("handler saw %d, stats say %d", got, st.Delivered)
	}
	if st.Dropped+st.Delivered != n {
		t.Fatalf("dropped %d + delivered %d != sent %d", st.Dropped, st.Delivered, n)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	a, _ := f.Endpoint("a")
	b, _ := f.Endpoint("b")
	got := make(chan struct{}, 10)
	b.SetHandler(func(string, []byte) { got <- struct{}{} })

	f.Partition("a", "b", true)
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatal(err) // partition is silent, like a real network
	}
	select {
	case <-got:
		t.Fatal("delivered across partition")
	case <-time.After(30 * time.Millisecond):
	}
	f.Partition("a", "b", false)
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(time.Second):
		t.Fatal("not delivered after heal")
	}
	if f.Stats().Cut != 1 {
		t.Fatalf("cut count = %d, want 1", f.Stats().Cut)
	}
}

func TestIsolate(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	a, _ := f.Endpoint("a")
	b, _ := f.Endpoint("b")
	c, _ := f.Endpoint("c")
	gotB := make(chan struct{}, 4)
	gotC := make(chan struct{}, 4)
	b.SetHandler(func(string, []byte) { gotB <- struct{}{} })
	c.SetHandler(func(string, []byte) { gotC <- struct{}{} })

	f.Isolate("b", true)
	_ = a.Send("b", []byte("x"))
	_ = a.Send("c", []byte("x"))
	select {
	case <-gotC:
	case <-time.After(time.Second):
		t.Fatal("c should still be reachable")
	}
	select {
	case <-gotB:
		t.Fatal("b should be isolated")
	case <-time.After(20 * time.Millisecond):
	}
	f.Isolate("b", false)
	_ = a.Send("b", []byte("x"))
	select {
	case <-gotB:
	case <-time.After(time.Second):
		t.Fatal("b not reachable after heal")
	}
}

func TestClosedEndpointDropsAndRefuses(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	a, _ := f.Endpoint("a")
	b, _ := f.Endpoint("b")
	var n atomic.Int64
	b.SetHandler(func(string, []byte) { n.Add(1) })
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	_ = a.Send("b", []byte("x")) // dropped silently at receiver
	time.Sleep(20 * time.Millisecond)
	if n.Load() != 0 {
		t.Fatal("closed endpoint received a packet")
	}
	if err := b.Send("a", []byte("x")); err != transport.ErrClosed {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestFabricCloseRejectsSends(t *testing.T) {
	f := NewFabric()
	a, _ := f.Endpoint("a")
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("a", []byte("x")); err != transport.ErrClosed {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if _, err := f.Endpoint("z"); err != transport.ErrClosed {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

// TestFabricCloseWhileFlusherWrites: a coalescer's flusher is still
// writing when the fabric closes. Every delivery joins the fabric's wait
// group under the hold of f.mu that saw it open, so Close never waits
// beside an Add it did not count (under -race: no WaitGroup misuse).
func TestFabricCloseWhileFlusherWrites(t *testing.T) {
	for round := 0; round < 200; round++ {
		f := NewFabric()
		a, _ := f.Endpoint("a")
		b, _ := f.Endpoint("b")
		b.SetHandler(func(string, []byte) {})
		co := transport.NewCoalescer(a, clock.Real{}, nil)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = co.SendLazy("b", []byte("frame")) // written by the flusher
				}
			}
		}()
		pollSent := time.Now().Add(time.Second)
		for f.Stats().Sent == 0 && time.Now().Before(pollSent) {
			time.Sleep(10 * time.Microsecond)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		close(stop)
		wg.Wait()
		_ = co.Close()
		if err := a.Send("b", []byte("late")); err != transport.ErrClosed {
			t.Fatalf("send on a closed fabric: %v", err)
		}
	}
}

// closing starts f.Close; closeWithin fails the test if it does not
// return in time.
func closing(f *Fabric) <-chan struct{} {
	closed := make(chan struct{})
	go func() {
		_ = f.Close()
		close(closed)
	}()
	return closed
}

func closeWithin(t *testing.T, closed <-chan struct{}) {
	t.Helper()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Fabric.Close hung on a delivery scheduled behind its back")
	}
}

// TestFabricCloseCancelsLateVirtualSend: a send that passed route's open
// check, and so joined the fabric's wait group, reaches scheduleVirtual
// after Close took the pending table. Its instant is one nobody will
// advance to, so it must be cancelled there and then, or Close waits for
// ever. The fabric traces "send" between route and scheduleVirtual, which
// is where the test parks the sender while Close takes its snapshot.
func TestFabricCloseCancelsLateVirtualSend(t *testing.T) {
	parked, release := make(chan struct{}), make(chan struct{})
	f := NewFabric(WithClock(clock.NewFake(time.Unix(0, 0))),
		WithDefaultLink(LinkProfile{Latency: time.Millisecond}),
		WithTrace(func(_ time.Time, event string) {
			if strings.HasPrefix(event, "send ") {
				close(parked)
				<-release
			}
		}))
	a, _ := f.Endpoint("a")
	_, _ = f.Endpoint("b")
	sent := make(chan error, 1)
	go func() { sent <- a.Send("b", []byte("late")) }()
	<-parked
	closed := closing(f)
	for taken := false; !taken; time.Sleep(50 * time.Microsecond) {
		f.pendMu.Lock()
		taken = f.pending == nil
		f.pendMu.Unlock()
	}
	close(release)
	if err := <-sent; err != nil {
		t.Fatalf("a send admitted before Close: %v", err)
	}
	closeWithin(t, closed)
	if n := f.InFlight(); n != 0 {
		t.Fatalf("%d packets still held after Close", n)
	}
}

// TestFabricCloseRacingVirtualSends is the same window found by chance:
// senders on a virtual clock race Close, which must return and leave no
// pooled packet behind whichever side of its snapshot each send lands.
func TestFabricCloseRacingVirtualSends(t *testing.T) {
	for round := 0; round < 200; round++ {
		f := NewFabric(WithClock(clock.NewFake(time.Unix(0, 0))),
			WithDefaultLink(LinkProfile{Latency: time.Millisecond}))
		a, _ := f.Endpoint("a")
		_, _ = f.Endpoint("b")
		var wg sync.WaitGroup
		for s := 0; s < 4; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 64 && a.Send("b", []byte("frame")) == nil; i++ {
				}
			}()
		}
		for f.Stats().Sent == 0 {
			runtime.Gosched()
		}
		closeWithin(t, closing(f))
		wg.Wait()
		if n := f.InFlight(); n != 0 {
			t.Fatalf("round %d: %d packets still held after Close", round, n)
		}
	}
}

// TestFabricCloseStopsWorkers: the zero-delay workers start with the
// deliveries that need them, serve them while the fabric is open — never
// more than deliveryWorkers — and have exited once Close returns: the
// worker loop ends when Close closes the job queue. It reads this
// fabric's own count, whatever other fabrics' workers are doing.
func TestFabricCloseStopsWorkers(t *testing.T) {
	f := NewFabric()
	if n := f.workers.Load(); n != 0 {
		t.Fatalf("%d workers before the first delivery, want 0", n)
	}
	a, _ := f.Endpoint("a")
	b, _ := f.Endpoint("b")
	var n atomic.Int64
	b.SetHandler(func(string, []byte) { n.Add(1) })
	for i := 0; i < 100; i++ {
		if err := a.Send("b", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if w := f.workers.Load(); w < 1 || w > deliveryWorkers {
		t.Fatalf("%d workers while open, want 1 to %d", w, deliveryWorkers)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got := n.Load(); got != 100 {
		t.Fatalf("%d of 100 deliveries ran before Close returned", got)
	}
	if w := f.workers.Load(); w != 0 {
		t.Fatalf("%d workers after Close returned, want 0", w)
	}
}

func TestOversizePacket(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	a, _ := f.Endpoint("a")
	_, _ = f.Endpoint("b")
	big := make([]byte, transport.MaxPacket+1)
	if err := a.Send("b", big); err != transport.ErrTooLarge {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
}

func TestConcurrentSendersRace(t *testing.T) {
	f := NewFabric(WithDefaultLink(LinkProfile{Jitter: 100 * time.Microsecond}))
	a, _ := f.Endpoint("a")
	b, _ := f.Endpoint("b")
	var n atomic.Int64
	b.SetHandler(func(string, []byte) { n.Add(1) })
	var wg sync.WaitGroup
	const senders, per = 8, 50
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_ = a.Send("b", []byte("m"))
			}
		}()
	}
	wg.Wait()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if n.Load() != senders*per {
		t.Fatalf("delivered %d, want %d", n.Load(), senders*per)
	}
}

func TestEndpointIdempotent(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	a1, _ := f.Endpoint("a")
	a2, _ := f.Endpoint("a")
	if a1 != a2 {
		t.Fatal("same address should return the same endpoint")
	}
}

func TestDeterministicLossSequence(t *testing.T) {
	run := func() Stats {
		f := NewFabric(WithSeed(7), WithDefaultLink(LinkProfile{Loss: 0.3}))
		a, _ := f.Endpoint("a")
		_, _ = f.Endpoint("b")
		for i := 0; i < 500; i++ {
			_ = a.Send("b", []byte("x"))
		}
		_ = f.Close()
		return f.Stats()
	}
	s1, s2 := run(), run()
	if s1.Dropped != s2.Dropped {
		t.Fatalf("same seed produced different loss: %d vs %d", s1.Dropped, s2.Dropped)
	}
}
