package netsim

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"odp/internal/clock"
	"odp/internal/transport"
)

// TestPartitionMidFlightCountsCut pins the delivery-time partition
// recheck: a packet already in flight when the partition opens is counted
// Cut, never Delivered. The virtual clock makes the interleaving exact —
// the cut happens strictly between send and the delivery instant.
func TestPartitionMidFlightCountsCut(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	f := NewFabric(WithClock(fake), WithDefaultLink(LinkProfile{Latency: time.Millisecond}))
	defer f.Close()
	a, err := f.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	var delivered atomic.Int64
	b.SetHandler(func(string, []byte) { delivered.Add(1) })

	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if got := f.Stats(); got.Sent != 1 || got.Cut != 0 {
		t.Fatalf("after send: %+v", got)
	}
	f.Partition("a", "b", true)
	fake.Advance(2 * time.Millisecond)
	waitInFlightZero(t, f)
	got := f.Stats()
	if got.Cut != 1 || got.Delivered != 0 {
		t.Fatalf("mid-flight partition: %+v, want Cut=1 Delivered=0", got)
	}
	if delivered.Load() != 0 {
		t.Fatal("handler ran across a mid-flight partition")
	}
}

// TestCloseWaitsForInFlight pins the Close contract on the real-time
// path: Close blocks until a delivery whose handler is still running has
// returned.
func TestCloseWaitsForInFlight(t *testing.T) {
	f := NewFabric()
	a, err := f.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	var done atomic.Bool
	b.SetHandler(func(string, []byte) {
		close(entered)
		<-release
		done.Store(true)
	})
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	<-entered
	closed := make(chan struct{})
	go func() {
		_ = f.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a delivery handler was running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned after the handler finished")
	}
	if !done.Load() {
		t.Fatal("Close returned before the handler completed")
	}
}

// TestCloseCancelsVirtualPending: with deliveries parked on a fake clock
// nobody will advance again, Close must not deadlock — scheduled but
// unfired packets are cancelled.
func TestCloseCancelsVirtualPending(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	f := NewFabric(WithClock(fake), WithDefaultLink(LinkProfile{Latency: time.Second}))
	a, err := f.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Endpoint("b"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := a.Send("b", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.InFlight(); got != 5 {
		t.Fatalf("InFlight = %d, want 5", got)
	}
	closed := make(chan struct{})
	go func() {
		_ = f.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close deadlocked on undelivered virtual packets")
	}
	if got := f.InFlight(); got != 0 {
		t.Fatalf("InFlight after Close = %d, want 0", got)
	}
	if got := f.Stats(); got.Delivered != 0 {
		t.Fatalf("cancelled packets were delivered: %+v", got)
	}
}

// TestOversizeRejectedBeforeStats: a packet beyond transport.MaxPacket is
// the sender's error, observed before any counter moves.
func TestOversizeRejectedBeforeStats(t *testing.T) {
	for _, virtual := range []bool{false, true} {
		opts := []Option{}
		if virtual {
			opts = append(opts, WithClock(clock.NewFake(time.Unix(0, 0))))
		}
		f := NewFabric(opts...)
		a, err := f.Endpoint("a")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Endpoint("b"); err != nil {
			t.Fatal(err)
		}
		big := make([]byte, transport.MaxPacket+1)
		if err := a.Send("b", big); err != transport.ErrTooLarge {
			t.Fatalf("virtual=%v: err = %v, want ErrTooLarge", virtual, err)
		}
		if got := f.Stats(); got != (Stats{}) {
			t.Fatalf("virtual=%v: stats changed on rejected packet: %+v", virtual, got)
		}
		_ = f.Close()
	}
}

// TestVirtualDeliveryWaitsForAdvance: with an injected fake clock no
// packet moves until the clock does, and delivery lands exactly at the
// link latency.
func TestVirtualDeliveryWaitsForAdvance(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	trace := make(chan string, 16)
	f := NewFabric(
		WithClock(fake),
		WithDefaultLink(LinkProfile{Latency: 3 * time.Millisecond}),
		WithTrace(func(at time.Time, ev string) {
			select {
			case trace <- at.String() + " " + ev:
			default:
			}
		}),
	)
	defer f.Close()
	a, err := f.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan []byte, 1)
	b.SetHandler(func(_ string, pkt []byte) {
		got <- append([]byte(nil), pkt...)
	})
	if err := a.Send("b", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
		t.Fatal("delivered without advancing the clock")
	case <-time.After(10 * time.Millisecond):
	}
	fake.Advance(2 * time.Millisecond)
	select {
	case <-got:
		t.Fatal("delivered before the latency elapsed")
	case <-time.After(10 * time.Millisecond):
	}
	fake.Advance(time.Millisecond)
	select {
	case pkt := <-got:
		if string(pkt) != "hello" {
			t.Fatalf("payload %q", pkt)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("never delivered after advancing past the latency")
	}
	waitInFlightZero(t, f)
	if f.Stats().Delivered != 1 {
		t.Fatalf("stats: %+v", f.Stats())
	}
}

// TestIsolateIdempotent pins the Isolate/Heal contract: isolation is a
// single per-address flag, so repeated Isolates need exactly one Heal —
// the old per-pair expansion made the pair state and the isolation state
// indistinguishable, and stacked cuts that a single heal then missed.
func TestIsolateIdempotent(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	a, _ := f.Endpoint("a")
	b, _ := f.Endpoint("b")
	got := make(chan struct{}, 4)
	b.SetHandler(func(string, []byte) { got <- struct{}{} })

	f.Isolate("b", true)
	f.Isolate("b", true) // idempotent: still one flag
	f.Isolate("b", false)
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(time.Second):
		t.Fatal("one Heal should undo any number of Isolates")
	}
}

// TestIsolateCoversLateEndpoints: isolation applies to endpoints that
// register after the Isolate call. The old expansion snapshotted the
// endpoint set at call time, so a node that joined later could talk to a
// "crashed" address.
func TestIsolateCoversLateEndpoints(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	_, _ = f.Endpoint("a")
	f.Isolate("a", true)

	late, _ := f.Endpoint("late") // joins after the isolation
	got := make(chan struct{}, 1)
	a, _ := f.Endpoint("a")
	a.SetHandler(func(string, []byte) { got <- struct{}{} })
	if err := late.Send("a", []byte("x")); err != nil {
		t.Fatal(err) // silent cut, not an error
	}
	select {
	case <-got:
		t.Fatal("late-registered endpoint reached an isolated address")
	case <-time.After(20 * time.Millisecond):
	}
	if f.Stats().Cut != 1 {
		t.Fatalf("Cut = %d, want 1", f.Stats().Cut)
	}
}

// TestIsolateUnknownAddressCreatesNoPairState: isolating (or healing) an
// address nobody has claimed must not manufacture per-pair partition
// entries — a later Partition heal of some unrelated pair has nothing to
// collide with, and healing the unknown address is a clean no-op.
func TestIsolateUnknownAddressCreatesNoPairState(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	a, _ := f.Endpoint("a")
	b, _ := f.Endpoint("b")
	got := make(chan struct{}, 4)
	b.SetHandler(func(string, []byte) { got <- struct{}{} })

	f.Isolate("ghost", false) // heal of a never-isolated address: no-op
	f.Isolate("ghost", true)  // isolation of an unclaimed address
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(time.Second):
		t.Fatal("isolating an unknown address disturbed unrelated traffic")
	}
	if cut := f.Stats().Cut; cut != 0 {
		t.Fatalf("Cut = %d, want 0", cut)
	}
}

// TestIsolateLeavesPartitionStateIntact: Isolate/Heal and Partition are
// independent fault axes — healing an isolation must not heal a pairwise
// partition opened separately, which the per-pair expansion used to do.
func TestIsolateLeavesPartitionStateIntact(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	a, _ := f.Endpoint("a")
	b, _ := f.Endpoint("b")
	got := make(chan struct{}, 4)
	b.SetHandler(func(string, []byte) { got <- struct{}{} })

	f.Partition("a", "b", true)
	f.Isolate("a", true)
	f.Isolate("a", false) // heals the isolation only
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
		t.Fatal("healing an isolation also healed an independent partition")
	case <-time.After(20 * time.Millisecond):
	}
	f.Partition("a", "b", false)
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(time.Second):
		t.Fatal("pair not reachable after its own heal")
	}
}

// TestIsolationCutsMidFlight: like a partition, an isolation that opens
// while a packet is in flight counts the packet Cut at delivery time.
func TestIsolationCutsMidFlight(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	f := NewFabric(WithClock(fake), WithDefaultLink(LinkProfile{Latency: time.Millisecond}))
	defer f.Close()
	a, _ := f.Endpoint("a")
	b, _ := f.Endpoint("b")
	var delivered atomic.Int64
	b.SetHandler(func(string, []byte) { delivered.Add(1) })
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	f.Isolate("b", true)
	fake.Advance(2 * time.Millisecond)
	waitInFlightZero(t, f)
	if got := f.Stats(); got.Cut != 1 || got.Delivered != 0 {
		t.Fatalf("mid-flight isolation: %+v, want Cut=1 Delivered=0", got)
	}
	if delivered.Load() != 0 {
		t.Fatal("handler ran across a mid-flight isolation")
	}
}

// waitInFlightZero spins until the fabric has no in-flight deliveries.
func waitInFlightZero(t *testing.T, f *Fabric) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for f.InFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight never drained: %d", f.InFlight())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestPairKeysDoNotCollide: a pair of names is kept as two strings, never
// joined, so names that hold a separator cannot alias another pair:
// x ↔ "y|z" is not "x|y" ↔ z, whichever map the pair keys.
func TestPairKeysDoNotCollide(t *testing.T) {
	subnets := func(f *Fabric, link string) {
		for _, s := range []string{"s", "t|u", "s|t", "u"} {
			f.AddSubnet(s, Loopback)
		}
		f.JoinSubnet("x", "s")
		f.JoinSubnet("y|z", "t|u")
		if link != "" {
			f.LinkSubnets("s", link, Loopback)
		}
	}
	for _, tc := range []struct {
		name  string
		setup func(f *Fabric)
		want  error // nil: x → "y|z" is delivered
	}{
		{"Partition", func(f *Fabric) { f.Partition("x|y", "z", true) }, nil},
		{"SetLink", func(f *Fabric) { f.SetLink("x|y", "z", LinkProfile{Loss: 1}) }, nil},
		{"LinkSubnets", func(f *Fabric) {
			subnets(f, "")
			f.LinkSubnets("s|t", "u", Loopback)
		}, transport.ErrUnreachable},
		{"PartitionSubnets", func(f *Fabric) {
			subnets(f, "t|u")
			f.PartitionSubnets("s|t", "u", true)
		}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := NewFabric()
			defer f.Close()
			x, _ := f.Endpoint("x")
			yz, _ := f.Endpoint("y|z")
			yz.SetHandler(func(string, []byte) {})
			tc.setup(f)
			err := x.Send("y|z", []byte("p"))
			if !errors.Is(err, tc.want) {
				t.Fatalf("send x → y|z: %v, want %v", err, tc.want)
			}
			waitInFlightZero(t, f)
			wantDelivered := uint64(0)
			if tc.want == nil {
				wantDelivered = 1
			}
			if got := f.Stats(); got.Delivered != wantDelivered || got.Cut != 0 || got.Dropped != 0 {
				t.Fatalf("%+v, want Delivered=%d Cut=0 Dropped=0", got, wantDelivered)
			}
		})
	}
}

// TestCutMutatorsReachMidFlight: every mutator that can change a cut
// decision reaches a packet already in flight — the delivery sees the cut
// generation move and decides again — and a cut healed before the
// delivery instant delivers. Link profiles are not cut decisions: a
// packet already routed keeps the delay and loss it drew.
func TestCutMutatorsReachMidFlight(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mutate  func(f *Fabric)
		wantCut bool
	}{
		{"Partition", func(f *Fabric) { f.Partition("a", "b", true) }, true},
		{"Isolate", func(f *Fabric) { f.Isolate("b", true) }, true},
		{"PartitionSubnets", func(f *Fabric) { f.PartitionSubnets("sa", "sb", true) }, true},
		{"IsolateSubnet", func(f *Fabric) { f.IsolateSubnet("sb", true) }, true},
		{"JoinSubnet", func(f *Fabric) { f.JoinSubnet("b", "isolated") }, true},
		{"CutThenHeal", func(f *Fabric) {
			f.Partition("a", "b", true)
			f.Partition("a", "b", false)
		}, false},
		{"SetLink", func(f *Fabric) { f.SetLink("a", "b", LinkProfile{Loss: 1}) }, false},
		{"LinkSubnets", func(f *Fabric) { f.LinkSubnets("sa", "sb", LinkProfile{Loss: 1}) }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fake := clock.NewFake(time.Unix(0, 0))
			f := NewFabric(WithClock(fake))
			defer f.Close()
			for _, s := range []string{"sa", "sb", "isolated"} {
				f.AddSubnet(s, Loopback)
			}
			f.LinkSubnets("sa", "sb", LinkProfile{Latency: time.Millisecond})
			f.IsolateSubnet("isolated", true)
			f.JoinSubnet("a", "sa")
			f.JoinSubnet("b", "sb")
			a, _ := f.Endpoint("a")
			b, _ := f.Endpoint("b")
			var delivered atomic.Int64
			b.SetHandler(func(string, []byte) { delivered.Add(1) })

			if err := a.Send("b", []byte("x")); err != nil {
				t.Fatal(err)
			}
			tc.mutate(f)
			fake.Advance(2 * time.Millisecond)
			waitInFlightZero(t, f)
			want := Stats{Sent: 1, Delivered: 1}
			if tc.wantCut {
				want = Stats{Sent: 1, Cut: 1}
			}
			if got := f.Stats(); got != want || delivered.Load() != int64(want.Delivered) {
				t.Fatalf("%+v, handler ran %d times; want %+v", got, delivered.Load(), want)
			}
		})
	}
}

// BenchmarkFabricSendDeliver prices one zero-latency packet, one way:
// route, the hand-off to a delivery worker, the in-flight cut check and
// the receiving handler, which the sender waits for.
func BenchmarkFabricSendDeliver(b *testing.B) {
	f := NewFabric()
	defer f.Close()
	src, _ := f.Endpoint("a")
	dst, _ := f.Endpoint("b")
	done := make(chan struct{}, 1)
	dst.SetHandler(func(string, []byte) { done <- struct{}{} })
	pkt := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := src.Send("b", pkt); err != nil {
			b.Fatal(err)
		}
		<-done
	}
}
