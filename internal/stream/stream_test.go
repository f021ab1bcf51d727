package stream

import (
	"context"
	"errors"
	"fmt"
	"odp/internal/transport"
	"sort"
	"sync"
	"testing"
	"time"

	"odp/internal/capsule"
	"odp/internal/clock"
	"odp/internal/netsim"
	"odp/internal/wire"
)

var codec = wire.PackedCodec{}

type streamEnv struct {
	t        *testing.T
	fabric   *netsim.Fabric
	producer *capsule.Capsule
	consumer *capsule.Capsule
}

func newStreamEnv(t *testing.T, opts ...netsim.Option) *streamEnv {
	t.Helper()
	f := netsim.NewFabric(opts...)
	t.Cleanup(func() { _ = f.Close() })
	mk := func(name string) *capsule.Capsule {
		ep, err := f.Endpoint(name)
		if err != nil {
			t.Fatal(err)
		}
		c := capsule.New(name, transport.NewCoalescer(ep, clock.Real{}, nil), codec)
		t.Cleanup(func() { _ = c.Close() })
		return c
	}
	return &streamEnv{t: t, fabric: f, producer: mk("producer"), consumer: mk("consumer")}
}

// collector gathers frames.
type collector struct {
	mu     sync.Mutex
	frames []Frame
}

func (c *collector) OnFrame(f Frame) {
	c.mu.Lock()
	c.frames = append(c.frames, f)
	c.mu.Unlock()
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frames)
}

func waitFrames(t *testing.T, c *collector, n int) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for c.count() < n {
		select {
		case <-deadline:
			t.Fatalf("received %d/%d frames", c.count(), n)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func TestBindAndFlow(t *testing.T) {
	e := newStreamEnv(t)
	col := &collector{}
	rx, err := NewReceiver(e.consumer, func(spec Spec) (Sink, error) {
		if spec.Media != "video" {
			return nil, fmt.Errorf("only video accepted")
		}
		return col, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Bind(context.Background(), e.producer, rx.Ref(), Spec{Media: "video", RateHz: 30})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := b.Send(int64(i*33), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFrames(t, col, 10)
	if got := rx.Received(b.ID()); got != 10 {
		t.Fatalf("receiver counted %d", got)
	}
}

func TestBindingRefused(t *testing.T) {
	e := newStreamEnv(t)
	rx, err := NewReceiver(e.consumer, func(spec Spec) (Sink, error) {
		return nil, fmt.Errorf("no capacity")
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Bind(context.Background(), e.producer, rx.Ref(), Spec{Media: "video"}); !errors.Is(err, ErrRefused) {
		t.Fatalf("want ErrRefused, got %v", err)
	}
}

func TestControlInterfaceStartStopStats(t *testing.T) {
	e := newStreamEnv(t)
	col := &collector{}
	rx, err := NewReceiver(e.consumer, func(Spec) (Sink, error) { return col, nil })
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	b, err := Bind(ctx, e.producer, rx.Ref(), Spec{Media: "audio"})
	if err != nil {
		t.Fatal(err)
	}
	// A manager (here: the consumer capsule) drives the control
	// interface remotely — "an interface containing control and
	// management functions".
	outcome, _, err := e.consumer.Invoke(ctx, b.ControlRef(), "stop", nil)
	if err != nil || outcome != "ok" {
		t.Fatalf("stop: %q %v", outcome, err)
	}
	if err := b.Send(0, []byte("x")); !errors.Is(err, ErrStopped) {
		t.Fatalf("send while stopped: %v", err)
	}
	outcome, _, err = e.consumer.Invoke(ctx, b.ControlRef(), "start", nil)
	if err != nil || outcome != "ok" {
		t.Fatalf("start: %q %v", outcome, err)
	}
	if err := b.Send(1, []byte("y")); err != nil {
		t.Fatal(err)
	}
	waitFrames(t, col, 1)
	outcome, res, err := e.consumer.Invoke(ctx, b.ControlRef(), "stats", nil)
	if err != nil || outcome != "ok" {
		t.Fatalf("stats: %q %v", outcome, err)
	}
	rec := res[0].(wire.Record)
	if rec["sent"].(uint64) != 1 || rec["dropped"].(uint64) != 1 {
		t.Fatalf("stats record %v", rec)
	}
}

func TestCloseStopsDelivery(t *testing.T) {
	e := newStreamEnv(t)
	col := &collector{}
	rx, err := NewReceiver(e.consumer, func(Spec) (Sink, error) { return col, nil })
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	b, err := Bind(ctx, e.producer, rx.Ref(), Spec{Media: "audio"})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Send(0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	waitFrames(t, col, 1)
	if err := b.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// Frames after close never reach the sink.
	_ = b.Send(1, []byte("y"))
	time.Sleep(50 * time.Millisecond)
	if col.count() != 1 {
		t.Fatalf("frames after close delivered: %d", col.count())
	}
}

func TestMultipleFlowsIndependent(t *testing.T) {
	e := newStreamEnv(t)
	cols := map[string]*collector{"audio": {}, "video": {}}
	rx, err := NewReceiver(e.consumer, func(spec Spec) (Sink, error) {
		return cols[spec.Media], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	audio, err := Bind(ctx, e.producer, rx.Ref(), Spec{Media: "audio"})
	if err != nil {
		t.Fatal(err)
	}
	video, err := Bind(ctx, e.producer, rx.Ref(), Spec{Media: "video"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := audio.Send(int64(i), []byte("a")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := video.Send(int64(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	waitFrames(t, cols["audio"], 5)
	waitFrames(t, cols["video"], 3)
}

func TestSyncGroupBoundsSkew(t *testing.T) {
	// Two flows with very different network jitter: unsynchronised
	// delivery skews wildly; the sync group holds fast frames back.
	var (
		mu       sync.Mutex
		released []releasedFrame
	)
	g := NewSyncGroup(10, func(flow string, f Frame) {
		mu.Lock()
		released = append(released, releasedFrame{flow, f})
		mu.Unlock()
	})
	audio := g.AddFlow("audio")
	video := g.AddFlow("video")

	// Audio arrives promptly; video arrives in bursts with delay.
	for ts := int64(0); ts < 200; ts += 10 {
		audio.OnFrame(Frame{TimestampMs: ts})
		if ts%40 == 30 { // video catches up in bursts of 4
			for v := ts - 30; v <= ts; v += 10 {
				video.OnFrame(Frame{TimestampMs: v})
			}
		}
	}
	g.Flush()
	if skew := g.MaxObservedSkewMs(); skew > 40+10 {
		t.Fatalf("sync group allowed %dms skew", skew)
	}
	// All frames were eventually delivered, in order per flow.
	mu.Lock()
	defer mu.Unlock()
	perFlow := map[string][]int64{}
	for _, r := range released {
		perFlow[r.flow] = append(perFlow[r.flow], r.frame.TimestampMs)
	}
	if len(perFlow["audio"]) != 20 || len(perFlow["video"]) != 20 {
		t.Fatalf("released %d audio, %d video", len(perFlow["audio"]), len(perFlow["video"]))
	}
	for flow, tss := range perFlow {
		if !sort.SliceIsSorted(tss, func(i, j int) bool { return tss[i] < tss[j] }) {
			t.Fatalf("%s released out of order: %v", flow, tss)
		}
	}
}

func TestSyncGroupReordersJitter(t *testing.T) {
	// While a flow is held back (the other flow lags), out-of-order
	// arrivals are buffered and released in timestamp order.
	var got []int64
	g := NewSyncGroup(0, func(flow string, f Frame) {
		if flow == "jittery" {
			got = append(got, f.TimestampMs)
		}
	})
	jittery := g.AddFlow("jittery")
	laggard := g.AddFlow("laggard")
	// The laggard is silent, so these buffer out of order.
	for _, ts := range []int64{20, 0, 10, 40, 30} {
		jittery.OnFrame(Frame{TimestampMs: ts})
	}
	if len(got) != 0 {
		t.Fatalf("frames released while laggard silent: %v", got)
	}
	// The laggard catches up; everything releases, in order.
	laggard.OnFrame(Frame{TimestampMs: 40})
	if len(got) != 5 {
		t.Fatalf("released %d frames", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("jitter not reordered: %v", got)
	}
}

func TestSyncGroupHoldsUntilAllFlowsLive(t *testing.T) {
	var n int
	g := NewSyncGroup(0, func(string, Frame) { n++ })
	a := g.AddFlow("a")
	_ = g.AddFlow("b")
	a.OnFrame(Frame{TimestampMs: 0})
	a.OnFrame(Frame{TimestampMs: 10})
	if n != 0 {
		t.Fatal("frames released before all flows started")
	}
}

func TestEndToEndSyncOverJitteryNetwork(t *testing.T) {
	// Full stack: two bindings over a jittery fabric into a sync group.
	e := newStreamEnv(t, netsim.WithSeed(3), netsim.WithDefaultLink(netsim.LinkProfile{
		Latency: time.Millisecond, Jitter: 3 * time.Millisecond}))
	var (
		mu    sync.Mutex
		count int
	)
	g := NewSyncGroup(20, func(string, Frame) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	rx, err := NewReceiver(e.consumer, func(spec Spec) (Sink, error) {
		return g.AddFlow(spec.Media), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	audio, err := Bind(ctx, e.producer, rx.Ref(), Spec{Media: "audio"})
	if err != nil {
		t.Fatal(err)
	}
	video, err := Bind(ctx, e.producer, rx.Ref(), Spec{Media: "video"})
	if err != nil {
		t.Fatal(err)
	}
	const frames = 30
	for i := 0; i < frames; i++ {
		if err := audio.Send(int64(i*10), []byte("a")); err != nil {
			t.Fatal(err)
		}
		if err := video.Send(int64(i*10), []byte("v")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	deadline := time.After(5 * time.Second)
	for {
		mu.Lock()
		c := count
		mu.Unlock()
		// Allow the tail to be held back by the watermark; most frames
		// must flow.
		if c >= 2*(frames-2) {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("only %d frames released", c)
		case <-time.After(5 * time.Millisecond):
		}
	}
	if skew := g.MaxObservedSkewMs(); skew > 40 {
		t.Fatalf("observed skew %dms exceeds bound", skew)
	}
}
