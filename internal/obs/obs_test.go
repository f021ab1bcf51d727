package obs

import (
	"context"
	"maps"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"odp/internal/clock"
	"odp/internal/wire"
)

var epoch = time.Date(1991, time.October, 7, 0, 0, 0, 0, time.UTC)

func newTestCollector(name string, every uint64) (*Collector, *clock.Fake) {
	fake := clock.NewFake(epoch)
	return NewCollector(name, fake, WithSampleEvery(every)), fake
}

// root mints a root span of kind stub on c, drawn from draws as a
// root-kind stage's pass draws it.
func root(c *Collector, draws *atomic.Uint64, name string) *Span {
	return c.mint(SpanContext{}, KindStub, name, time.Time{}, draws)
}

// child mints a span under parent on c.
func child(c *Collector, parent SpanContext, kind, name string) *Span {
	return c.mint(parent, kind, name, time.Time{}, nil)
}

// end completes sp at the instant c's clock reads, as a pass's End does.
func end(c *Collector, sp *Span) { c.endAt(sp, c.clk.Now()) }

func TestNilCollectorIsFree(t *testing.T) {
	var c *Collector
	var draws atomic.Uint64
	sp := root(c, &draws, "op")
	if sp != nil {
		t.Fatal("nil collector began a span")
	}
	c.Event(sp.Context(), KindAck, "op")
	if got := c.Snapshot(); got != nil {
		t.Fatalf("nil collector snapshot = %v", got)
	}
	if c.SampleEvery() != 0 || c.Node() != "" {
		t.Fatal("nil collector accessors not zero")
	}
}

func TestSpanTreeAndRing(t *testing.T) {
	c, fake := newTestCollector("node-a", 1)
	var draws atomic.Uint64
	top := root(c, &draws, "get")
	if top == nil {
		t.Fatal("sampled root is nil")
	}
	if top.TraceID != top.SpanID || top.TraceID == 0 {
		t.Fatalf("root ids: trace=%x span=%x", top.TraceID, top.SpanID)
	}
	fake.Advance(time.Millisecond)
	send := child(c, top.Context(), KindSend, "get")
	if send.TraceID != top.TraceID || send.ParentID != top.SpanID {
		t.Fatalf("child not under root: %+v", send)
	}
	c.Event(send.Context(), KindRetransmit, "get")
	fake.Advance(time.Millisecond)
	end(c, send)
	end(c, top)

	spans := c.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("snapshot len = %d, want 3", len(spans))
	}
	// Ring order is completion order: event, child, root.
	if spans[0].Kind != KindRetransmit || spans[1].Kind != KindSend || spans[2].Kind != KindStub {
		t.Fatalf("ring order: %s %s %s", spans[0].Kind, spans[1].Kind, spans[2].Kind)
	}
	if spans[1].Duration() != time.Millisecond {
		t.Fatalf("child duration = %v", spans[1].Duration())
	}
	if spans[2].Duration() != 2*time.Millisecond {
		t.Fatalf("root duration = %v", spans[2].Duration())
	}
	st := c.Stats()
	if st.Roots != 1 || st.Sampled != 1 || st.Recorded != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSampling(t *testing.T) {
	c, _ := newTestCollector("node-a", 3)
	var draws atomic.Uint64
	var sampled int
	for i := 0; i < 9; i++ {
		if sp := root(c, &draws, "op"); sp != nil {
			sampled++
			end(c, sp)
		}
	}
	if sampled != 3 {
		t.Fatalf("sampled %d of 9 with every=3", sampled)
	}
	c.SetSampleEvery(0)
	if sp := root(c, &draws, "op"); sp != nil {
		t.Fatal("began a span with sampling off")
	}
	c.Event(SpanContext{}, KindAck, "op")
	if st := c.Stats(); st.Recorded != 3 {
		t.Fatalf("an event under an invalid parent was recorded: %+v", st)
	}
}

func TestRingEviction(t *testing.T) {
	c, _ := newTestCollector("node-a", 1)
	var draws atomic.Uint64
	for i := 0; i < ringSize+2; i++ {
		end(c, root(c, &draws, strconv.Itoa(i)))
	}
	spans := c.Snapshot()
	if len(spans) != ringSize {
		t.Fatalf("ring kept %d, want %d", len(spans), ringSize)
	}
	if oldest, newest := spans[0].Name, spans[ringSize-1].Name; oldest != "2" || newest != strconv.Itoa(ringSize+1) {
		t.Fatalf("oldest/newest = %s/%s, want 2/%d", oldest, newest, ringSize+1)
	}
}

// An unsampled collector holds no span ring: the ring is built by the
// first span committed to it.
func TestRingBuiltByFirstSpan(t *testing.T) {
	c := NewCollector("node-a", clock.NewFake(epoch))
	var draws atomic.Uint64
	if sp := root(c, &draws, "unsampled"); sp != nil || c.ring.buf != nil {
		t.Fatalf("unsampled root: span %v, ring of %d", sp, len(c.ring.buf))
	}
	if got := c.Snapshot(); len(got) != 0 {
		t.Fatalf("snapshot of an empty collector: %v", got)
	}
	c.SetSampleEvery(1)
	end(c, root(c, &draws, "first"))
	if len(c.ring.buf) != ringSize || len(c.Snapshot()) != 1 {
		t.Fatalf("after the first span: ring of %d, %d retained", len(c.ring.buf), len(c.Snapshot()))
	}
}

func TestDeterministicIDs(t *testing.T) {
	run := func() []Span {
		c, _ := newTestCollector("node-a", 1)
		var draws atomic.Uint64
		top := root(c, &draws, "op")
		end(c, child(c, top.Context(), KindSend, "op"))
		end(c, top)
		return c.Snapshot()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	ca, _ := newTestCollector("node-a", 1)
	cb, _ := newTestCollector("node-b", 1)
	var da, db atomic.Uint64
	if root(ca, &da, "op").SpanID == root(cb, &db, "op").SpanID {
		t.Fatal("two nodes minted the same span id")
	}
}

func TestContextPropagation(t *testing.T) {
	ctx := context.Background()
	if FromContext(ctx).Valid() {
		t.Fatal("empty context carries a span")
	}
	sc := SpanContext{TraceID: 7, SpanID: 9}
	if got := FromContext(ContextWith(ctx, sc)); got != sc {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestFoldSnakeCase(t *testing.T) {
	type fakeStats struct {
		Calls           uint64
		AcksPiggybacked uint64
		FramesPerBatch  [3]uint64
		hidden          uint64
		Name            string // non-uint64: skipped
	}
	_ = fakeStats{hidden: 1}.hidden
	m := NewMetrics()
	Fold(m, "rpc.client", fakeStats{Calls: 2, AcksPiggybacked: 5, FramesPerBatch: [3]uint64{1, 0, 4}})
	want := map[string]uint64{
		"rpc.client.calls":              2,
		"rpc.client.acks_piggybacked":   5,
		"rpc.client.frames_per_batch.0": 1,
		"rpc.client.frames_per_batch.1": 0,
		"rpc.client.frames_per_batch.2": 4,
	}
	if !maps.Equal(m.Counters, want) {
		t.Fatalf("fold = %v, want %v", m.Counters, want)
	}
	// Pointer and nil-pointer folding.
	m2 := NewMetrics()
	Fold(m2, "x", &fakeStats{Calls: 1})
	if m2.Counters["x.calls"] != 1 {
		t.Fatalf("pointer fold = %v", m2.Counters)
	}
	Fold(m2, "y", (*fakeStats)(nil))
	Fold(m2, "z", 42)
	if len(m2.Counters) != 5 {
		t.Fatalf("nil pointer or non-struct folded keys: %v", m2.Counters)
	}
}

// TestLoadCopiesWhatFoldFolds checks Load copies exactly the fields Fold
// reads — exported uint64 and [N]uint64 — and leaves the rest zero.
func TestLoadCopiesWhatFoldFolds(t *testing.T) {
	type counted struct {
		Calls   uint64
		Buckets [3]uint64
		hidden  uint64
		Name    string
		Ratio   float64
		Small   uint32
		Signed  [2]int64
	}
	src := counted{Calls: 7, Buckets: [3]uint64{1, 0, 4}, hidden: 9, Name: "n", Ratio: 0.5, Small: 3, Signed: [2]int64{1, 2}}
	want := counted{Calls: 7, Buckets: [3]uint64{1, 0, 4}}
	if got := Load(&src); got != want {
		t.Fatalf("Load = %+v, want %+v", got, want)
	}
}

// TestLoadUnderConcurrentAdds runs Load beside atomic.AddUint64 writers
// (the race detector checks every access is atomic) and wants the adds'
// sum from the final Load.
func TestLoadUnderConcurrentAdds(t *testing.T) {
	type counted struct {
		Calls   uint64
		Buckets [4]uint64
	}
	const writers, adds = 4, 2000
	st := new(counted) // its own allocation: 64-bit aligned everywhere
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				atomic.AddUint64(&st.Calls, 1)
				atomic.AddUint64(&st.Buckets[w], 2)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		if got := Load(st); got.Calls > writers*adds {
			t.Fatalf("Load read %d calls, more than were added", got.Calls)
		}
	}
	want := counted{Calls: writers * adds, Buckets: [4]uint64{2 * adds, 2 * adds, 2 * adds, 2 * adds}}
	if got := Load(st); got != want {
		t.Fatalf("final Load = %+v, want %+v", got, want)
	}
}

func TestSpanRecordRoundTrip(t *testing.T) {
	s := Span{
		TraceID: 1, SpanID: 2, ParentID: 3,
		Kind: KindSend, Name: "get", Node: "n",
		Start: epoch, End: epoch.Add(time.Millisecond),
	}
	got := SpanFromRecord(s.Record())
	if got != s {
		t.Fatalf("round trip = %+v, want %+v", got, s)
	}
	list := SpansToList([]Span{s})
	back := SpansFromList(list)
	if len(back) != 1 || back[0] != s {
		t.Fatalf("list round trip = %+v", back)
	}
	// Malformed entries drop silently.
	if got := SpansFromList(wire.List{"junk", wire.Record{}}); len(got) != 0 {
		t.Fatalf("malformed entries kept: %v", got)
	}
}

func TestFormatForest(t *testing.T) {
	c, fake := newTestCollector("a", 1)
	var draws atomic.Uint64
	top := root(c, &draws, "get")
	fake.Advance(time.Millisecond)
	send := child(c, top.Context(), KindSend, "get")
	c.Event(send.Context(), KindRetransmit, "get")
	end(c, send)
	end(c, top)
	end(c, root(c, &draws, "put"))

	out := FormatForest(c.Snapshot())
	if strings.Count(out, "trace ") != 2 {
		t.Fatalf("want 2 trees:\n%s", out)
	}
	// The retransmit event renders indented two levels under the root.
	if !strings.Contains(out, "      rpc.retransmit get@a") {
		t.Fatalf("retransmit not nested under send:\n%s", out)
	}
	if out != FormatForest(c.Snapshot()) {
		t.Fatal("formatting is not deterministic")
	}
	if FormatForest(nil) != "" {
		t.Fatal("empty forest not empty")
	}
	// An orphan (parent evicted) is promoted to a root, not dropped.
	orphan := []Span{{TraceID: 5, SpanID: 6, ParentID: 99, Kind: KindDispatch, Name: "x", Node: "b", Start: epoch, End: epoch}}
	if !strings.Contains(FormatForest(orphan), "rpc.dispatch x@b") {
		t.Fatal("orphan span dropped")
	}
}
