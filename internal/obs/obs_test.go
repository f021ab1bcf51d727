package obs

import (
	"context"
	"strconv"
	"strings"
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

func TestNilCollectorIsFree(t *testing.T) {
	var c *Collector
	sp := c.Begin(KindStub, "op")
	if sp != nil {
		t.Fatal("nil collector began a span")
	}
	c.End(sp)
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
	root := c.Begin(KindStub, "get")
	if root == nil {
		t.Fatal("sampled root is nil")
	}
	if root.TraceID != root.SpanID || root.TraceID == 0 {
		t.Fatalf("root ids: trace=%x span=%x", root.TraceID, root.SpanID)
	}
	fake.Advance(time.Millisecond)
	child := c.BeginChild(root.Context(), KindSend, "get")
	if child.TraceID != root.TraceID || child.ParentID != root.SpanID {
		t.Fatalf("child not under root: %+v", child)
	}
	c.Event(child.Context(), KindRetransmit, "get")
	fake.Advance(time.Millisecond)
	c.End(child)
	c.End(root)

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
	var sampled int
	for i := 0; i < 9; i++ {
		if sp := c.Begin(KindStub, "op"); sp != nil {
			sampled++
			c.End(sp)
		}
	}
	if sampled != 3 {
		t.Fatalf("sampled %d of 9 with every=3", sampled)
	}
	c.SetSampleEvery(0)
	if sp := c.Begin(KindStub, "op"); sp != nil {
		t.Fatal("began a span with sampling off")
	}
	if c.BeginChild(SpanContext{}, KindSend, "op") != nil {
		t.Fatal("began a child under an invalid parent")
	}
}

func TestRingEviction(t *testing.T) {
	c, _ := newTestCollector("node-a", 1)
	for i := 0; i < ringSize+2; i++ {
		c.End(c.Begin(KindStub, strconv.Itoa(i)))
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
	if sp := c.Begin(KindStub, "unsampled"); sp != nil || c.ring != nil {
		t.Fatalf("unsampled root: span %v, ring of %d", sp, len(c.ring))
	}
	if got := c.Snapshot(); len(got) != 0 {
		t.Fatalf("snapshot of an empty collector: %v", got)
	}
	c.SetSampleEvery(1)
	c.End(c.Begin(KindStub, "first"))
	if len(c.ring) != ringSize || len(c.Snapshot()) != 1 {
		t.Fatalf("after the first span: ring of %d, %d retained", len(c.ring), len(c.Snapshot()))
	}
}

func TestDeterministicIDs(t *testing.T) {
	run := func() []Span {
		c, _ := newTestCollector("node-a", 1)
		root := c.Begin(KindStub, "op")
		c.End(c.BeginChild(root.Context(), KindSend, "op"))
		c.End(root)
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
	if ca.Begin(KindStub, "op").SpanID == cb.Begin(KindStub, "op").SpanID {
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
	rec := wire.Record{}
	Fold(rec, "rpc.client", fakeStats{Calls: 2, AcksPiggybacked: 5, FramesPerBatch: [3]uint64{1, 0, 4}})
	want := wire.Record{
		"rpc.client.calls":              uint64(2),
		"rpc.client.acks_piggybacked":   uint64(5),
		"rpc.client.frames_per_batch.0": uint64(1),
		"rpc.client.frames_per_batch.1": uint64(0),
		"rpc.client.frames_per_batch.2": uint64(4),
	}
	if !wire.Equal(rec, want) {
		t.Fatalf("fold = %v, want %v", rec, want)
	}
	// Pointer and nil-pointer folding.
	rec2 := wire.Record{}
	Fold(rec2, "x", &fakeStats{Calls: 1})
	if rec2["x.calls"] != uint64(1) {
		t.Fatalf("pointer fold = %v", rec2)
	}
	Fold(rec2, "y", (*fakeStats)(nil))
	Fold(rec2, "z", 42)
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
	root := c.Begin(KindStub, "get")
	fake.Advance(time.Millisecond)
	send := c.BeginChild(root.Context(), KindSend, "get")
	c.Event(send.Context(), KindRetransmit, "get")
	c.End(send)
	c.End(root)
	other := c.Begin(KindStub, "put")
	c.End(other)

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

func TestUnsampledBeginAllocFree(t *testing.T) {
	c, _ := newTestCollector("node-a", 0)
	ctx := context.Background()
	if n := testing.AllocsPerRun(200, func() {
		sp := c.Begin(KindStub, "op")
		if sp != nil {
			ctx = ContextWith(ctx, sp.Context())
		}
		c.End(sp)
		_ = FromContext(ctx)
	}); n != 0 {
		t.Fatalf("unsampled path allocates %v/op", n)
	}
}
