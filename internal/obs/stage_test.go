package obs

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"odp/internal/clock"
)

// readCounter counts the reads of the fake clock it wraps.
type readCounter struct {
	*clock.Fake
	reads atomic.Int64
}

func (c *readCounter) Now() time.Time {
	c.reads.Add(1)
	return c.Fake.Now()
}

func (c *readCounter) Since(t time.Time) time.Duration {
	c.reads.Add(1)
	return c.Fake.Since(t)
}

// TestStageCountsConcurrently drives a stage from 64 goroutines: its
// counters count every pass and every error exactly, kept as counters
// (a Managed prefix's stage) or as its histogram's count (a timed kind).
func TestStageCountsConcurrently(t *testing.T) {
	const workers, perWorker = 64, 200
	for _, kind := range []string{"", KindDispatch} {
		var s Stage
		s.Init(kind, nil, clock.Real{}, true)
		boom := errors.New("boom")
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					var err error
					if (w+i)%4 == 0 {
						err = boom
					}
					_, st := s.Begin(context.Background(), SpanContext{}, "work", time.Time{})
					s.End(st, err)
				}
			}(w)
		}
		wg.Wait()
		if got := s.Stats(); got.Calls != workers*perWorker || got.Errors != workers*perWorker/4 {
			t.Fatalf("kind %q: stats %+v, want %d calls and %d errors", kind, got, workers*perWorker, workers*perWorker/4)
		}
	}
}

// TestStageReadsTheClockOncePerEnd: a pass reads the clock where a span
// or the histogram needs an instant, and one read serves both — none to
// begin where it is given an instant; the stub roots a trace and no other
// kind does; a timed kind keeps every interval in its histogram, a timed
// stage without a kind the latest. End returns the instant it read — the
// span's end, or the start plus the interval — and zero when it read
// none.
func TestStageReadsTheClockOncePerEnd(t *testing.T) {
	parent := SpanContext{TraceID: 7, SpanID: 9}
	for _, tc := range []struct {
		name      string
		kind      string
		timed     bool
		every     uint64 // the collector's sampling; 0: untraced node
		parent    SpanContext
		at        time.Time
		reads     int64
		span      bool
		histogram bool
	}{
		{name: "untimed, unsampled", kind: KindGuard, every: 1, reads: 0},
		{name: "untimed, sampled", kind: KindGuard, every: 1, parent: parent, reads: 2, span: true},
		{name: "timed, untraced", kind: KindDispatch, timed: true, reads: 2, histogram: true},
		{name: "timed, sampled", kind: KindDispatch, timed: true, every: 1, parent: parent, reads: 2, span: true, histogram: true},
		{name: "timed from a given instant, no kind", timed: true, at: epoch, reads: 1},
		{name: "timed from a given instant", kind: KindDispatch, timed: true, at: epoch, reads: 1, histogram: true},
		{name: "timed from a given instant, sampled", kind: KindDispatch, timed: true, every: 1, parent: parent, at: epoch, reads: 1, span: true, histogram: true},
		{name: "stub roots", kind: KindStub, every: 1, reads: 2, span: true},
		{name: "nested stub joins", kind: KindStub, every: 1, parent: parent, reads: 0},
		{name: "stub on an untraced node", kind: KindStub, reads: 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := &readCounter{Fake: clock.NewFake(epoch)}
			var col *Collector
			if tc.every > 0 {
				col = NewCollector("n", clk, WithSampleEvery(tc.every))
			}
			var s Stage
			s.Init(tc.kind, col, clk, tc.timed)
			// The stub finds its parent in ctx; the others are handed it.
			in := ContextWith(context.Background(), tc.parent)
			ctx, st := s.Begin(in, tc.parent, "op", tc.at)
			clk.Advance(3 * time.Millisecond)
			end := s.End(st, nil)
			if got := clk.reads.Load(); got != tc.reads {
				t.Errorf("read the clock %d times, want %d", got, tc.reads)
			}
			want := time.Time{}
			if tc.timed || tc.span {
				want = epoch.Add(3 * time.Millisecond)
			}
			if !end.Equal(want) {
				t.Errorf("End returned %v, want %v", end, want)
			}
			spans := col.Snapshot()
			if got := len(spans) == 1; got != tc.span {
				t.Fatalf("spans %v, want a span: %v", spans, tc.span)
			}
			if tc.span {
				sp := spans[0]
				if sp.Kind != tc.kind || sp.ParentID != tc.parent.SpanID || sp.Duration() != 3*time.Millisecond {
					t.Errorf("span %+v, want %s under %x lasting 3ms", sp, tc.kind, tc.parent.SpanID)
				}
				if FromContext(ctx) != st.Span || st.Span.SpanID != sp.SpanID {
					t.Errorf("ctx carries %+v and the step %+v, want span %x", FromContext(ctx), st.Span, sp.SpanID)
				}
			} else if st.Span != tc.parent || ctx != in {
				t.Errorf("a pass without a span hands on %+v and a new ctx, want its parent and ctx as it came", st.Span)
			}
			if got := s.Latency().Count() == 1; got != tc.histogram {
				t.Errorf("histogram holds %d passes", s.Latency().Count())
			}
			if last := tc.timed && !tc.histogram; last != (s.LastUs() == 3000) {
				t.Errorf("last interval %dµs, want 3000: %v", s.LastUs(), last)
			}
			if n := s.Stats(); n.Calls != 1 || n.Errors != 0 {
				t.Errorf("stats %+v, want one call", n)
			}
		})
	}
}

// TestRootStagesDrawTheirOwnSamples: a stub and a flush on one
// collector sampling one in 2, their passes interleaved, each root one
// in 2 of their own passes; the collector counts every decision.
func TestRootStagesDrawTheirOwnSamples(t *testing.T) {
	col, clk := newTestCollector("n", 2)
	var stub, flush Stage
	stub.Init(KindStub, col, clk, false)
	flush.Init(KindFlush, col, clk, false)
	for i := 0; i < 4; i++ {
		for _, s := range []*Stage{&stub, &flush} {
			_, st := s.Begin(context.Background(), SpanContext{}, "op", time.Time{})
			s.End(st, nil)
		}
	}
	roots := map[string]int{}
	for _, sp := range col.Snapshot() {
		roots[sp.Kind]++
	}
	if roots[KindStub] != 2 || roots[KindFlush] != 2 || len(roots) != 2 {
		t.Errorf("roots %v, want 2 stubs and 2 flushes of 4 passes each", roots)
	}
	if st := col.Stats(); st.Roots != 8 || st.Sampled != 4 {
		t.Errorf("collector stats %+v, want 8 decisions and 4 sampled", st)
	}
}

// TestUnsampledStageAllocFree: an unsampled pass through a stage on a
// traced node allocates nothing.
func TestUnsampledStageAllocFree(t *testing.T) {
	col, clk := newTestCollector("n", 1)
	var s Stage
	s.Init(KindGuard, col, clk, false)
	ctx := context.Background()
	if n := testing.AllocsPerRun(100, func() {
		_, st := s.Begin(ctx, SpanContext{}, "op", time.Time{})
		s.End(st, nil)
	}); n != 0 {
		t.Fatalf("an unsampled pass allocates %.1f", n)
	}
}
