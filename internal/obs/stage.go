package obs

import (
	"context"
	"sync/atomic"
	"time"

	"odp/internal/clock"
)

// Stage is one step on an invocation's access path — the stub, a binder
// resolve, the bypass, the client's send or announcement, the coalescer's
// flush, the server's dispatch, a woven mechanism — in one
// shape: its kind's span on a sampled call, calls and errors counted on
// every call and, when timed, every call's interval in a histogram. A
// timed stage without a span kind (a Managed prefix, whose interval is
// the dispatch's or the bypass's) keeps only the latest interval. It
// lives by value in its owner, readied by Init. One clock read at each
// end serves span and histogram, and an unsampled pass through an
// untimed stage reads none.
type Stage struct {
	// stats is counted in place with atomic.AddUint64; first, so its
	// words are 64-bit aligned on 32-bit platforms too (last, a 64-bit
	// atomic, aligns the stage).
	stats StageStats
	kind  string // span kind; "" opens no span
	col   *Collector
	clk   clock.Clock
	timed bool
	// client marks a step on the caller's side — stub, resolve, bypass,
	// send, announce — which runs under the span its caller's ctx
	// carries; the dispatch and the woven mechanisms run under the one
	// the invocation brings.
	client bool
	// root marks a kind that roots a trace where its pass finds none to
	// join — the stub, the coalescer's flush; it draws one in n of its
	// own passes from draws, so no root kind takes another's decisions.
	root  bool
	draws atomic.Uint64
	// active is traced or timed: an inactive stage's pass is a counter
	// add, inlined at its call sites.
	active bool
	// binned is timed with a kind: every interval goes to the histogram,
	// whose count is the calls.
	binned bool
	hist   Histogram
	last   atomic.Int64 // the latest interval, µs, of a stage without a histogram
}

// StageStats counts the passes through a stage.
type StageStats struct{ Calls, Errors uint64 }

// Step is one pass through a stage, from Begin to the End it must reach
// on every path.
type Step struct {
	// At is the instant the pass began: Begin's, or read by a timed or
	// sampled stage; zero otherwise.
	At time.Time
	// Span is what the pass's inner layers run under: its own span's
	// context when it opened one, the parent's otherwise.
	Span SpanContext
	sp   *Span
}

// Init readies s as a stage of kind on a node that records spans into
// col (nil: untraced) on the clock clk.
func (s *Stage) Init(kind string, col *Collector, clk clock.Clock, timed bool) {
	s.kind, s.col, s.clk, s.timed = kind, col, clk, timed
	s.client = kind == KindStub || kind == KindResolve || kind == KindBypass || kind == KindSend || kind == KindAnnounce
	s.root = kind == KindStub || kind == KindFlush
	s.active = col != nil || timed
	s.binned = timed && kind != ""
}

// Begin opens a pass named name under parent — for a client-side stage,
// under the span ctx carries — at the instant at (zero: read when
// needed). On a sampled call it opens the stage's span and returns ctx
// carrying it, for nested invocations to join; only a root kind — the
// stub, the flush — roots a trace, and only when it is given none.
func (s *Stage) Begin(ctx context.Context, parent SpanContext, name string, at time.Time) (context.Context, Step) {
	st := Step{At: at, Span: parent}
	if s.active {
		ctx = s.begin(ctx, &st, name)
	}
	return ctx, st
}

func (s *Stage) begin(ctx context.Context, st *Step, name string) context.Context {
	if s.client && s.col != nil {
		st.Span = FromContext(ctx)
	}
	if s.col != nil && s.kind != "" && st.Span.Valid() != s.root {
		if st.sp = s.col.mint(st.Span, s.kind, name, st.At, &s.draws); st.sp != nil {
			st.At, st.Span = st.sp.Start, st.sp.Context()
			ctx = ContextWith(ctx, st.Span)
		}
	}
	if s.timed && st.At.IsZero() {
		st.At = s.clk.Now()
	}
	return ctx
}

// End closes the pass st, which returned err, and returns the instant it
// read: At plus the interval without a span, zero when it read none. One
// read ends span and interval, Since's without a span. Errors land before
// calls, so a reader that sees a call sees its error and its interval.
func (s *Stage) End(st Step, err error) time.Time {
	if !s.active && err == nil {
		atomic.AddUint64(&s.stats.Calls, 1)
		return time.Time{}
	}
	return s.end(st, err)
}

func (s *Stage) end(st Step, err error) (end time.Time) {
	if err != nil {
		atomic.AddUint64(&s.stats.Errors, 1)
	}
	var d time.Duration
	if st.sp != nil {
		end = s.clk.Now()
		d = end.Sub(st.At)
		s.col.endAt(st.sp, end)
	} else if s.timed {
		d = s.clk.Since(st.At)
		end = st.At.Add(d)
	}
	if s.binned {
		s.hist.Observe(d)
		return end
	}
	if s.timed {
		s.last.Store(d.Microseconds())
	}
	atomic.AddUint64(&s.stats.Calls, 1)
	return end
}

// Stats returns a snapshot of the stage's counters.
func (s *Stage) Stats() StageStats {
	var calls uint64
	if s.binned {
		calls = s.hist.Snapshot().Count()
	}
	st := Load(&s.stats)
	if s.binned {
		st.Calls = calls
	}
	return st
}

// Latency snapshots a timed stage's histogram (empty without a kind).
func (s *Stage) Latency() HistogramSnapshot { return s.hist.Snapshot() }

// LastUs is the latest interval in microseconds of a timed stage without
// a kind.
func (s *Stage) LastUs() int64 { return s.last.Load() }
