package obs

import (
	"strings"
	"sync"
	"time"

	"odp/internal/clock"
	"odp/internal/wire"
)

// Sample is one periodic Gather snapshot with the instant it was taken.
type Sample struct {
	// At is the snapshot instant on the recorder's clock.
	At time.Time
	// Rec is the unified Gather record at that instant.
	Rec wire.Record
}

// Recorder turns the platform's point-in-time Gather snapshot into a
// time series and watches it: every interval it samples the snapshot,
// keeps that sample and the one before it — enough to answer rate
// questions ("how many invocations per second, right now?") that a
// single snapshot cannot — and evaluates its armed rules against the
// pair in the same pass, capturing a BreachReport into a bounded ring on
// a breach. It follows the paper's §7.4 reading of management —
// continuous monitoring of transparency mechanisms, not one-shot
// inspection — and the platform serves it via the management "series"
// and "blackbox" ops.
//
// Ceiling rules are edge-triggered — one report per excursion above the
// ceiling, re-armed when the value recovers — and stall rules re-arm
// after firing, so a persistent anomaly fills the ring with distinct
// excursions instead of one report per sample.
//
// The sampling loop re-arms a one-shot timer after every pass (never a
// free-running ticker), so a simulated platform's quiescence detection
// sees exactly one pending deadline between samples and a seeded run
// snapshots at byte-identical virtual instants.
type Recorder struct {
	src      func() wire.Record
	interval time.Duration
	clk      clock.Clock
	col      *Collector
	rules    []Rule

	mu        sync.Mutex
	prev, cur Sample
	n         int // samples held in prev and cur: 0, 1 or 2
	seq       uint64
	tripped   []bool // ceiling rules: currently above the ceiling
	stallRuns []int  // stall rules: consecutive zero-delta windows
	reports   ring[BreachReport]

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewRecorder creates a recorder sampling src every interval of clk and
// evaluating rules against each sample. col supplies the spans breach
// reports carry; nil (an untraced node) yields span-less reports.
// Nothing runs until Start.
func NewRecorder(src func() wire.Record, interval time.Duration, clk clock.Clock, col *Collector, rules []Rule) *Recorder {
	if interval <= 0 {
		interval = time.Second
	}
	return &Recorder{
		src:       src,
		interval:  interval,
		clk:       clk,
		col:       col,
		rules:     append([]Rule(nil), rules...),
		tripped:   make([]bool, len(rules)),
		stallRuns: make([]int, len(rules)),
		reports:   newRing[BreachReport](flightDepth),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
}

// Start launches the sampling loop. Safe to call once; Close stops it.
func (r *Recorder) Start() {
	r.startOnce.Do(func() { go r.run() })
}

// Close stops the sampling loop and waits for it to exit.
func (r *Recorder) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
}

func (r *Recorder) run() {
	defer close(r.done)
	for {
		t := r.clk.NewTimer(r.interval)
		select {
		case <-r.stop:
			t.Stop()
			return
		case <-t.C():
			r.sample()
		}
	}
}

// sample takes one snapshot and evaluates the rules against it. The
// snapshot is taken before the lock: src reads the recorder's own Stats.
func (r *Recorder) sample() {
	cur := Sample{At: r.clk.Now(), Rec: r.src()}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.prev, r.cur = r.cur, cur
	if r.n < 2 {
		r.n++
	}
	r.checkLocked()
}

// Series renders the recorder's current derived view as one record: for
// every integer counter key of the latest sample, the per-second rate
// over the last window as "<key>_per_sec" (float64), plus the meta keys
// "series.samples" (how many samples the rates come from: 0, 1 or 2),
// "series.interval_us", "series.window_us" and "series.at".
// Histogram bucket keys are skipped (their rates are the quantile keys'
// job). With fewer than two samples only the meta keys appear. This is
// what the management "series" op returns and odptop renders.
func (r *Recorder) Series() wire.Record {
	r.mu.Lock()
	prev, cur, n := r.prev, r.cur, r.n
	r.mu.Unlock()
	out := wire.Record{
		"series.samples":     uint64(n),
		"series.interval_us": uint64(r.interval / time.Microsecond),
	}
	if n == 0 {
		return out
	}
	out["series.at"] = cur.At.UnixNano()
	if n < 2 {
		return out
	}
	window := cur.At.Sub(prev.At)
	out["series.window_us"] = uint64(window / time.Microsecond)
	secs := window.Seconds()
	if secs <= 0 {
		return out
	}
	for k, v := range cur.Rec {
		if strings.Contains(k, histBucketInfix) {
			continue
		}
		c, ok := toInt(v)
		if !ok {
			continue
		}
		p, _ := toInt(prev.Rec[k])
		out[k+"_per_sec"] = float64(c-p) / secs
	}
	return out
}

// DeltaRecord computes the numeric movement between two samples: for
// every integer key of cur, the signed difference against prev; zero
// deltas and non-integer values are dropped so the record names exactly
// what changed in the window. Flight-recorder breach reports carry one.
func DeltaRecord(prev, cur wire.Record) wire.Record {
	out := wire.Record{}
	for k, v := range cur {
		c, ok := toInt(v)
		if !ok {
			continue
		}
		p, _ := toInt(prev[k])
		if d := c - p; d != 0 {
			out[k] = d
		}
	}
	return out
}

// toInt widens an integer-kind wire value to int64. Floats are
// deliberately excluded: derived gauges and quantiles are not counters,
// and rating them would manufacture nonsense like p99_per_sec.
func toInt(v interface{}) (int64, bool) {
	switch n := v.(type) {
	case uint64:
		return int64(n), true
	case int64:
		return n, true
	case int:
		return int64(n), true
	}
	return 0, false
}
