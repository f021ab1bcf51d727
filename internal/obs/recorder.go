package obs

import (
	"strconv"
	"sync"
	"time"

	"odp/internal/clock"
	"odp/internal/wire"
)

// Sample is one periodic metrics snapshot with the instant it was taken.
type Sample struct {
	// At is the snapshot instant on the recorder's clock.
	At time.Time
	// Metrics is the node's typed snapshot at that instant.
	Metrics *Metrics
}

// Recorder turns the platform's point-in-time metrics snapshot into a
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
	src      func() *Metrics
	interval time.Duration
	clk      clock.Clock
	col      *Collector
	rules    []Rule

	mu        sync.Mutex
	prev, cur Sample // zero until sampled: Metrics is nil
	seq       uint64
	tripped   []bool // ceiling rules: currently above the ceiling
	stallRuns []int  // stall rules: consecutive zero-delta windows
	reports   ring[BreachReport]

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewRecorder creates a recorder sampling src (a fresh snapshot each
// call, which it keeps) every interval of clk and evaluating rules
// against each sample. col supplies the spans breach reports carry; nil
// (an untraced node) yields span-less reports. Nothing runs until Start.
func NewRecorder(src func() *Metrics, interval time.Duration, clk clock.Clock, col *Collector, rules []Rule) *Recorder {
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
	cur := Sample{At: r.clk.Now(), Metrics: r.src()}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.prev, r.cur = r.cur, cur
	r.checkLocked()
}

// Series renders the recorder's current derived view as one record: for
// every counter and every histogram's "<stage>_count" of the latest
// sample, the per-second rate over the last window as "<key>_per_sec"
// (float64), plus the meta keys "series.samples" (how many samples the
// rates come from: 0, 1 or 2), "series.interval_us", "series.window_us"
// and "series.at". Gauges, quantiles and buckets are not rated. With
// fewer than two samples only the meta keys appear. This is what the
// management "series" op returns and odptop renders.
func (r *Recorder) Series() wire.Record {
	r.mu.Lock()
	prev, cur := r.prev, r.cur
	r.mu.Unlock()
	out := wire.Record{
		"series.samples":     uint64(0),
		"series.interval_us": uint64(r.interval / time.Microsecond),
	}
	if cur.Metrics == nil {
		return out
	}
	out["series.samples"], out["series.at"] = uint64(1), cur.At.UnixNano()
	if prev.Metrics == nil {
		return out
	}
	out["series.samples"] = uint64(2)
	window := cur.At.Sub(prev.At)
	out["series.window_us"] = uint64(window / time.Microsecond)
	secs := window.Seconds()
	if secs <= 0 {
		return out
	}
	rate := func(c, p uint64) float64 { return float64(int64(c-p)) / secs }
	for k, c := range cur.Metrics.Counters {
		out[k+"_per_sec"] = rate(c, prev.Metrics.Counters[k])
	}
	for k, s := range cur.Metrics.Latency {
		out[k+"_count_per_sec"] = rate(s.Count(), prev.Metrics.Latency[k].Count())
	}
	return out
}

// delta is the signed movement of every count of cur since prev (nil:
// none) under its exported name — counters, histogram counts and
// non-zero buckets — with zero movements dropped.
func delta(prev, cur *Metrics) map[string]int64 {
	if prev == nil {
		prev = &Metrics{}
	}
	out := map[string]int64{}
	put := func(k string, c, p uint64) {
		if c != p {
			out[k] = int64(c - p)
		}
	}
	for k, c := range cur.Counters {
		put(k, c, prev.Counters[k])
	}
	for k, s := range cur.Latency {
		p := prev.Latency[k]
		for i, b := range s.Buckets {
			if b != 0 {
				put(k+histBucketInfix+strconv.Itoa(i), b, p.Buckets[i])
			}
		}
		put(k+"_count", s.Count(), p.Count())
	}
	return out
}
