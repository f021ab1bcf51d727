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
// time series: a clock-driven ring of periodic samples deep enough to
// answer delta and rate questions ("how many invocations per second,
// right now?") that a single snapshot cannot. It follows the paper's
// §7.4 reading of management — continuous monitoring of transparency
// mechanisms, not one-shot inspection — and the platform serves it via
// the management "series" op.
//
// The sampling loop re-arms a one-shot timer after every pass (never a
// free-running ticker), so a simulated platform's quiescence detection
// sees exactly one pending deadline between samples and a seeded run
// snapshots at byte-identical virtual instants.
type Recorder struct {
	src      func() wire.Record
	interval time.Duration
	clk      clock.Clock

	mu    sync.Mutex
	ring  []Sample // recorderDepth samples
	pos   int
	count int
	hooks []func(prev, cur Sample, hasPrev bool)

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// recorderDepth is how many samples the ring retains: it bounds the
// retained-sample footprint per node.
const recorderDepth = 64

// NewRecorder creates a recorder sampling src every interval of clk.
// Nothing runs until Start; attach observers (the flight recorder) first.
func NewRecorder(src func() wire.Record, interval time.Duration, clk clock.Clock) *Recorder {
	if interval <= 0 {
		interval = time.Second
	}
	return &Recorder{
		src:      src,
		interval: interval,
		clk:      clk,
		ring:     make([]Sample, recorderDepth),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// OnSample registers fn to run after each sample is committed, with the
// previous sample when one exists. Hooks run on the sampling goroutine,
// outside the recorder's lock.
func (r *Recorder) OnSample(fn func(prev, cur Sample, hasPrev bool)) {
	r.mu.Lock()
	r.hooks = append(r.hooks, fn)
	r.mu.Unlock()
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

// sample takes one snapshot, commits it and runs the hooks.
func (r *Recorder) sample() {
	cur := Sample{At: r.clk.Now(), Rec: r.src()}
	r.mu.Lock()
	var prev Sample
	hasPrev := r.count > 0
	if hasPrev {
		last := r.pos - 1
		if last < 0 {
			last += len(r.ring)
		}
		prev = r.ring[last]
	}
	r.ring[r.pos] = cur
	r.pos++
	if r.pos == len(r.ring) {
		r.pos = 0
	}
	if r.count < len(r.ring) {
		r.count++
	}
	hooks := r.hooks
	r.mu.Unlock()
	for _, fn := range hooks {
		fn(prev, cur, hasPrev)
	}
}

// Samples returns the retained samples, oldest first.
func (r *Recorder) Samples() []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Sample, 0, r.count)
	start := r.pos - r.count
	if start < 0 {
		start += len(r.ring)
	}
	for i := 0; i < r.count; i++ {
		out = append(out, r.ring[(start+i)%len(r.ring)])
	}
	return out
}

// last2 returns the two most recent samples under the lock.
func (r *Recorder) last2() (prev, cur Sample, n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n = r.count
	if n == 0 {
		return
	}
	i := r.pos - 1
	if i < 0 {
		i += len(r.ring)
	}
	cur = r.ring[i]
	if n > 1 {
		i--
		if i < 0 {
			i += len(r.ring)
		}
		prev = r.ring[i]
	}
	return
}

// Series renders the recorder's current derived view as one record: for
// every integer counter key of the latest sample, the per-second rate
// over the last window as "<key>_per_sec" (float64), plus the
// "series.samples", "series.window_us" and "series.at" meta keys.
// Histogram bucket keys are skipped (their rates are the quantile keys'
// job). With fewer than two samples only the meta keys appear. This is
// what the management "series" op returns and odptop renders.
func (r *Recorder) Series() wire.Record {
	prev, cur, n := r.last2()
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
