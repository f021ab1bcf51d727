package obs

import (
	"sync"
	"testing"
	"time"

	"odp/internal/clock"
)

// countingSource is a metrics stand-in whose counter and histogram
// advance under the caller's control.
type countingSource struct {
	mu sync.Mutex
	n  uint64
	f  float64
	h  HistogramSnapshot
}

func (s *countingSource) add(n uint64) {
	s.mu.Lock()
	s.n += n
	s.mu.Unlock()
}

// observe adds n observations to bucket i of the source's histogram.
func (s *countingSource) observe(i int, n uint64) {
	s.mu.Lock()
	s.h.Buckets[i] += n
	s.mu.Unlock()
}

func (s *countingSource) metrics() *Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := NewMetrics()
	m.Counters["rpc.client.sent"] = s.n
	m.Gauges["dispatch_p99"] = s.f
	m.Latency["rpc.server.dispatch"] = s.h
	return m
}

// pass steps the fake clock one interval and runs one sampling pass by
// hand, as the sampler goroutine does when its timer fires.
func pass(fc *clock.Fake, r *Recorder, interval time.Duration) {
	fc.Advance(interval)
	r.sample()
}

func TestRecorderSamplesOnClock(t *testing.T) {
	fc := clock.NewFake(epoch)
	src := &countingSource{}
	r := NewRecorder(src.metrics, time.Second, fc, nil, nil)

	if got := r.Series()["series.samples"]; got != uint64(0) {
		t.Fatalf("samples before any interval: %v", got)
	}
	src.add(10)
	pass(fc, r, time.Second)
	src.add(5)
	pass(fc, r, time.Second)

	if got := r.prev.At; !got.Equal(epoch.Add(time.Second)) {
		t.Fatalf("first sample at %v", got)
	}
	if got := r.cur.Metrics.Counters["rpc.client.sent"]; got != uint64(15) {
		t.Fatalf("second sample counter = %v", got)
	}

	// The recorder keeps the two newest samples.
	for i := 0; i < 5; i++ {
		src.add(1)
		pass(fc, r, time.Second)
	}
	if !r.prev.At.Equal(epoch.Add(6*time.Second)) || !r.cur.At.Equal(epoch.Add(7*time.Second)) {
		t.Fatalf("held samples at %v and %v, want the 6th and 7th", r.prev.At, r.cur.At)
	}
	if got := r.prev.Metrics.Counters["rpc.client.sent"]; got != uint64(19) {
		t.Fatalf("previous sample counter = %v, want 19", got)
	}
	if got := r.Series()["series.samples"]; got != uint64(2) {
		t.Fatalf("series.samples = %v, want 2", got)
	}
}

func TestRecorderSeriesRates(t *testing.T) {
	fc := clock.NewFake(epoch)
	src := &countingSource{f: 7.5}
	r := NewRecorder(src.metrics, 2*time.Second, fc, nil, nil)

	s := r.Series()
	if got := s["series.samples"]; got != uint64(0) {
		t.Fatalf("samples before start = %v", got)
	}
	if got := s["series.interval_us"]; got != uint64(2000000) {
		t.Fatalf("interval_us = %v", got)
	}

	src.add(4)
	src.observe(3, 2)
	pass(fc, r, 2*time.Second)
	s = r.Series()
	if got := s["series.samples"]; got != uint64(1) {
		t.Fatalf("samples after one pass = %v", got)
	}
	if _, ok := s["rpc.client.sent_per_sec"]; ok {
		t.Fatalf("rated from one sample: %v", s)
	}
	src.add(10)
	src.observe(3, 1)
	src.observe(5, 5)
	pass(fc, r, 2*time.Second)

	s = r.Series()
	if got := s["series.window_us"]; got != uint64(2000000) {
		t.Fatalf("window_us = %v", got)
	}
	if got := s["rpc.client.sent_per_sec"]; got != 5.0 {
		t.Fatalf("rate = %v, want 5 (10 more over 2s)", got)
	}
	if got := s["rpc.server.dispatch_count_per_sec"]; got != 3.0 {
		t.Fatalf("histogram count rate = %v, want 3 (6 more over 2s)", got)
	}
	if _, ok := s["dispatch_p99_per_sec"]; ok {
		t.Fatalf("float gauge was rated: %v", s)
	}
	for _, k := range []string{"rpc.server.dispatch_p99_per_sec", "rpc.server.dispatch_hist.3_per_sec", "rpc.server.dispatch_hist.5_per_sec"} {
		if _, ok := s[k]; ok {
			t.Fatalf("%s: a quantile or bucket was rated: %v", k, s)
		}
	}
	if len(s) != 6 {
		t.Fatalf("series has %d keys, want 4 meta keys and 2 rates: %v", len(s), s)
	}
}

// A counter whose name merely contains the bucket infix is a counter:
// a Managed prefix "db_hist.2" counts calls under this name.
func TestRecorderRatesCounterNamedLikeABucket(t *testing.T) {
	fc := clock.NewFake(epoch)
	var calls uint64
	r := NewRecorder(func() *Metrics {
		m := NewMetrics()
		m.Counters["registry.c.db_hist.2.calls"] = calls
		return m
	}, time.Second, fc, nil, nil)
	pass(fc, r, time.Second)
	calls = 7
	pass(fc, r, time.Second)
	if got := r.Series()["registry.c.db_hist.2.calls_per_sec"]; got != 7.0 {
		t.Fatalf("registry.c.db_hist.2.calls_per_sec = %v, want 7", got)
	}
}

func TestBreachDelta(t *testing.T) {
	prev := &Metrics{
		Counters: map[string]uint64{"a": 10, "b": 3, "gone": 1, "down": 9},
		Gauges:   map[string]float64{"f": 1.5},
		Latency:  map[string]HistogramSnapshot{"h": {Buckets: [HistogramBuckets]uint64{2: 4, 6: 1}}},
	}
	cur := &Metrics{
		Counters: map[string]uint64{"a": 15, "b": 3, "new": 2, "down": 7},
		Gauges:   map[string]float64{"f": 9.5},
		Latency: map[string]HistogramSnapshot{
			"h":     {Buckets: [HistogramBuckets]uint64{2: 4, 4: 3}},
			"fresh": {Buckets: [HistogramBuckets]uint64{0: 1}},
			"idle":  {},
		},
	}
	want := map[string]int64{
		"a": 5, "new": 2, "down": -2,
		"h_hist.4": 3, "h_count": 2,
		"fresh_hist.0": 1, "fresh_count": 1,
	}
	check := func(d map[string]int64, want map[string]int64) {
		t.Helper()
		if len(d) != len(want) {
			t.Fatalf("delta = %v, want %v", d, want)
		}
		for k, v := range want {
			if got, ok := d[k]; !ok || got != v {
				t.Fatalf("delta[%q] = %v, want %v", k, got, v)
			}
		}
	}
	check(delta(prev, cur), want)
	// A first sample's delta is its every non-zero count.
	check(delta(nil, cur), map[string]int64{
		"a": 15, "b": 3, "new": 2, "down": 7,
		"h_hist.2": 4, "h_hist.4": 3, "h_count": 7,
		"fresh_hist.0": 1, "fresh_count": 1,
	})
}

// The one test that waits on the sampler goroutine: its subject is the
// Start/Close loop itself.
func TestRecorderCloseStopsSampling(t *testing.T) {
	fc := clock.NewFake(epoch)
	src := &countingSource{}
	r := NewRecorder(src.metrics, time.Second, fc, nil, nil)
	r.Start()
	deadline := time.Now().Add(5 * time.Second)
	for fc.PendingWaiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sampler never armed its timer")
		}
		time.Sleep(time.Millisecond)
	}
	fc.Advance(time.Second)
	for r.Series()["series.samples"] != uint64(1) {
		if time.Now().After(deadline) {
			t.Fatal("sampler never took its first sample")
		}
		time.Sleep(time.Millisecond)
	}
	r.Close()
	fc.Advance(10 * time.Second)
	if s := r.Series(); s["series.samples"] != uint64(1) || s["series.at"] != epoch.Add(time.Second).UnixNano() {
		t.Fatalf("sampled after Close: %v", s)
	}
	r.Close() // idempotent
}
