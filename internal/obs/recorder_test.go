package obs

import (
	"sync"
	"testing"
	"time"

	"odp/internal/clock"
	"odp/internal/wire"
)

// countingSource is a Gather stand-in whose counter advances under the
// caller's control.
type countingSource struct {
	mu sync.Mutex
	n  uint64
	f  float64
}

func (s *countingSource) add(n uint64) {
	s.mu.Lock()
	s.n += n
	s.mu.Unlock()
}

func (s *countingSource) rec() wire.Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return wire.Record{
		"rpc.client.sent": s.n,
		"dispatch_p99":    s.f,
		"name":            "node", // non-numeric, never rated
	}
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
	r := NewRecorder(src.rec, time.Second, fc, nil, nil)

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
	if got := r.cur.Rec["rpc.client.sent"]; got != uint64(15) {
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
	if got := r.prev.Rec["rpc.client.sent"]; got != uint64(19) {
		t.Fatalf("previous sample counter = %v, want 19", got)
	}
	if got := r.Series()["series.samples"]; got != uint64(2) {
		t.Fatalf("series.samples = %v, want 2", got)
	}
}

func TestRecorderSeriesRates(t *testing.T) {
	fc := clock.NewFake(epoch)
	src := &countingSource{f: 7.5}
	r := NewRecorder(src.rec, 2*time.Second, fc, nil, nil)

	s := r.Series()
	if got := s["series.samples"]; got != uint64(0) {
		t.Fatalf("samples before start = %v", got)
	}
	if got := s["series.interval_us"]; got != uint64(2000000) {
		t.Fatalf("interval_us = %v", got)
	}

	src.add(4)
	pass(fc, r, 2*time.Second)
	s = r.Series()
	if got := s["series.samples"]; got != uint64(1) {
		t.Fatalf("samples after one pass = %v", got)
	}
	if _, ok := s["rpc.client.sent_per_sec"]; ok {
		t.Fatalf("rated from one sample: %v", s)
	}
	src.add(10)
	pass(fc, r, 2*time.Second)

	s = r.Series()
	if got := s["series.window_us"]; got != uint64(2000000) {
		t.Fatalf("window_us = %v", got)
	}
	if got := s["rpc.client.sent_per_sec"]; got != 5.0 {
		t.Fatalf("rate = %v, want 5 (10 more over 2s)", got)
	}
	if _, ok := s["dispatch_p99_per_sec"]; ok {
		t.Fatalf("float gauge was rated: %v", s)
	}
	if _, ok := s["name_per_sec"]; ok {
		t.Fatalf("non-numeric key was rated: %v", s)
	}
}

func TestDeltaRecord(t *testing.T) {
	prev := wire.Record{"a": uint64(10), "b": uint64(3), "gone": uint64(1), "f": 1.5}
	cur := wire.Record{"a": uint64(15), "b": uint64(3), "new": uint64(2), "f": 9.5}
	d := DeltaRecord(prev, cur)
	want := wire.Record{"a": int64(5), "new": int64(2)}
	if len(d) != len(want) {
		t.Fatalf("delta = %v, want %v", d, want)
	}
	for k, v := range want {
		if d[k] != v {
			t.Fatalf("delta[%q] = %v, want %v", k, d[k], v)
		}
	}
}

// The one test that waits on the sampler goroutine: its subject is the
// Start/Close loop itself.
func TestRecorderCloseStopsSampling(t *testing.T) {
	fc := clock.NewFake(epoch)
	src := &countingSource{}
	r := NewRecorder(src.rec, time.Second, fc, nil, nil)
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
