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

// advance waits for the sampling goroutine to arm its next timer, steps
// the fake clock one interval, and yields until want samples are
// committed. The arm-wait serialises test and sampler: a timer armed
// after Advance would wait for the next one.
func advance(t *testing.T, fc *clock.Fake, r *Recorder, interval time.Duration, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for fc.PendingWaiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sampler never armed its timer")
		}
		time.Sleep(time.Millisecond)
	}
	fc.Advance(interval)
	for {
		r.mu.Lock()
		n := r.count
		r.mu.Unlock()
		if n >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("sampler committed %d samples, want %d", n, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRecorderSamplesOnClock(t *testing.T) {
	fc := clock.NewFake(epoch)
	src := &countingSource{}
	r := NewRecorder(src.rec, time.Second, WithRecorderClock(fc))
	r.Start()
	defer r.Close()

	if n := len(r.Samples()); n != 0 {
		t.Fatalf("samples before any interval: %d", n)
	}
	src.add(10)
	advance(t, fc, r, time.Second, 1)
	src.add(5)
	advance(t, fc, r, time.Second, 2)

	samples := r.Samples()
	if len(samples) != 2 {
		t.Fatalf("samples = %d, want 2", len(samples))
	}
	if got := samples[0].At; !got.Equal(epoch.Add(time.Second)) {
		t.Fatalf("first sample at %v", got)
	}
	if got := samples[1].Rec["rpc.client.sent"]; got != uint64(15) {
		t.Fatalf("second sample counter = %v", got)
	}

	// The ring keeps the newest recorderDepth samples.
	for i := 0; i < recorderDepth; i++ {
		advance(t, fc, r, time.Second, min(3+i, recorderDepth))
	}
	samples = r.Samples()
	if len(samples) != recorderDepth {
		t.Fatalf("ring holds %d, want depth %d", len(samples), recorderDepth)
	}
	for i := 1; i < len(samples); i++ {
		if !samples[i].At.After(samples[i-1].At) {
			t.Fatalf("samples out of order: %v", samples)
		}
	}
}

func TestRecorderSeriesRates(t *testing.T) {
	fc := clock.NewFake(epoch)
	src := &countingSource{f: 7.5}
	r := NewRecorder(src.rec, 2*time.Second, WithRecorderClock(fc))
	r.Start()
	defer r.Close()

	s := r.Series()
	if got := s["series.samples"]; got != uint64(0) {
		t.Fatalf("samples before start = %v", got)
	}
	if got := s["series.interval_us"]; got != uint64(2000000) {
		t.Fatalf("interval_us = %v", got)
	}

	src.add(4)
	advance(t, fc, r, 2*time.Second, 1)
	src.add(10)
	advance(t, fc, r, 2*time.Second, 2)

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

func TestRecorderCloseStopsSampling(t *testing.T) {
	fc := clock.NewFake(epoch)
	src := &countingSource{}
	r := NewRecorder(src.rec, time.Second, WithRecorderClock(fc))
	r.Start()
	advance(t, fc, r, time.Second, 1)
	r.Close()
	n := len(r.Samples())
	fc.Advance(10 * time.Second)
	if got := len(r.Samples()); got != n {
		t.Fatalf("samples after Close: %d, want %d", got, n)
	}
	r.Close() // idempotent
}
