package obs

import (
	"fmt"
	"testing"
	"time"

	"odp/internal/wire"
)

func TestHistogramBucketing(t *testing.T) {
	cases := []struct {
		d      time.Duration
		bucket int
	}{
		{-time.Second, 0}, // clamped, not wrapped
		{0, 0},
		{500 * time.Nanosecond, 0},
		{time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{4 * time.Microsecond, 3},
		{time.Millisecond, 10},
		{time.Second, 20},
		{time.Hour, HistogramBuckets - 1}, // top bucket absorbs
	}
	for _, c := range cases {
		var h Histogram
		h.Observe(c.d)
		s := h.Snapshot()
		if s.Buckets[c.bucket] != 1 {
			t.Fatalf("Observe(%v): bucket %d empty, snapshot %v", c.d, c.bucket, s.Buckets)
		}
		if s.Count() != 1 {
			t.Fatalf("Observe(%v): count %d", c.d, s.Count())
		}
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(time.Millisecond) // must not panic
	if n := h.Snapshot().Count(); n != 0 {
		t.Fatalf("nil histogram count = %d", n)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 90 fast observations at ~2µs, 10 slow at ~1ms.
	for i := 0; i < 90; i++ {
		h.Observe(2 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond)
	}
	s := h.Snapshot()
	if p50 := s.Quantile(0.50); p50 < 1 || p50 > 4 {
		t.Fatalf("p50 = %v, want within the fast bucket [1µs,4µs]", p50)
	}
	if p99 := s.Quantile(0.99); p99 < 512 || p99 > 1024 {
		t.Fatalf("p99 = %v, want within the slow bucket [512µs,1024µs]", p99)
	}
	if q := (HistogramSnapshot{}).Quantile(0.99); q != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", q)
	}
}

func TestHistogramMergeMatchesCombined(t *testing.T) {
	var a, b, both Histogram
	for i := 0; i < 10; i++ {
		a.Observe(time.Microsecond)
		both.Observe(time.Microsecond)
		b.Observe(time.Millisecond)
		both.Observe(time.Millisecond)
	}
	sa := a.Snapshot()
	sa.Merge(b.Snapshot())
	if sa != both.Snapshot() {
		t.Fatalf("merge mismatch: %v vs %v", sa, both.Snapshot())
	}
}

func TestFoldLatencyKeys(t *testing.T) {
	var h Histogram
	h.Observe(2 * time.Microsecond)
	h.Observe(2 * time.Microsecond)
	h.Observe(time.Millisecond)
	rec := wire.Record{}
	FoldLatency(rec, "rpc.server.dispatch", h.Snapshot())
	if got := rec["rpc.server.dispatch_count"]; got != uint64(3) {
		t.Fatalf("count = %v", got)
	}
	if got := rec["rpc.server.dispatch_hist.2"]; got != uint64(2) {
		t.Fatalf("fast bucket = %v", got)
	}
	if got := rec["rpc.server.dispatch_hist.10"]; got != uint64(1) {
		t.Fatalf("slow bucket = %v", got)
	}
	for _, q := range []string{"_p50", "_p90", "_p99"} {
		if _, ok := rec["rpc.server.dispatch"+q].(float64); !ok {
			t.Fatalf("missing quantile %s in %v", q, rec)
		}
	}
	// Zero buckets are not folded: absent means zero, so cross-node sums
	// stay correct without emitting 32 keys per stage.
	if _, ok := rec["rpc.server.dispatch_hist.0"]; ok {
		t.Fatalf("zero bucket folded: %v", rec)
	}

	// An empty histogram folds only its count — no quantile keys to
	// pollute ceilings that treat "missing" as healthy.
	empty := wire.Record{}
	FoldLatency(empty, "x", HistogramSnapshot{})
	if got := empty["x_count"]; got != uint64(0) {
		t.Fatalf("empty count = %v", got)
	}
	if _, ok := empty["x_p99"]; ok {
		t.Fatalf("empty histogram folded quantiles: %v", empty)
	}
}

func TestHistogramKeysRoundTrip(t *testing.T) {
	var h Histogram
	for i := 0; i < 5; i++ {
		h.Observe(time.Duration(1<<i) * time.Microsecond)
	}
	rec := wire.Record{}
	FoldLatency(rec, "binder.resolve", h.Snapshot())
	rec["binder.resolve_hist.not-a-bucket"] = uint64(9) // ignored
	rec["unrelated"] = uint64(7)

	got := HistogramKeys(rec)
	if len(got) != 1 {
		t.Fatalf("bases = %v", got)
	}
	if got["binder.resolve"] != h.Snapshot() {
		t.Fatalf("round trip mismatch: %v vs %v", got["binder.resolve"], h.Snapshot())
	}
}

func TestObserveZeroAllocs(t *testing.T) {
	var h Histogram
	if allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(42 * time.Microsecond)
	}); allocs != 0 {
		t.Fatalf("Observe allocates %v per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		_ = h.Snapshot()
	}); allocs != 0 {
		t.Fatalf("Snapshot allocates %v per run, want 0", allocs)
	}
}

// histArrayStats is one plain counter beside a bucket array, the
// [N]uint64 shape Fold flattens as "<key>.<i>".
type histArrayStats struct {
	Count   uint64
	Buckets [HistogramBuckets]uint64
}

// TestFoldArrayRoundTripsAllCodecs folds an [N]uint64 array field into a
// record and pushes it through every codec the platform speaks —
// binary, text and packed, the packed decode in both copying and alias
// mode — checking the bucket keys survive encode/decode bit-exactly.
// This is the path a remote Gather takes before odptop reassembles the
// histogram.
func TestFoldArrayRoundTripsAllCodecs(t *testing.T) {
	stats := histArrayStats{Count: 6}
	stats.Buckets[0] = 1
	stats.Buckets[7] = 2
	stats.Buckets[HistogramBuckets-1] = 3

	m := NewMetrics()
	Fold(m, "stage", stats)
	rec := wire.Record{}
	m.Export(rec, "")
	if got := rec[fmt.Sprintf("stage.buckets.%d", HistogramBuckets-1)]; got != uint64(3) {
		t.Fatalf("fold missed the top bucket: %v", rec)
	}

	check := func(t *testing.T, got wire.Value) {
		t.Helper()
		dec, ok := got.(wire.Record)
		if !ok {
			t.Fatalf("decoded %T, want wire.Record", got)
		}
		if len(dec) != len(rec) {
			t.Fatalf("decoded %d keys, want %d: %v", len(dec), len(rec), dec)
		}
		for k, v := range rec {
			if dec[k] != v {
				t.Fatalf("key %q = %v after round trip, want %v", k, dec[k], v)
			}
		}
	}

	for _, codec := range []wire.Codec{wire.PackedCodec{}, wire.TextCodec{}} {
		t.Run(codec.Name(), func(t *testing.T) {
			buf, err := codec.Encode(nil, rec)
			if err != nil {
				t.Fatal(err)
			}
			v, rest, err := codec.Decode(buf)
			if err != nil {
				t.Fatal(err)
			}
			if len(rest) != 0 {
				t.Fatalf("%d trailing bytes", len(rest))
			}
			check(t, v)
		})
	}

	t.Run("ansa-packed/1-alias", func(t *testing.T) {
		c := wire.PackedCodec{}
		buf, err := wire.EncodeAll(c, []wire.Value{rec})
		if err != nil {
			t.Fatal(err)
		}
		vs, err := c.DecodeAllAlias(nil, buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) != 1 {
			t.Fatalf("decoded %d values, want 1", len(vs))
		}
		check(t, vs[0])
	})
}
