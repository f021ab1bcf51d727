package obs

import (
	"math/bits"
	"strconv"
	"sync/atomic"
	"time"

	"odp/internal/wire"
)

// HistogramBuckets is the fixed bucket count of every latency histogram:
// 32 power-of-two buckets of microseconds, so bucket 0 holds sub-µs
// observations, bucket i holds [2^(i-1), 2^i) µs, and the top bucket
// absorbs everything from ~2^30 µs (≈18 min) up. The range is wide
// enough for any channel stage the platform times and the count small
// enough to live by value inside each layer's hot structs.
const HistogramBuckets = 32

// Histogram is a fixed-size log-bucketed latency histogram for one
// channel stage. It obeys the same hot-path discipline as the span
// collector: recording is one atomic increment into a pre-sized array —
// zero allocations, no locks, no background goroutine — so every
// instrumented stage (client send→reply, server dispatch, the §4.5
// bypass, binder resolve, coalescer flush queue-delay, trader import)
// can record unconditionally. Timestamps are the caller's, taken from
// the node's clock.Clock, so simulated platforms produce
// deterministic virtual-time distributions. The zero value is ready to
// use; a nil *Histogram discards observations.
type Histogram struct {
	buckets [HistogramBuckets]atomic.Uint64
}

// bucketIndex maps a microsecond latency to its bucket.
func bucketIndex(us uint64) int {
	i := bits.Len64(us)
	if i >= HistogramBuckets {
		i = HistogramBuckets - 1
	}
	return i
}

// Observe records one latency sample. Negative durations (a clock
// stepped backwards) count as zero rather than wrapping to the top
// bucket.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.buckets[bucketIndex(uint64(d/time.Microsecond))].Add(1)
}

// Snapshot returns a consistent-enough copy of the bucket counts (each
// bucket is read atomically; concurrent observers may land between
// reads, as with every stats snapshot in the platform).
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram, shaped for
// obs.Fold ([N]uint64 array fields fold as "<key>.<i>") and for
// cross-platform merging: bucket counts from many nodes sum index-wise,
// which is exactly how GatherDomains rolls a federation domain's
// latency distribution up from its members.
type HistogramSnapshot struct {
	// Buckets holds the per-bucket observation counts.
	Buckets [HistogramBuckets]uint64
}

// Count returns the total number of observations.
func (s HistogramSnapshot) Count() uint64 {
	var n uint64
	for _, b := range s.Buckets {
		n += b
	}
	return n
}

// Merge adds o's buckets into s (index-wise sum).
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// Quantile estimates the q-quantile (0 < q <= 1) in microseconds by
// linear interpolation inside the bucket holding the target rank;
// bucket i spans [2^(i-1), 2^i) µs (bucket 0 spans [0, 1)). Returns 0
// for an empty histogram. The estimate is deterministic for a fixed
// bucket array, so simulated runs reproduce quantiles byte-for-byte.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	total := s.Count()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i, b := range s.Buckets {
		if b == 0 {
			continue
		}
		next := cum + float64(b)
		if rank <= next {
			lo, hi := bucketBounds(i)
			frac := (rank - cum) / float64(b)
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	_, hi := bucketBounds(HistogramBuckets - 1)
	return hi
}

// bucketBounds returns bucket i's [lo, hi) range in microseconds.
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 1
	}
	return float64(uint64(1) << (i - 1)), float64(uint64(1) << i)
}

// FoldLatency flattens a histogram snapshot into rec under key: the
// non-zero raw buckets as "<key>_hist.<i>" (uint64, summable across
// platforms — absent buckets are zero), the observation count as
// "<key>_count", and when the histogram is non-empty the derived
// "<key>_p50" / "<key>_p90" / "<key>_p99" quantiles as float64
// microseconds. GatherDomains recognises the "_hist." suffix pattern
// and recomputes the quantile keys from domain-summed buckets, so a
// rollup's p99 is the p99 of the merged distribution, not a meaningless
// sum of per-node quantiles.
func FoldLatency(rec wire.Record, key string, s HistogramSnapshot) {
	var total uint64
	for i, b := range s.Buckets {
		if b == 0 {
			continue
		}
		rec[key+histBucketInfix+strconv.Itoa(i)] = b
		total += b
	}
	rec[key+"_count"] = total
	if total > 0 {
		rec[key+"_p50"] = s.Quantile(0.50)
		rec[key+"_p90"] = s.Quantile(0.90)
		rec[key+"_p99"] = s.Quantile(0.99)
	}
}

// histBucketInfix separates a histogram key base from its bucket index
// in folded records; GatherDomains keys its quantile recomputation on
// it.
const histBucketInfix = "_hist."

// HistogramKeys scans a folded record for "<base>_hist.<i>" bucket keys
// and reassembles the snapshots, keyed by base. Out-of-range indices
// and non-uint64 values are ignored. This is the read-side inverse of
// FoldLatency, used by the domain rollup and by renderers (odptop's
// latency columns).
func HistogramKeys(rec wire.Record) map[string]HistogramSnapshot {
	var out map[string]HistogramSnapshot
	for k, v := range rec {
		base, idx, ok := splitHistKey(k)
		if !ok {
			continue
		}
		n, ok := v.(uint64)
		if !ok {
			continue
		}
		if out == nil {
			out = make(map[string]HistogramSnapshot)
		}
		s := out[base]
		s.Buckets[idx] += n
		out[base] = s
	}
	return out
}

// splitHistKey decomposes "<base>_hist.<i>" into (base, i).
func splitHistKey(k string) (base string, idx int, ok bool) {
	at := len(k) - 1
	for at >= 0 && k[at] >= '0' && k[at] <= '9' {
		at--
	}
	digits := k[at+1:]
	if digits == "" || at < len(histBucketInfix)-1 {
		return "", 0, false
	}
	if k[at+1-len(histBucketInfix):at+1] != histBucketInfix {
		return "", 0, false
	}
	n, err := strconv.Atoi(digits)
	if err != nil || n < 0 || n >= HistogramBuckets {
		return "", 0, false
	}
	return k[:at+1-len(histBucketInfix)], n, true
}
