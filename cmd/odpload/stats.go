package main

import (
	"math"
	"slices"
)

// quartiles returns the three quartiles of xs the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so the
// spreads printed here are the ones the benchmark contract computes.
// xs must hold at least two values; with fewer all three are the one
// value (or 0).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	switch len(xs) {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// summary is a metric's value over its samples, the distance between
// their first and third quartile, and how many there were.
type summary struct {
	Value float64 `json:"value"`
	IQR   float64 `json:"iqr"`
	N     int     `json:"n"`
}

// summarize reports the median of xs.
func summarize(xs []float64) summary {
	q1, q2, q3 := quartiles(xs)
	return summary{Value: q2, IQR: q3 - q1, N: len(xs)}
}

// summarizeSlices reports the slices' mean after dropping the highest
// and the lowest tenth of them. Slices fall into regimes — seconds
// during which a tenth of all calls are half as slow again, then
// seconds during which none are — and a statistic that sits on an edge
// of the latency distribution, as the 99th percentile does, takes one
// of two values accordingly. Their median is then whichever regime had
// the majority, a coin toss from run to run; their mean moves with the
// mix. The trimming keeps a few wild slices (a host hiccup) out of it.
func summarizeSlices(xs []float64) summary {
	s := summarize(xs)
	s.Value = trimmedMean(xs, 0.10)
	return s
}

// trimmedMean is the mean of xs without its ⌊trim·n⌋ highest and lowest
// values (0 when xs is empty).
func trimmedMean(xs []float64, trim float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := int(trim * float64(len(s)))
	s = s[k : len(s)-k]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// spread is the IQR as a share of the value; 0 when the value is 0.
func (s summary) spread() float64 {
	if s.Value == 0 {
		return 0
	}
	return math.Abs(s.IQR / s.Value)
}

// supportsPercentile reports whether n samples leave at least ten
// beyond percentile p (0 < p < 1): a tail figure with fewer samples
// behind it is one or two outliers, not a percentile.
func supportsPercentile(n int, p float64) bool {
	return float64(n)*(1-p) >= 10
}

// percentileSorted returns the nearest-rank percentile p of an ascending
// sample; sorted must not be empty.
func percentileSorted(sorted []int64, p float64) int64 {
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// The tail figure of a slice is the mean of its latencies between these
// two percentiles: the last hundredth below the 99th percentile, so one
// call in a hundred still lies beyond it. The order statistic itself is
// not steady on this kind of host. On loop_serial a timer tick stalls
// the one CPU for 15–25 µs two or three times a millisecond, which at
// 5 µs a call is 1.0–1.6 % of all calls: the 98.5th percentile is an
// undisturbed call (9 µs), the 99.3rd one that met a tick (17 µs), and
// the 99th is either, slice by slice. On tcp_announce the 99th is where
// waking the flusher's thread begins to show (0.6–4 µs against a median
// of 0.26). Over six runs of each, the coefficient of variation of the
// run's value was 13 % and 16 % for the order statistic, 11 % and 5 %
// for this band; a band centred on the 99th percentile was worse than
// either (16 % and 20 %).
const (
	p99BandLo = 0.98
	p99BandHi = 0.99
)

// bandMeanSorted is the mean of the ascending sample's order statistics
// from percentile lo up to percentile hi, both by nearest rank; sorted
// must not be empty.
func bandMeanSorted(sorted []int64, lo, hi float64) int64 {
	i := int(math.Ceil(lo*float64(len(sorted)))) - 1
	j := int(math.Ceil(hi*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if j < i {
		j = i
	}
	var sum int64
	for _, x := range sorted[i : j+1] {
		sum += x
	}
	return sum / int64(j-i+1)
}

// pairedDiff returns, sample by sample, upper[i]-lower[i]: the time the
// upper rung spends beyond the rung below it within one ladder
// iteration. The result may be negative — a rung measured faster than
// the one beneath it is reported as such, never clamped.
func pairedDiff(upper, lower []int32) []float64 {
	n := len(upper)
	if len(lower) < n {
		n = len(lower)
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = float64(upper[i]) - float64(lower[i])
	}
	return out
}

// median of float64 samples (0 when empty).
func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

func toFloats(xs []int32) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
