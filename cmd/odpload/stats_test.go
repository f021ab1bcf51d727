package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns: the contract computes its spreads with it.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, [3]float64{1.25, 3.5, 5.75}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}

func TestSummarizeSlices(t *testing.T) {
	s := summarize([]float64{2.0, 2.2, 2.1, 2.4, 2.3, 2.0, 2.2, 2.1})
	if s.N != 8 || !near(s.Value, 2.15) || !near(s.IQR, 2.275-2.025) {
		t.Fatalf("summarize = %+v", s)
	}
	if got := s.spread(); !near(got, 0.25/2.15) {
		t.Fatalf("spread = %v", got)
	}
	if (summary{}).spread() != 0 {
		t.Fatal("spread of a zero value must be 0")
	}

	// Ten slices, one wild one at either end: the value is the mean of
	// the eight between them, the spread still that of all ten.
	xs := []float64{0.1, 10, 10, 10, 10, 16, 16, 16, 16, 900}
	got := summarizeSlices(xs)
	if !near(got.Value, 13) || got.N != 10 || got.IQR != summarize(xs).IQR {
		t.Fatalf("summarizeSlices = %+v", got)
	}
	if trimmedMean(nil, 0.1) != 0 || trimmedMean([]float64{4}, 0.1) != 4 {
		t.Fatal("trimmedMean of none or one sample")
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{999, 0.99, false},
		{1000, 0.99, true},
		{10000, 0.999, true},
		{9999, 0.999, false},
		{20, 0.50, true},
		{19, 0.50, false},
	} {
		if got := supportsPercentile(c.n, c.p); got != c.want {
			t.Errorf("supportsPercentile(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	// 1000 samples 1..1000: the 99th percentile is 990 and ten lie beyond.
	xs := make([]int64, 1000)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	if got := percentileSorted(xs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %d, want 990", got)
	}
	if got := percentileSorted(xs, 0.50); got != 500 {
		t.Errorf("p50 of 1..1000 = %d, want 500", got)
	}
	// The tail band: ranks 980..990 of 1..1000, ten samples beyond it.
	if got := bandMeanSorted(xs, p99BandLo, p99BandHi); got != 985 {
		t.Errorf("band mean of 1..1000 = %d, want 985", got)
	}
	if supportsPercentile(999, p99BandHi) || !supportsPercentile(1000, p99BandHi) {
		t.Error("the band needs 1000 samples: ten beyond its upper edge")
	}
	if got := bandMeanSorted([]int64{7}, p99BandLo, p99BandHi); got != 7 {
		t.Errorf("band mean of one sample = %d", got)
	}
	if got := refSpread([]float64{14, 10, 11, 12, 13, 20, 15, 16, 17, 18}); !near(got, 1.8) {
		t.Errorf("refSpread = %v, want 18/10", got)
	}
}

// A rung that measures faster than the one below it yields a negative
// self time, and the report keeps it.
func TestPairedDiffKeepsNegatives(t *testing.T) {
	upper := []int32{100, 90, 120, 80}
	lower := []int32{95, 95, 100, 100}
	got := pairedDiff(upper, lower)
	want := []float64{5, -5, 20, -20}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pairedDiff = %v, want %v", got, want)
		}
	}
	if m := median(pairedDiff([]int32{80, 81, 82}, []int32{100, 100, 100})); m != -19 {
		t.Fatalf("median of a faster rung = %v, want -19", m)
	}
}

// The self times, the bottom rung and the residue add up to the core
// rung exactly, whatever the samples are.
func TestLadderSumsToCoreRung(t *testing.T) {
	l := &ladderResult{samples: map[string][]int32{
		rungCore:      {5200, 5600, 5300, 9000, 5250},
		rungNaming:    {5100, 5700, 5200, 5300, 5150}, // faster than core once, slower once
		rungCapsule:   {5000, 5200, 5150, 5100, 5600},
		rungRPC:       {4900, 5000, 5050, 4800, 4950},
		rungTransport: {1500, 1400, 1600, 1450, 1550},
		rungServant:   {20, 21, 20, 22, 20},
		rungBypass:    {150, 160, 155, 150, 152},
		rungWireEnc:   {30, 31, 30, 30, 32},
		rungWireDec:   {40, 41, 40, 42, 40},
		rungRef:       {500, 510, 490, 500, 505},
	}}
	for _, tcp := range []bool{true, false} {
		res := &result{Trace: true, Metrics: map[string]measured{}}
		reportLadder(res, workload{tcp: tcp}, &ladderPlan{wireBytes: 5}, l, 10.5)
		bottom := "netsim.rtt_rel"
		if tcp {
			bottom = "transport.rtt_rel"
		}
		sum := res.Metrics[bottom].Value + res.Metrics["ladder.residue_rel"].Value
		for _, name := range []string{"core", "naming", "capsule", "rpc"} {
			sum += res.Metrics[name+".self_rel"].Value
		}
		core := 5300.0 / 500.0 // median core rung over median reference rung
		if !near(sum, core) {
			t.Errorf("tcp=%v: layers sum to %v, core rung is %v", tcp, sum, core)
		}
		if got := res.Metrics["trace.overhead_ratio"].Value; !near(got, core/10.5) {
			t.Errorf("trace.overhead_ratio = %v", got)
		}
		if res.Metrics["security.guard_rel"].Value != 0 {
			t.Error("woven metrics must read 0 on an unwoven workload")
		}
	}
	// core − naming, pair by pair: 100, −100, 100, 3700, 100 → median 100.
	res := &result{Trace: true, Metrics: map[string]measured{}}
	l.samples[rungCore] = []int32{5000, 5000, 5000, 5000, 5000}
	l.samples[rungNaming] = []int32{5100, 5100, 5100, 4000, 5100}
	reportLadder(res, workload{}, &ladderPlan{}, l, 10)
	if got := res.Metrics["core.self_rel"].Value; !near(got, -100.0/500.0) {
		t.Errorf("core.self_rel = %v, want a negative fifth of the reference", got)
	}
}
